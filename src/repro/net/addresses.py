"""MAC and IPv4 address value types.

Addresses are thin immutable wrappers around integers with parsing and
formatting, so they hash cheaply (table keys) and compare naturally.  Each
also keeps its wire bytes in the ``packed`` slot, set once at construction:
the header codecs emit an address without converting it, and
``from_bytes`` hands back the one interned instance for bytes it has seen
(:data:`MACS`, :data:`IPV4S`).
"""

from __future__ import annotations

from typing import Union

#: Entries an intern table holds before it starts over (deterministically:
#: a full table is cleared, never sampled), so a stream of distinct
#: addresses costs bounded memory.
INTERN_LIMIT = 4096


class _InternTable(dict):
    """Key to the one address made for it: a hit is a plain subscript, and
    a miss makes the address, clearing the table first when it is full."""

    __slots__ = ("make",)

    def __init__(self, make) -> None:
        super().__init__()
        self.make = make

    def __missing__(self, key):
        address = self.make(key)
        if len(self) >= INTERN_LIMIT:
            self.clear()
        self[key] = address
        return address


class MacAddress:
    """A 48-bit Ethernet MAC address."""

    __slots__ = ("value", "packed")

    BROADCAST_VALUE = (1 << 48) - 1

    def __new__(cls, value: Union[int, str, "MacAddress"]) -> "MacAddress":
        if type(value) is cls:
            return value  # immutable: an address is never re-wrapped
        if isinstance(value, MacAddress):
            value = value.value
        elif isinstance(value, str):
            parts = value.replace("-", ":").split(":")
            if len(parts) != 6:
                raise ValueError(f"malformed MAC address: {value!r}")
            value = 0
            for part in parts:
                byte = int(part, 16)
                if not 0 <= byte <= 0xFF:
                    raise ValueError(f"malformed MAC address octet: {part!r}")
                value = (value << 8) | byte
        if not 0 <= value < (1 << 48):
            raise ValueError(f"MAC address out of range: {value:#x}")
        self = object.__new__(cls)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "packed", value.to_bytes(6, "big"))
        return self

    def __setattr__(self, name: str, val: object) -> None:
        raise AttributeError("MacAddress is immutable")

    # Immutable: copying returns the same object.
    def __copy__(self) -> "MacAddress":
        return self

    def __deepcopy__(self, memo: dict) -> "MacAddress":
        return self

    @classmethod
    def broadcast(cls) -> "MacAddress":
        """Return the all-ones broadcast address ff:ff:ff:ff:ff:ff."""
        return cls(cls.BROADCAST_VALUE)

    @classmethod
    def from_bytes(cls, data: bytes) -> "MacAddress":
        """The interned address of six wire bytes (``bytes``, ``bytearray``
        or ``memoryview``)."""
        if len(data) != 6:
            raise ValueError(f"MAC address needs 6 bytes, got {len(data)}")
        return MACS[bytes(data)]

    def to_bytes(self) -> bytes:
        return self.packed

    @property
    def is_broadcast(self) -> bool:
        return self.value == self.BROADCAST_VALUE

    @property
    def is_multicast(self) -> bool:
        """True when the group bit (LSB of the first octet) is set."""
        return bool((self.value >> 40) & 0x01)

    def __eq__(self, other: object) -> bool:
        if type(other) is MacAddress:
            return self.value == other.value
        if isinstance(other, (MacAddress, int, str)):
            try:
                return self.value == MacAddress(other).value
            except (ValueError, TypeError):
                return NotImplemented
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("mac", self.value))

    def __str__(self) -> str:
        return ":".join(f"{b:02x}" for b in self.packed)

    def __repr__(self) -> str:
        return f"MacAddress('{self}')"


class Ipv4Address:
    """A 32-bit IPv4 address."""

    __slots__ = ("value", "packed")

    def __new__(cls, value: Union[int, str, "Ipv4Address"]) -> "Ipv4Address":
        if type(value) is cls:
            return value  # immutable: an address is never re-wrapped
        if isinstance(value, Ipv4Address):
            value = value.value
        elif isinstance(value, str):
            parts = value.split(".")
            if len(parts) != 4:
                raise ValueError(f"malformed IPv4 address: {value!r}")
            value = 0
            for part in parts:
                octet = int(part)
                if not 0 <= octet <= 255:
                    raise ValueError(f"malformed IPv4 octet: {part!r}")
                value = (value << 8) | octet
        if not 0 <= value < (1 << 32):
            raise ValueError(f"IPv4 address out of range: {value:#x}")
        self = object.__new__(cls)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "packed", value.to_bytes(4, "big"))
        return self

    def __setattr__(self, name: str, val: object) -> None:
        raise AttributeError("Ipv4Address is immutable")

    # Immutable: copying returns the same object.
    def __copy__(self) -> "Ipv4Address":
        return self

    def __deepcopy__(self, memo: dict) -> "Ipv4Address":
        return self

    @classmethod
    def from_bytes(cls, data: bytes) -> "Ipv4Address":
        """The interned address of four wire bytes (``bytes``,
        ``bytearray`` or ``memoryview``)."""
        if len(data) != 4:
            raise ValueError(f"IPv4 address needs 4 bytes, got {len(data)}")
        return IPV4S[int.from_bytes(data, "big")]

    def to_bytes(self) -> bytes:
        return self.packed

    def __eq__(self, other: object) -> bool:
        if type(other) is Ipv4Address:
            return self.value == other.value
        if isinstance(other, (Ipv4Address, int, str)):
            try:
                return self.value == Ipv4Address(other).value
            except (ValueError, TypeError):
                return NotImplemented
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("ipv4", self.value))

    def __str__(self) -> str:
        return ".".join(str(b) for b in self.packed)

    def __repr__(self) -> str:
        return f"Ipv4Address('{self}')"


#: The intern tables: MACs by their six wire bytes, IPv4 addresses by
#: value (the IPv4 codec moves an address as one 32-bit word, because the
#: header checksum sums it as two).
MACS = _InternTable(lambda packed: MacAddress(int.from_bytes(packed, "big")))
IPV4S = _InternTable(Ipv4Address)
