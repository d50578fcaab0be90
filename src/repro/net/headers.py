"""Byte-accurate codecs for the classic header stack: Ethernet, IPv4, UDP.

Every header type supports ``pack() -> bytes`` and ``unpack(bytes, offset=0)``
(decode in place, no slice) that round-trip exactly; property-based tests assert this invariant.  Packets in
the simulator carry *structured* header objects for speed, but wire sizes and
serialized bytes always come from these codecs, so bandwidth accounting is
grounded in the real formats rather than hard-coded constants.

The model is a fixed layout, the way a switch pipeline holds a packet
header vector: a header is a ``__slots__`` class with one slot per wire
field, its ``byte_len`` is a class constant, and ``pack()`` serialises the
*current* slot values through a module-level precompiled
:class:`struct.Struct`.  There is no cached serialisation to invalidate —
assigning a field is a plain slot store and the next ``pack()`` reflects
it by construction, which is what ICRC and guard-CRC corruption detection
rely on.  Constructors range-check every field; a field driven out of
range afterwards makes ``pack()`` raise :class:`HeaderError`.
"""

from __future__ import annotations

import struct
from typing import Optional, Tuple

from .addresses import Ipv4Address, MacAddress

#: EtherType for IPv4.
ETHERTYPE_IPV4 = 0x0800
#: EtherType for RoCEv1 (Infiniband global routing directly over Ethernet).
ETHERTYPE_ROCEV1 = 0x8915
#: UDP destination port reserved for RoCEv2 (IANA).
ROCEV2_UDP_PORT = 4791

#: Ethernet preamble + start-of-frame delimiter, bytes on the wire.
ETHERNET_PREAMBLE_BYTES = 8
#: Minimum inter-frame gap, bytes on the wire.
ETHERNET_IFG_BYTES = 12
#: Frame check sequence (CRC32) appended to every frame.
ETHERNET_FCS_BYTES = 4
#: Total per-frame wire overhead beyond the L2 header and payload.
ETHERNET_WIRE_OVERHEAD = (
    ETHERNET_PREAMBLE_BYTES + ETHERNET_IFG_BYTES + ETHERNET_FCS_BYTES
)
#: Minimum Ethernet frame size (header + payload + FCS), excluding preamble/IFG.
ETHERNET_MIN_FRAME = 64

# Precompiled wire formats (struct.Struct avoids per-call format parsing).
_ETH_STRUCT = struct.Struct("!6s6sH")
_IPV4_STRUCT = struct.Struct("!BBHHHBBH4s4s")
_UDP_STRUCT = struct.Struct("!HHHH")
_WORDS_10 = struct.Struct("!10H")

_new = object.__new__


class HeaderError(ValueError):
    """Raised when a header cannot be decoded, built or serialised."""


class Header:
    """Shared base of every fixed-layout header (and trailer).

    A subclass declares its wire fields as ``__slots__``, its size as the
    class constants ``LENGTH``/``byte_len``, a range-checking ``__init__``,
    ``pack()`` and ``unpack()``.  The base supplies value equality, a
    ``repr`` and :meth:`copy`; field values are all immutable (ints,
    bools, bytes, addresses), so a slot-for-slot copy is fully independent.
    """

    __slots__ = ()
    #: Serialised size in bytes; a class constant because the layout is fixed.
    byte_len = 0
    #: Every wire field, in declaration order (inherited slots included).
    _fields: Tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(
            name
            for base in reversed(cls.__mro__)
            for name in base.__dict__.get("__slots__", ())
        )
        # One straight-line slot-to-slot copy per class (the dataclass
        # technique): a generic getattr/setattr loop costs four times as
        # much, and every packet stamped from a template pays it.
        body = "".join(f" dup.{name} = self.{name}\n" for name in cls._fields)
        source = f"def copy(self):\n dup = new(cls)\n{body} return dup"
        namespace = {"new": _new, "cls": cls}
        # Compiled under this file's name so profiles charge it to this layer.
        exec(compile(source, __file__, "exec"), namespace)
        cls.copy = namespace["copy"]
        cls.copy.__qualname__ = f"{cls.__qualname__}.copy"
        cls.copy.__doc__ = "An independent header holding the same field values."

    def _pack_error(self, cause: Optional[struct.error] = None) -> "HeaderError":
        detail = f": {cause}" if cause is not None else ""
        return HeaderError(f"{self!r} holds an out-of-range field{detail}")

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(
            getattr(self, name) == getattr(other, name) for name in self._fields
        )

    __hash__ = None  # mutable value type

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__name__}({fields})"


class EthernetHeader(Header):
    """IEEE 802.3 Ethernet II header (14 bytes, no VLAN tag)."""

    __slots__ = ("dst", "src", "ethertype")
    LENGTH = byte_len = 14

    def __init__(
        self, dst: MacAddress, src: MacAddress, ethertype: int = ETHERTYPE_IPV4
    ) -> None:
        if not 0 <= ethertype <= 0xFFFF:
            raise HeaderError(f"ethertype out of range: {ethertype:#x}")
        self.dst = MacAddress(dst)
        self.src = MacAddress(src)
        self.ethertype = ethertype

    def pack(self) -> bytes:
        try:
            return _ETH_STRUCT.pack(
                self.dst.to_bytes(), self.src.to_bytes(), self.ethertype
            )
        except struct.error as exc:
            raise self._pack_error(exc) from None

    @classmethod
    def unpack(cls, data: bytes, offset: int = 0) -> "EthernetHeader":
        if len(data) - offset < cls.LENGTH:
            raise HeaderError(f"short Ethernet header: {len(data) - offset} bytes")
        dst, src, ethertype = _ETH_STRUCT.unpack_from(data, offset)
        # Straight slot fill: every field is width-limited by the wire
        # format itself, so the constructor's range checks cannot fail.
        header = _new(cls)
        header.dst = MacAddress.from_bytes(dst)
        header.src = MacAddress.from_bytes(src)
        header.ethertype = ethertype
        return header


def ipv4_checksum(header_bytes: bytes) -> int:
    """Compute the RFC 1071 one's-complement checksum over *header_bytes*.

    The checksum field itself must be zeroed in the input (summing a valid
    header *including* its checksum gives 0).
    """
    data = header_bytes
    if len(data) % 2:
        data += b"\x00"
    total = sum(word for (word,) in struct.iter_unpack("!H", data))
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


class Ipv4Header(Header):
    """IPv4 header (20 bytes, no options).

    ``total_length`` covers the IPv4 header plus everything after it; the
    packet layer keeps it consistent automatically when packing.
    """

    __slots__ = (
        "src",
        "dst",
        "protocol",
        "total_length",
        "ttl",
        "dscp",
        "ecn",
        "identification",
        "flags",
        "fragment_offset",
    )
    LENGTH = byte_len = 20
    PROTO_UDP = 17
    PROTO_TCP = 6

    def __init__(
        self,
        src: Ipv4Address,
        dst: Ipv4Address,
        protocol: int = 17,  # UDP
        total_length: int = 20,
        ttl: int = 64,
        dscp: int = 0,
        ecn: int = 0,
        identification: int = 0,
        flags: int = 0b010,  # don't fragment
        fragment_offset: int = 0,
    ) -> None:
        for name, value, limit in (
            ("protocol", protocol, 0xFF),
            ("total_length", total_length, 0xFFFF),
            ("ttl", ttl, 0xFF),
            ("dscp", dscp, 0x3F),
            ("ecn", ecn, 0x3),
            ("identification", identification, 0xFFFF),
            ("flags", flags, 0x7),
            ("fragment_offset", fragment_offset, 0x1FFF),
        ):
            if not 0 <= value <= limit:
                raise HeaderError(f"IPv4 {name} out of range: {value}")
        self.src = Ipv4Address(src)
        self.dst = Ipv4Address(dst)
        self.protocol = protocol
        self.total_length = total_length
        self.ttl = ttl
        self.dscp = dscp
        self.ecn = ecn
        self.identification = identification
        self.flags = flags
        self.fragment_offset = fragment_offset

    def pack(self) -> bytes:
        # The low halves of the two shared words would spill into their
        # neighbours silently; struct range-checks everything else.
        if self.ecn >> 2 or self.fragment_offset >> 13:
            raise self._pack_error()
        version_ihl = (4 << 4) | 5
        tos = (self.dscp << 2) | self.ecn
        flags_frag = (self.flags << 13) | self.fragment_offset
        src = self.src.value
        dst = self.dst.value
        # RFC 1071 checksum computed arithmetically from the fields — no
        # intermediate zero-checksum serialization.
        total = (
            (version_ihl << 8 | tos)
            + self.total_length
            + self.identification
            + flags_frag
            + (self.ttl << 8 | self.protocol)
            + (src >> 16)
            + (src & 0xFFFF)
            + (dst >> 16)
            + (dst & 0xFFFF)
        )
        # Nine 16-bit words sum below 2**20: two folds always suffice.
        total = (total & 0xFFFF) + (total >> 16)
        total = (total & 0xFFFF) + (total >> 16)
        try:
            return _IPV4_STRUCT.pack(
                version_ihl,
                tos,
                self.total_length,
                self.identification,
                flags_frag,
                self.ttl,
                self.protocol,
                (~total) & 0xFFFF,
                self.src.to_bytes(),
                self.dst.to_bytes(),
            )
        except struct.error as exc:
            raise self._pack_error(exc) from None

    @classmethod
    def unpack(cls, data: bytes, offset: int = 0) -> "Ipv4Header":
        if len(data) - offset < cls.LENGTH:
            raise HeaderError(f"short IPv4 header: {len(data) - offset} bytes")
        (
            version_ihl,
            tos,
            total_length,
            identification,
            flags_frag,
            ttl,
            protocol,
            checksum,
            src,
            dst,
        ) = _IPV4_STRUCT.unpack_from(data, offset)
        version = version_ihl >> 4
        ihl = version_ihl & 0xF
        if version != 4:
            raise HeaderError(f"not an IPv4 header (version={version})")
        if ihl != 5:
            raise HeaderError(f"IPv4 options unsupported (ihl={ihl})")
        total = sum(_WORDS_10.unpack_from(data, offset)) - checksum
        total = (total & 0xFFFF) + (total >> 16)
        total = (total & 0xFFFF) + (total >> 16)
        expected = (~total) & 0xFFFF
        if checksum != expected:
            raise HeaderError(
                f"bad IPv4 checksum: {checksum:#06x} != {expected:#06x}"
            )
        header = _new(cls)
        header.src = Ipv4Address.from_bytes(src)
        header.dst = Ipv4Address.from_bytes(dst)
        header.protocol = protocol
        header.total_length = total_length
        header.ttl = ttl
        header.dscp = tos >> 2
        header.ecn = tos & 0x3
        header.identification = identification
        header.flags = flags_frag >> 13
        header.fragment_offset = flags_frag & 0x1FFF
        return header


class UdpHeader(Header):
    """UDP header (8 bytes).

    The checksum is carried verbatim; RoCEv2 sets it to zero, which is legal
    for UDP over IPv4 and what real RNICs emit.
    """

    __slots__ = ("src_port", "dst_port", "length", "checksum")
    LENGTH = byte_len = 8

    def __init__(
        self, src_port: int, dst_port: int, length: int = 8, checksum: int = 0
    ) -> None:
        for name, value in (
            ("src_port", src_port),
            ("dst_port", dst_port),
            ("length", length),
            ("checksum", checksum),
        ):
            if not 0 <= value <= 0xFFFF:
                raise HeaderError(f"UDP {name} out of range: {value}")
        self.src_port = src_port
        self.dst_port = dst_port
        self.length = length
        self.checksum = checksum

    def pack(self) -> bytes:
        try:
            return _UDP_STRUCT.pack(
                self.src_port, self.dst_port, self.length, self.checksum
            )
        except struct.error as exc:
            raise self._pack_error(exc) from None

    @classmethod
    def unpack(cls, data: bytes, offset: int = 0) -> "UdpHeader":
        if len(data) - offset < cls.LENGTH:
            raise HeaderError(f"short UDP header: {len(data) - offset} bytes")
        header = _new(cls)
        (
            header.src_port,
            header.dst_port,
            header.length,
            header.checksum,
        ) = _UDP_STRUCT.unpack_from(data, offset)
        return header
