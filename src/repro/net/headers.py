"""Byte-accurate codecs for the classic header stack: Ethernet, IPv4, UDP.

Every header type supports ``pack() -> bytes`` and ``unpack(bytes, offset=0)``
(decode in place, no slice) that round-trip exactly; property-based tests assert this invariant.  Packets in
the simulator carry *structured* header objects for speed, but wire sizes and
serialized bytes always come from these codecs, so bandwidth accounting is
grounded in the real formats rather than hard-coded constants.

The model is a fixed layout, the way a switch pipeline holds a packet
header vector: a header is a ``__slots__`` class with one slot per field,
and it states its wire format once, as a :class:`Wire`: the
:class:`struct.Struct` format, the statements that compute each wire field
from the slots (with the checks that a narrow field cannot spill into its
neighbour) and the statements that check the wire fields and fill the
slots back.  ``Header.__init_subclass__`` compiles ``pack``/``unpack`` and
``byte_len`` from it; :mod:`repro.net.packet` compiles the same statements
into one ``struct`` call per frame.  There is no cached serialisation to
invalidate: assigning a field is a plain slot store and the next ``pack()``
reflects it by construction, which is what ICRC and guard-CRC corruption
detection rely on.  Constructors range-check every field; a field driven
out of range afterwards makes ``pack()`` raise :class:`HeaderError`.
"""

from __future__ import annotations

import re
import struct
import sys
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .addresses import IPV4S, MACS, Ipv4Address, MacAddress

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

_new = object.__new__


class HeaderError(ValueError):
    """Raised when a header cannot be decoded, built or serialised."""


#: A quoted string (kept as is) or a name that is not an attribute.
_NAME = re.compile(r"'[^']*'|\"[^\"]*\"|(?<![.\w])[A-Za-z_]\w*")
#: A statement that binds a name.
_BINDING = re.compile(r"([A-Za-z_]\w*) = ")


def _bound(statements: Iterable[str]) -> Set[str]:
    """The names *statements* bind."""
    return {m[1] for m in map(_BINDING.match, statements) if m}


class Wire:
    """One header's wire format, stated once.

    * *fmt* — the :mod:`struct` format of the wire fields (network order);
    * *names* — one name per wire field, space-separated;
    * *pack* — statements ``name = expression`` computing the wire fields
      that are not a slot of the same name from the header ``h``;
    * *spill* — an expression over ``h``, true when a field narrower than
      its wire word would spill into a neighbour (``struct`` range-checks
      the full-width ones);
    * *unpack* — statements that check the wire fields (raising
      :class:`HeaderError`; ``name = expression`` binds a local for a
      check) and fill the slots that are not a wire field of the same name
      into ``h``;
    * *env* — the names these statements use beyond ``HeaderError``.

    Statements are one line each and format messages with ``%``, not
    f-strings: a frame codec compiles them for several headers at once,
    each under its own suffix (:meth:`rename`).
    """

    def __init__(
        self,
        fmt: str,
        names: str,
        pack: Sequence[str] = (),
        spill: Optional[str] = None,
        unpack: Sequence[str] = (),
        env: Optional[Dict[str, object]] = None,
    ) -> None:
        self.fmt = fmt
        self.struct = struct.Struct("!" + fmt)
        self.names = tuple(names.split())
        self.pack = tuple(pack)
        self.spill = spill
        self.unpack = tuple(unpack)
        self.env = {"HeaderError": HeaderError, **(env or {})}
        self.computed = _bound(self.pack)
        self.filled = _bound(line[2:] for line in self.unpack if line.startswith("h."))
        self.locals = {"h", *self.names, *self.computed, *_bound(self.unpack)}

    def rename(self, text: str, suffix: str) -> str:
        """*text* with ``h`` and every wire field name given *suffix*."""
        names = self.locals
        return _NAME.sub(lambda m: m[0] + suffix if m[0] in names else m[0], text)

    def encoder(self, slots: Sequence[str], suffix: str = "") -> Tuple[List[str], str]:
        """Statements that bind every wire field from ``h``, and the
        ``struct`` arguments."""
        lines = [f"{n} = h.{n}" for n in self.names if n not in self.computed and n in slots]
        lines += self.pack
        return [self.rename(line, suffix) for line in lines], ", ".join(n + suffix for n in self.names)

    def decoder(self, slots: Sequence[str], suffix: str = "") -> List[str]:
        """Statements that check the bound wire fields and fill ``h``."""
        lines = list(self.unpack)
        lines += [f"h.{n} = {n}" for n in self.names if n in slots and n not in self.filled]
        return [self.rename(line, suffix) for line in lines]


def _compile(source: str, namespace: dict, name: str, filename: str = __file__):
    # Compiled under a source file's name so profiles charge it to its layer.
    exec(compile(source, filename, "exec"), namespace)
    return namespace[name]


class Header:
    """Shared base of every fixed-layout header (and trailer).

    A subclass declares its fields as ``__slots__``, a range-checking
    ``__init__`` and its wire format as the class constant ``WIRE`` (a
    :class:`Wire`); the base compiles ``pack``/``unpack`` and
    ``LENGTH``/``byte_len`` from it, and supplies value equality, a
    ``repr`` and :meth:`copy`.  Field values are all immutable (ints,
    bools, bytes, addresses), so a slot-for-slot copy is fully independent.
    """

    __slots__ = ()
    #: Serialised size in bytes; a class constant because the layout is fixed.
    byte_len = 0
    #: Every wire field, in declaration order (inherited slots included).
    _fields: Tuple[str, ...] = ()
    WIRE: Optional[Wire] = None

    def __init_subclass__(cls) -> None:
        cls._fields = fields = tuple(
            name
            for base in reversed(cls.__mro__)
            for name in base.__dict__.get("__slots__", ())
        )
        # One straight-line slot-to-slot copy per class (the dataclass
        # technique): a generic getattr/setattr loop costs four times as
        # much, and every packet stamped from a template pays it.
        body = "".join(f" dup.{name} = self.{name}\n" for name in fields)
        cls.copy = _compile(
            f"def copy(self):\n dup = new(cls)\n{body} return dup", {"new": _new, "cls": cls}, "copy"
        )
        cls.copy.__qualname__ = f"{cls.__qualname__}.copy"
        cls.copy.__doc__ = "An independent header holding the same field values."
        wire = cls.__dict__.get("WIRE")
        if wire is None:
            return
        cls.LENGTH = cls.byte_len = size = wire.struct.size
        namespace = {**wire.env, "S": wire.struct, "new": _new, "error": struct.error}
        # Charged to the stating module's layer, as a hand-written body was.
        filename = getattr(sys.modules.get(cls.__module__), "__file__", None) or __file__
        binds, args = wire.encoder(fields)
        spill = f" if {wire.spill}: raise h._pack_error()\n" if wire.spill else ""
        cls.pack = _compile(
            f"def pack(h):\n{spill}"
            + "".join(f" {line}\n" for line in binds)
            + f" try: return S.pack({args})\n"
            " except error as exc: raise h._pack_error(exc) from None",
            namespace,
            "pack",
            filename,
        )
        fills = wire.decoder(fields)
        if fills == [f"h.{n} = {n}" for n in wire.names]:  # every wire field is a slot
            fills, targets = [], ", ".join(f"h.{n}" for n in wire.names) + ","
        else:
            targets = ", ".join(wire.names) + ","
        unpack = _compile(
            "def unpack(cls, data, offset=0):\n"
            f" if len(data) - offset < {size}: raise HeaderError("
            f"'short {cls.__name__}: %d bytes' % (len(data) - offset))\n"
            " h = new(cls)\n"
            f" {targets} = S.unpack_from(data, offset)\n"
            + "".join(f" {line}\n" for line in fills)
            + " return h",
            namespace,
            "unpack",
            filename,
        )
        cls.unpack = classmethod(unpack)
        cls.pack.__qualname__ = f"{cls.__qualname__}.pack"
        unpack.__qualname__ = f"{cls.__qualname__}.unpack"

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
    WIRE = Wire(
        "6s6sH",
        "dst src ethertype",
        pack=("dst = h.dst.packed", "src = h.src.packed"),
        unpack=("h.dst = MACS[dst]", "h.src = MACS[src]"),
        env={"MACS": MACS},
    )

    def __init__(
        self, dst: MacAddress, src: MacAddress, ethertype: int = ETHERTYPE_IPV4
    ) -> None:
        if not 0 <= ethertype <= 0xFFFF:
            raise HeaderError(f"ethertype out of range: {ethertype:#x}")
        self.dst = MacAddress(dst)
        self.src = MacAddress(src)
        self.ethertype = ethertype


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


#: The nine 16-bit words of an IPv4 header other than its checksum, from
#: the wire fields of :attr:`Ipv4Header.WIRE`, and their RFC 1071 checksum
#: in one expression: a positive sum folds (end-around carry) to
#: ``(sum - 1) % 0xFFFF + 1``, and the checksum is its complement.
_IPV4_SUM = (
    "(version_ihl << 8 | tos) + total_length + identification + frag + (ttl << 8 | protocol)"
    " + (src >> 16) + (src & 0xFFFF) + (dst >> 16) + (dst & 0xFFFF)"
)
_IPV4_CHECKSUM = f"0xFFFE - ({_IPV4_SUM} - 1) % 0xFFFF"


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
    PROTO_UDP = 17
    PROTO_TCP = 6
    WIRE = Wire(
        "BBHHHBBHII",
        "version_ihl tos total_length identification frag ttl protocol checksum src dst",
        pack=(
            "version_ihl = 0x45",
            "tos = h.dscp << 2 | h.ecn",
            "frag = h.flags << 13 | h.fragment_offset",
            "src = h.src.value",
            "dst = h.dst.value",
            f"checksum = {_IPV4_CHECKSUM}",
        ),
        spill="h.ecn >> 2 or h.fragment_offset >> 13",
        unpack=(
            "if version_ihl >> 4 != 4: raise HeaderError('not an IPv4 header (version=%d)' % (version_ihl >> 4))",
            "if version_ihl & 0xF != 5: raise HeaderError('IPv4 options unsupported (ihl=%d)' % (version_ihl & 0xF))",
            f"expected = {_IPV4_CHECKSUM}",
            "if checksum != expected: raise HeaderError('bad IPv4 checksum: %#06x != %#06x' % (checksum, expected))",
            "h.src = IPV4S[src]",
            "h.dst = IPV4S[dst]",
            "h.dscp = tos >> 2",
            "h.ecn = tos & 0x3",
            "h.flags = frag >> 13",
            "h.fragment_offset = frag & 0x1FFF",
        ),
        env={"IPV4S": IPV4S},
    )

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


class UdpHeader(Header):
    """UDP header (8 bytes).

    The checksum is carried verbatim; RoCEv2 sets it to zero, which is legal
    for UDP over IPv4 and what real RNICs emit.
    """

    __slots__ = ("src_port", "dst_port", "length", "checksum")
    WIRE = Wire("HHHH", "src_port dst_port length checksum")

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
