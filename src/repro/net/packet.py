"""The structured packet model.

A :class:`Packet` is an ordered stack of header objects (outermost first)
plus an opaque payload.  Network elements manipulate the structured form —
pushing and popping headers the way a P4 deparser would — while byte-level
serialization remains available for tests, pcap dumps, and wire-size
accounting.

``meta`` carries simulation-only annotations (flow ids, creation timestamps,
trace hooks) that never appear on the wire and never count toward sizes.

The layout is fixed the way a pipeline's packet header vector is:
``buffer_len``/``frame_len``/``wire_len`` are plain ints set at construction
and *adjusted* by every stack or payload change, never re-summed; the
stacks are exposed as tuples, so the only way to change one is through
the :class:`Packet` methods that keep the sizes right; and everything
that depends only on the *sequence of header types* — where the first
header of a type sits, how many bytes precede each IPv4/UDP length field —
lives in one :class:`_Layout` shared by every packet of that shape, which
makes ``find``/``require``/``eth``/``ipv4``/``udp`` a dict lookup.  The
layout also owns the byte codec: it compiles its headers'
:class:`~repro.net.headers.Wire` statements into one frame packer, so a
frame packs in one ``struct`` call, and :meth:`Packet.parse` reads
Ethernet/IPv4/UDP with one ``unpack_from``.
``clone()`` copies each header slot for slot (field values are all
immutable) and shares the payload bytes, which is what a switch mirror
semantically needs at a fraction of the cost of a deep copy.
"""

from __future__ import annotations

import copy
import itertools
import struct
from typing import Any, Dict, Iterable, List, Optional, Tuple, Type, TypeVar

from .headers import (
    ETHERNET_FCS_BYTES,
    ETHERNET_MIN_FRAME,
    ETHERNET_WIRE_OVERHEAD,
    ETHERTYPE_IPV4,
    EthernetHeader,
    HeaderError,
    Ipv4Header,
    UdpHeader,
    _compile,
)

H = TypeVar("H")

_packet_ids = itertools.count(1)
_new = object.__new__

#: Process-wide count of packets constructed (``bench_e2e`` reads it around a run).
_packets_created = 0

#: Frames shorter than this many buffer bytes are padded to the minimum.
_MIN_UNPADDED = ETHERNET_MIN_FRAME - ETHERNET_FCS_BYTES
#: Preamble + inter-frame gap: what the wire adds to a frame.
_WIRE_EXTRA = ETHERNET_WIRE_OVERHEAD - ETHERNET_FCS_BYTES
#: ``meta`` value types a clone may share instead of deep-copying.
_SCALARS = (int, float, str, bytes, bool, type(None))


def packets_created() -> int:
    """Packets constructed in this process since import (all instances)."""
    return _packets_created


class _Layout(dict):
    """What all packets with one sequence of header types have in common.

    Maps a header type to the stack index of the first header that is an
    instance of it (-1 when absent); a type asked about for the first time
    is resolved by one ``issubclass`` scan and remembered, so subclass
    matching costs nothing per packet.
    """

    __slots__ = ("types", "header_len", "length_fields", "pack")

    def __init__(self, types: Tuple[type, ...]) -> None:
        self.types = types
        #: Total bytes of the stack (``byte_len`` is a class constant).
        self.header_len = sum(t.byte_len for t in types)
        #: ``(stack index, bytes before it, field name)`` of every IPv4
        #: total-length and UDP length field.
        fields = []
        before = 0
        for index, header_type in enumerate(types):
            if issubclass(header_type, Ipv4Header):
                fields.append((index, before, "total_length"))
            elif issubclass(header_type, UdpHeader):
                fields.append((index, before, "length"))
            before += header_type.byte_len
        self.length_fields = tuple(fields)
        #: ``pack(headers, payload, trailers, buffer_len)``: the frame's bytes.
        self.pack = _frame_packer(types, self.length_fields)

    def __missing__(self, header_type: type) -> int:
        index = -1
        for i, present in enumerate(self.types):
            if issubclass(present, header_type):
                index = i
                break
        self[header_type] = index
        return index


def _pack_each(headers: Tuple[Any, ...], payload: bytes, trailers: Tuple[Any, ...], size: int = 0) -> bytes:
    """The frame packed header by header: what a layout packs when one of
    its types states no wire format, and how a spill or a failed ``struct``
    call is redone so that the first bad header raises its own error."""
    return (
        b"".join([h.pack() for h in headers])
        + payload
        + b"".join([t.pack() for t in trailers])
    )


def _too_long(header: Any, field: str, value: int) -> HeaderError:
    return HeaderError(
        f"{type(header).__name__}.{field} cannot hold {value}: the field is 16 bits wide"
    )


def _frame_packer(types: Tuple[type, ...], length_fields: Tuple[Tuple[int, int, str], ...]):
    """Compile the layout's packer: set the length fields from the size,
    bind every wire field of every header (the IPv4 checksum arithmetically)
    and emit the stack in one ``Struct.pack``; payload and trailers follow."""
    if not types:
        return _pack_each
    namespace = {"pack_each": _pack_each, "too_long": _too_long, "error": struct.error}
    lines = ["def pack(headers, payload, trailers, size):", f" {', '.join(f'h_{i}' for i in range(len(types)))}, = headers"]
    for index, before, field in length_fields:
        lines += [
            f" n = size - {before}",
            f" if n > 0xFFFF: raise too_long(h_{index}, {field!r}, n)",
            f" h_{index}.{field} = n",
        ]
    wires = [getattr(t, "WIRE", None) for t in types]
    if None in wires:
        lines.append(" return pack_each(headers, payload, trailers)")
        return _compile("\n".join(lines), namespace, "pack", __file__)
    spills = [f"({w.rename(w.spill, f'_{i}')})" for i, w in enumerate(wires) if w.spill]
    if spills:
        lines.append(f" if {' or '.join(spills)}: return pack_each(headers, payload, trailers)")
    lines.append(" try:")
    args = []
    for i, (header_type, wire) in enumerate(zip(types, wires)):
        namespace.update(wire.env)
        binds, arg = wire.encoder(header_type._fields, f"_{i}")
        lines += [f"  {line}" for line in binds]
        args.append(arg)
    namespace["S"] = struct.Struct("!" + "".join(w.fmt for w in wires))
    lines += [
        f"  head = S.pack({', '.join(args)})",
        " except error:",
        "  return pack_each(headers, payload, trailers)",
        " if trailers:",
        "  return head + payload + b''.join([t.pack() for t in trailers])",
        " return head + payload",
    ]
    return _compile("\n".join(lines), namespace, "pack", __file__)


_layouts: Dict[Tuple[type, ...], _Layout] = {}


def packet_layout(*types: type) -> _Layout:
    """The layout shared by every packet whose header stack is *types*; a
    builder of many such packets looks it up once for :meth:`Packet.stamped`."""
    layout = _layouts.get(types)
    if layout is None:
        layout = _layouts[types] = _Layout(types)
    return layout


def _layout_of(headers: Tuple[Any, ...]) -> _Layout:
    types = tuple(map(type, headers))
    layout = _layouts.get(types)
    return packet_layout(*types) if layout is None else layout


def _frame_decoder():
    """Compile :meth:`Packet.parse` from the Ethernet, IPv4 and UDP
    statements: one ``unpack_from`` reads all three (a frame shorter than
    that is zero-padded first, and ``end`` still marks its real end), each
    header's checks run only once the stack is known to reach it, and the
    length rules between them are stated here, once."""
    types = (EthernetHeader, Ipv4Header, UdpHeader)
    namespace = {"HeaderError": HeaderError, "new": _new}
    fills = []
    for i, header_type in enumerate(types):
        wire = header_type.WIRE
        namespace.update(wire.env)
        namespace[f"T_{i}"] = header_type
        namespace[f"L_{i}"] = packet_layout(*types[: i + 1])
        fills.append([f" h_{i} = new(T_{i})"] + [f" {line}" for line in wire.decoder(header_type._fields, f"_{i}")])
    decoder = struct.Struct("!" + "".join(t.WIRE.fmt for t in types))
    namespace["S"] = decoder
    targets = ", ".join(f"{name}_{i}" for i, t in enumerate(types) for name in t.WIRE.names)
    eth_end, ip_end, size = (sum(t.byte_len for t in types[:depth]) for depth in (1, 2, 3))

    def stamp(depth: int, start: int) -> List[str]:
        return [
            f" payload = data[offset + {start}:end]",
            " if type(payload) is not bytes: payload = bytes(payload)",
            f" return cls.stamped(L_{depth - 1}, ({''.join(f'h_{i}, ' for i in range(depth))}), payload, (), {start} + len(payload))",
        ]

    lines = [
        "def parse(cls, data, offset=0):",
        " end = len(data)",
        f" if end - offset < {size}:",
        f"  if end - offset < {eth_end}: raise HeaderError('short EthernetHeader: %d bytes' % (end - offset))",
        f"  data = bytes(data[offset:]) + bytes({size} - end + offset)",
        "  end -= offset",
        "  offset = 0",
        f" {targets}, = S.unpack_from(data, offset)",
        *fills[0],
        f" if ethertype_0 != {ETHERTYPE_IPV4} or end < offset + {ip_end}:",
        *[" " + line for line in stamp(1, eth_end)],
        *fills[1],
        f" if total_length_1 < {Ipv4Header.byte_len}:",
        "  raise HeaderError('IPv4 total_length %d is shorter than its header' % total_length_1)",
        f" if end > offset + {eth_end} + total_length_1: end = offset + {eth_end} + total_length_1",
        f" if protocol_1 != {Ipv4Header.PROTO_UDP} or end < offset + {size}:",
        *[" " + line for line in stamp(2, ip_end)],
        *fills[2],
        f" room = total_length_1 - {Ipv4Header.byte_len}",
        f" if length_2 < {UdpHeader.byte_len} or length_2 > room:",
        "  raise HeaderError('UDP length %d does not fit the IPv4 payload of %d B' % (length_2, room))",
        *stamp(3, size),
    ]
    return _compile("\n".join(lines), namespace, "parse", __file__)


class Packet:
    """A network packet: a header stack, payload bytes, optional trailers.

    Trailers (e.g. the RoCE invariant CRC) are packed *after* the payload
    and count toward all sizes, mirroring their position on the wire.
    """

    __slots__ = (
        "_headers",
        "_payload",
        "_trailers",
        "_layout",
        "meta",
        "packet_id",
        "buffer_len",
        "frame_len",
        "wire_len",
    )

    #: Bytes this packet occupies in a switch buffer: headers + payload +
    #: trailers.
    buffer_len: int
    #: L2 frame size: ``buffer_len`` + FCS, padded to the 64 B minimum.
    frame_len: int
    #: Bytes occupied on the wire: the frame plus preamble and IFG.
    wire_len: int

    def __init__(
        self,
        headers: Optional[Iterable[Any]] = None,
        payload: bytes = b"",
        trailers: Optional[Iterable[Any]] = None,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        self._headers = headers = tuple(headers) if headers else ()
        self._payload = payload if type(payload) is bytes else bytes(payload)
        self._trailers = trailers = tuple(trailers) if trailers else ()
        self._layout = layout = _layout_of(headers)
        self.meta: Dict[str, Any] = dict(meta) if meta else {}
        self.packet_id = next(_packet_ids)
        size = layout.header_len + len(payload)
        for trailer in trailers:
            size += trailer.byte_len
        self.buffer_len = size
        self.frame_len = frame = (
            size + ETHERNET_FCS_BYTES if size > _MIN_UNPADDED else ETHERNET_MIN_FRAME
        )
        self.wire_len = frame + _WIRE_EXTRA
        global _packets_created
        _packets_created += 1

    @classmethod
    def stamped(
        cls,
        layout: _Layout,
        headers: Tuple[Any, ...],
        payload: bytes,
        trailers: Tuple[Any, ...],
        buffer_len: int,
    ) -> "Packet":
        """``Packet(headers, payload, trailers)`` for a builder that already
        knows the shape and size: *layout* is :func:`packet_layout` of the
        types of *headers* (a tuple), *payload* is ``bytes`` and *buffer_len*
        the total size.  Nothing is re-derived or checked here."""
        packet = _new(cls)
        packet._headers = headers
        packet._payload = payload
        packet._trailers = trailers
        packet._layout = layout
        packet.meta = {}
        packet.packet_id = next(_packet_ids)
        packet.buffer_len = buffer_len
        packet.frame_len = frame = (
            buffer_len + ETHERNET_FCS_BYTES
            if buffer_len > _MIN_UNPADDED
            else ETHERNET_MIN_FRAME
        )
        packet.wire_len = frame + _WIRE_EXTRA
        global _packets_created
        _packets_created += 1
        return packet

    def _resize(self, delta: int) -> None:
        """Grow (or shrink) all three sizes by *delta* bytes (see __init__)."""
        self.buffer_len = size = self.buffer_len + delta
        self.frame_len = frame = (
            size + ETHERNET_FCS_BYTES if size > _MIN_UNPADDED else ETHERNET_MIN_FRAME
        )
        self.wire_len = frame + _WIRE_EXTRA

    @property
    def headers(self) -> Tuple[Any, ...]:
        """The header stack, outermost first.

        A tuple: change the stack with :meth:`push`, :meth:`pop`,
        :meth:`append`, :meth:`insert` or :meth:`remove`, which keep the
        sizes and the type index right.
        """
        return self._headers

    @property
    def trailers(self) -> Tuple[Any, ...]:
        """The trailer stack (a tuple; replace it with :meth:`set_trailers`)."""
        return self._trailers

    @property
    def payload(self) -> bytes:
        return self._payload

    @payload.setter
    def payload(self, data: bytes) -> None:
        data = data if type(data) is bytes else bytes(data)
        self._resize(len(data) - len(self._payload))
        self._payload = data

    # -- header-stack manipulation -------------------------------------------

    def _restack(self, stack: Tuple[Any, ...], delta: int) -> None:
        layout = _layout_of(stack)  # raises before anything has changed
        self._headers = stack
        self._layout = layout
        self._resize(delta)

    def insert(self, index: int, header: Any) -> "Packet":
        """Put *header* at stack position *index* (returns self)."""
        stack = list(self._headers)
        stack.insert(index, header)
        self._restack(tuple(stack), header.byte_len)
        return self

    def remove(self, index: int) -> Any:
        """Remove and return the header at stack position *index*."""
        stack = list(self._headers)
        try:
            header = stack.pop(index)
        except IndexError:
            raise HeaderError(f"no header at stack position {index}") from None
        self._restack(tuple(stack), -header.byte_len)
        return header

    def push(self, header: Any) -> "Packet":
        """Prepend *header* as the new outermost header (returns self)."""
        return self.insert(0, header)

    def append(self, header: Any) -> "Packet":
        """Add *header* as the new innermost header (returns self)."""
        return self.insert(len(self._headers), header)

    def pop(self) -> Any:
        """Remove and return the outermost header."""
        return self.remove(0)

    def set_trailers(self, trailers: Iterable[Any]) -> None:
        """Replace the trailer stack."""
        trailers = tuple(trailers)
        self._resize(
            sum(t.byte_len for t in trailers)
            - sum(t.byte_len for t in self._trailers)
        )
        self._trailers = trailers

    def find(self, header_type: Type[H]) -> Optional[H]:
        """Return the first header of *header_type*, or None."""
        index = self._layout[header_type]
        return self._headers[index] if index >= 0 else None

    def require(self, header_type: Type[H]) -> H:
        """Return the first header of *header_type*, raising if absent."""
        index = self._layout[header_type]
        if index < 0:
            raise HeaderError(f"packet has no {header_type.__name__}")
        return self._headers[index]

    def index_of(self, header_type: Type[Any]) -> int:
        """Return the stack index of the first header of *header_type*."""
        index = self._layout[header_type]
        if index < 0:
            raise HeaderError(f"packet has no {header_type.__name__}")
        return index

    @property
    def eth(self) -> EthernetHeader:
        return self.require(EthernetHeader)

    @property
    def ipv4(self) -> Ipv4Header:
        return self.require(Ipv4Header)

    @property
    def udp(self) -> UdpHeader:
        return self.require(UdpHeader)

    def find_trailer(self, trailer_type: Type[H]) -> Optional[H]:
        """Return the first trailer of *trailer_type*, or None."""
        for trailer in self._trailers:
            if isinstance(trailer, trailer_type):
                return trailer
        return None

    @property
    def header_len(self) -> int:
        """Total bytes of all headers in the stack (trailers excluded)."""
        return self._layout.header_len

    # -- serialization -----------------------------------------------------------

    def fixup_lengths(self) -> None:
        """Make IPv4/UDP length fields consistent with the current stack.

        Each covers its own header, every header after it, the payload
        and the trailers: ``buffer_len`` less the bytes in front of it.
        """
        size = self.buffer_len
        for index, before, field in self._layout.length_fields:
            header = self._headers[index]
            if size - before > 0xFFFF:
                raise HeaderError(
                    f"{type(header).__name__}.{field} cannot hold "
                    f"{size - before}: the field is 16 bits wide"
                )
            setattr(header, field, size - before)

    def pack(self) -> bytes:
        """Serialize the packet to bytes (without FCS/preamble/IFG), first
        making the IPv4/UDP length fields consistent (:meth:`fixup_lengths`)."""
        return self._layout.pack(self._headers, self._payload, self._trailers, self.buffer_len)

    parse = classmethod(_frame_decoder())
    parse.__func__.__doc__ = """Parse Ethernet → IPv4 → UDP from the frame at ``data[offset:]``.

        Decoded in place (``bytes``, ``bytearray`` or ``memoryview``): the
        only bytes copied are the payload's.  Anything below UDP (or a
        non-IPv4/non-UDP stack) is kept as opaque payload; protocol modules
        such as :mod:`repro.rdma.headers` provide their own continuation
        parsers over that payload.  The IPv4 length bounds the payload
        (Ethernet padding, or the stale tail of a reused ring slot, is not
        the packet's) and must cover the IPv4 header; a UDP length must
        cover the UDP header and fit the IPv4 payload.  Anything else raises
        :class:`HeaderError`.
        """

    # -- copying -----------------------------------------------------------------

    def clone(self) -> "Packet":
        """Copy the packet (fresh packet_id), as a switch mirror would.

        Headers and trailers are duplicated as independent objects (their
        field values are immutable, so no deep copy is needed); the payload
        bytes are shared, never copied.  Mutating the clone's headers or
        payload cannot affect the original.  Scalar ``meta`` values are
        carried over directly; container values are deep-copied.
        """
        dup = Packet.__new__(Packet)
        dup._headers = tuple([h.copy() for h in self._headers])
        dup._payload = self._payload
        trailers = self._trailers
        dup._trailers = tuple([t.copy() for t in trailers]) if trailers else ()
        dup._layout = self._layout
        meta = self.meta
        dup.meta = {
            key: value if type(value) in _SCALARS else copy.deepcopy(value)
            for key, value in meta.items()
        } if meta else {}
        dup.packet_id = next(_packet_ids)
        dup.buffer_len = self.buffer_len
        dup.frame_len = self.frame_len
        dup.wire_len = self.wire_len
        global _packets_created
        _packets_created += 1
        return dup

    def __repr__(self) -> str:
        names = "/".join(type(h).__name__.replace("Header", "") for h in self._headers)
        return (
            f"<Packet #{self.packet_id} {names or 'raw'} "
            f"payload={len(self._payload)}B frame={self.frame_len}B>"
        )
