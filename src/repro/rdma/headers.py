"""RoCEv2 header codecs: BTH, RETH, AETH, AtomicETH, AtomicAckETH, ICRC.

These are the headers a programmable switch must craft and parse to speak
one-sided RDMA with a commodity RNIC (§3–§4 of the paper).  All codecs
round-trip byte-exactly.  Sizes match the paper's overhead analysis: BTH is
12 B (so IPv4 + UDP + BTH = the 40 B the paper quotes for RoCEv2), RETH is
16 B, AtomicETH is 28 B.

Like the L2/L3 codecs in :mod:`repro.net.headers`, every header here is a
fixed-layout :class:`~repro.net.headers.Header`: ``__slots__`` fields, a
range-checking constructor and one :class:`~repro.net.headers.Wire`
statement from which ``pack``/``unpack`` and ``byte_len`` are compiled.
"""

from __future__ import annotations

import zlib
from typing import Dict, Optional, Tuple

from ..net.headers import Header, HeaderError, Wire
from .constants import Opcode


class GrhHeader(Header):
    """Global Route Header (40 bytes) — RoCEv1's routing layer.

    RoCEv1 frames are ``Ethernet / GRH / BTH / ...`` with ethertype 0x8915
    instead of IPv4+UDP, which is where the paper's "52 bytes in the case
    of RoCEv1" comes from (40 GRH + 12 BTH).  The v2 experiments don't use
    it, but the overhead harness serializes both framings.
    """

    __slots__ = (
        "src_gid",
        "dst_gid",
        "payload_length",
        "next_header",
        "hop_limit",
        "traffic_class",
        "flow_label",
    )
    WIRE = Wire(
        "IHBB16s16s",
        "word0 payload_length next_header hop_limit src_gid dst_gid",
        pack=("word0 = 6 << 28 | h.traffic_class << 20 | h.flow_label",),
        # ``16s`` would pad a short GID silently.
        spill="h.traffic_class >> 8 or h.flow_label >> 20 or len(h.src_gid) != 16 or len(h.dst_gid) != 16",
        unpack=(
            "if word0 >> 28 != 6: raise HeaderError('bad GRH IP version: %d' % (word0 >> 28))",
            "h.traffic_class = word0 >> 20 & 0xFF",
            "h.flow_label = word0 & 0xFFFFF",
        ),
    )

    def __init__(
        self,
        src_gid: bytes,
        dst_gid: bytes,
        payload_length: int = 0,
        next_header: int = 0x1B,  # IBA transport
        hop_limit: int = 64,
        traffic_class: int = 0,
        flow_label: int = 0,
    ) -> None:
        if len(src_gid) != 16 or len(dst_gid) != 16:
            raise HeaderError("GRH GIDs must be 16 bytes")
        if not 0 <= payload_length <= 0xFFFF:
            raise HeaderError(f"GRH payload length out of range: {payload_length}")
        if not 0 <= flow_label < (1 << 20):
            raise HeaderError(f"GRH flow label out of range: {flow_label}")
        self.src_gid = src_gid
        self.dst_gid = dst_gid
        self.payload_length = payload_length
        self.next_header = next_header
        self.hop_limit = hop_limit
        self.traffic_class = traffic_class
        self.flow_label = flow_label


def gid_from_ipv4(ip) -> bytes:
    """Build an IPv4-mapped GID (::ffff:a.b.c.d), as RoCEv1 NICs do."""
    return b"\x00" * 10 + b"\xff\xff" + ip.to_bytes()


class BthHeader(Header):
    """Base Transport Header (12 bytes) — present in every RoCE packet."""

    __slots__ = (
        "opcode",
        "dest_qp",
        "psn",
        "ack_request",
        "solicited_event",
        "migration_request",
        "pad_count",
        "partition_key",
    )
    WIRE = Wire(
        # The high byte of ``dest_qp``'s word is reserved; the transport
        # header version is 0 in the low nibble of ``flags``.
        "BBHII",
        "opcode flags partition_key dest_qp word3",
        pack=(
            "flags = (0x80 if h.solicited_event else 0) | (0x40 if h.migration_request else 0) | h.pad_count << 4",
            "word3 = (0x80000000 if h.ack_request else 0) | h.psn",
        ),
        spill="h.pad_count >> 2 or h.dest_qp >> 24 or h.psn >> 24",
        unpack=(
            "h.dest_qp = dest_qp & 0xFFFFFF",
            "h.psn = word3 & 0xFFFFFF",
            "h.ack_request = word3 >= 0x80000000",
            "h.solicited_event = flags & 0x80 != 0",
            "h.migration_request = flags & 0x40 != 0",
            "h.pad_count = flags >> 4 & 0x3",
        ),
    )

    def __init__(
        self,
        opcode: int,
        dest_qp: int,
        psn: int,
        ack_request: bool = False,
        solicited_event: bool = False,
        migration_request: bool = False,
        pad_count: int = 0,
        partition_key: int = 0xFFFF,
    ) -> None:
        if not 0 <= opcode <= 0xFF:
            raise HeaderError(f"BTH opcode out of range: {opcode}")
        if not 0 <= dest_qp < (1 << 24):
            raise HeaderError(f"BTH dest_qp out of range: {dest_qp}")
        if not 0 <= psn < (1 << 24):
            raise HeaderError(f"BTH psn out of range: {psn}")
        if not 0 <= pad_count <= 3:
            raise HeaderError(f"BTH pad_count out of range: {pad_count}")
        if not 0 <= partition_key <= 0xFFFF:
            raise HeaderError(f"BTH pkey out of range: {partition_key}")
        self.opcode = opcode
        self.dest_qp = dest_qp
        self.psn = psn
        self.ack_request = ack_request
        self.solicited_event = solicited_event
        self.migration_request = migration_request
        self.pad_count = pad_count
        self.partition_key = partition_key


class RethHeader(Header):
    """RDMA Extended Transport Header (16 bytes) — WRITE and READ requests."""

    __slots__ = ("virtual_address", "rkey", "dma_length")
    WIRE = Wire("QII", "virtual_address rkey dma_length")

    def __init__(self, virtual_address: int, rkey: int, dma_length: int) -> None:
        if not 0 <= virtual_address < (1 << 64):
            raise HeaderError(f"RETH VA out of range: {virtual_address}")
        if not 0 <= rkey < (1 << 32):
            raise HeaderError(f"RETH rkey out of range: {rkey}")
        if not 0 <= dma_length < (1 << 32):
            raise HeaderError(f"RETH length out of range: {dma_length}")
        self.virtual_address = virtual_address
        self.rkey = rkey
        self.dma_length = dma_length


class AtomicEthHeader(Header):
    """Atomic Extended Transport Header (28 bytes) — Fetch-and-Add / CAS."""

    __slots__ = ("virtual_address", "rkey", "swap_add", "compare")
    WIRE = Wire("QIQQ", "virtual_address rkey swap_add compare")

    def __init__(
        self, virtual_address: int, rkey: int, swap_add: int, compare: int = 0
    ) -> None:
        if not 0 <= virtual_address < (1 << 64):
            raise HeaderError(f"AtomicETH VA out of range: {virtual_address}")
        if not 0 <= rkey < (1 << 32):
            raise HeaderError(f"AtomicETH rkey out of range: {rkey}")
        if not 0 <= swap_add < (1 << 64):
            raise HeaderError(f"AtomicETH swap/add out of range: {swap_add}")
        if not 0 <= compare < (1 << 64):
            raise HeaderError(f"AtomicETH compare out of range: {compare}")
        self.virtual_address = virtual_address
        self.rkey = rkey
        self.swap_add = swap_add
        self.compare = compare


class AethHeader(Header):
    """ACK Extended Transport Header (4 bytes) — responses and ACK/NAK."""

    __slots__ = ("syndrome", "msn")
    WIRE = Wire(
        "I",
        "word",
        pack=("word = h.syndrome << 24 | h.msn",),
        spill="h.msn >> 24",
        unpack=("h.syndrome = word >> 24", "h.msn = word & 0xFFFFFF"),
    )

    def __init__(self, syndrome: int, msn: int = 0) -> None:
        if not 0 <= syndrome <= 0xFF:
            raise HeaderError(f"AETH syndrome out of range: {syndrome}")
        if not 0 <= msn < (1 << 24):
            raise HeaderError(f"AETH MSN out of range: {msn}")
        self.syndrome = syndrome
        self.msn = msn


class AtomicAckEthHeader(Header):
    """Atomic ACK ETH (8 bytes): the value read before the atomic applied."""

    __slots__ = ("original_data",)
    WIRE = Wire("Q", "original_data")

    def __init__(self, original_data: int) -> None:
        if not 0 <= original_data < (1 << 64):
            raise HeaderError(f"AtomicAckETH data out of range: {original_data}")
        self.original_data = original_data


class IcrcTrailer(Header):
    """Invariant CRC (4 bytes), appended after the RoCE payload.

    We compute a CRC32 over the packed RoCE headers and payload.  This is a
    simplification of the IB ICRC (which masks variant fields), but it is
    stable for our packets and lets tests detect corruption end to end.
    """

    __slots__ = ("value",)
    WIRE = Wire("I", "value", pack=("value = h.value & 0xFFFFFFFF",))

    def __init__(self, value: int = 0) -> None:
        self.value = value

    @classmethod
    def compute(cls, roce_bytes: bytes) -> "IcrcTrailer":
        """Compute the trailer over already-packed BTH..payload bytes."""
        return cls(value=zlib.crc32(roce_bytes))


# -- structured helpers -----------------------------------------------------

#: Extension headers keyed by the opcode that carries them (after the BTH).
_EXTENSIONS_BY_OPCODE = {
    Opcode.RDMA_WRITE_ONLY: (RethHeader,),
    Opcode.RDMA_WRITE_FIRST: (RethHeader,),
    Opcode.RDMA_READ_REQUEST: (RethHeader,),
    Opcode.FETCH_ADD: (AtomicEthHeader,),
    Opcode.COMPARE_SWAP: (AtomicEthHeader,),
    Opcode.RDMA_READ_RESPONSE_ONLY: (AethHeader,),
    Opcode.RDMA_READ_RESPONSE_FIRST: (AethHeader,),
    Opcode.RDMA_READ_RESPONSE_LAST: (AethHeader,),
    Opcode.ACKNOWLEDGE: (AethHeader,),
    Opcode.ATOMIC_ACKNOWLEDGE: (AethHeader, AtomicAckEthHeader),
}

#: Same table keyed by the raw opcode int — saves an Opcode() construction
#: plus try/except per parsed packet on the hot path.
_EXTENSIONS_BY_RAW_OPCODE: Dict[int, Tuple[type, ...]] = {
    int(op): exts for op, exts in _EXTENSIONS_BY_OPCODE.items()
}


def roce_headers_for(opcode: int) -> Tuple[type, ...]:
    """Return the extension-header types that follow the BTH for *opcode*."""
    return _EXTENSIONS_BY_RAW_OPCODE.get(opcode, ())


def parse_roce(
    data: bytes,
) -> Tuple[Tuple[Header, ...], bytes, Optional[IcrcTrailer]]:
    """Parse a UDP payload as RoCE: returns (headers, payload, icrc).

    ``headers`` is a stack slice like :attr:`Packet.headers` — a tuple that
    starts with the :class:`BthHeader` followed by its extension headers;
    ``payload`` is whatever sits between the last extension header and the
    4-byte ICRC trailer.
    """
    bth = BthHeader.unpack(data)
    headers = [bth]
    offset = BthHeader.LENGTH
    for ext_type in _EXTENSIONS_BY_RAW_OPCODE.get(bth.opcode, ()):
        headers.append(ext_type.unpack(data, offset))
        offset += ext_type.LENGTH
    end = len(data) - IcrcTrailer.LENGTH
    if end < offset:
        raise HeaderError("RoCE packet too short for ICRC trailer")
    payload = data[offset:end]
    icrc = IcrcTrailer.unpack(data, end)
    return tuple(headers), payload, icrc


def roce_packet_overhead(opcode: int, rocev1: bool = False) -> int:
    """Bytes of RoCE protocol overhead for *opcode* per the paper's §4.

    RoCEv2: IPv4 (20) + UDP (8) + BTH (12) = 40 bytes of routing/transport
    headers, plus the opcode's extension headers (16 for WRITE/READ via
    RETH, 28 for Fetch-and-Add via AtomicETH).  RoCEv1 replaces IPv4+UDP
    with the 40-byte GRH for 52 bytes of routing/transport headers.
    The ICRC trailer (4) is excluded, matching the paper's accounting.
    """
    transport = 52 if rocev1 else 40
    extensions = sum(
        ext.LENGTH
        for ext in roce_headers_for(opcode)
        if ext in (RethHeader, AtomicEthHeader)
    )
    return transport + extensions
