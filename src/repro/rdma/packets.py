"""Builders for complete RoCEv2 packets.

Shared by the RNIC (responses), the native host requester (baseline), and —
crucially — the switch data plane (:mod:`repro.core.rocegen`), which crafts
exactly these packets out of P4 actions on real hardware.

All builders produce structured :class:`~repro.net.packet.Packet` objects
with an Ethernet/IPv4/UDP/BTH stack and an ICRC trailer.  By default the
ICRC value is left zero (computing CRC32 per simulated packet is wasted
work); pass ``compute_icrc=True`` where integrity actually matters, or
flip the process-wide default with :func:`set_integrity_default` /
:func:`integrity_protected` for runs that inject bit corruption — a
zero-valued trailer is *unprotected* and corruption of such a packet is
silent, which is exactly what the end-to-end ICRC regression test
demonstrates (see DESIGN.md §10).
"""

from __future__ import annotations

import zlib
from contextlib import contextmanager
from typing import Iterator, Optional, Tuple

from ..net.addresses import Ipv4Address, MacAddress
from ..net.headers import (
    ETHERTYPE_IPV4,
    ETHERTYPE_ROCEV1,
    ROCEV2_UDP_PORT,
    EthernetHeader,
    Header,
    HeaderError,
    Ipv4Header,
    UdpHeader,
)
from ..net.packet import Packet, packet_layout
from .constants import PSN_MODULO, AethSyndrome, Opcode
from .headers import (
    AethHeader,
    AtomicAckEthHeader,
    AtomicEthHeader,
    BthHeader,
    GrhHeader,
    IcrcTrailer,
    RethHeader,
    gid_from_ipv4,
)
from .qp import QpState, QueuePair

_crc32 = zlib.crc32
_new = object.__new__

#: Process-wide default for the builders' ``compute_icrc`` parameter.
#: False keeps the fast path free of per-packet CRC32; chaos runs with
#: corruption faults flip it on so the receivers can actually detect
#: damage (LinkGuardian's premise: corruption is *detected* loss).
_default_compute_icrc = False


def set_integrity_default(enabled: bool) -> bool:
    """Set whether builders compute real ICRCs by default; returns the old value."""
    global _default_compute_icrc
    previous = _default_compute_icrc
    _default_compute_icrc = bool(enabled)
    return previous


@contextmanager
def integrity_protected(enabled: bool = True) -> Iterator[None]:
    """Scope within which every built RoCE packet carries a real ICRC."""
    previous = set_integrity_default(enabled)
    try:
        yield
    finally:
        set_integrity_default(previous)


def verify_icrc(packet: Packet) -> bool:
    """Check *packet*'s ICRC; True when intact or unprotected.

    A missing trailer or a zero value means the sender never computed an
    ICRC (the simulation default) — such packets are accepted, keeping
    the fast path unchanged.  A nonzero value is recomputed over the
    RoCE section (BTH onward, as the builders do); a mismatch means the
    packet was damaged in flight and the receiver must drop it, turning
    corruption into loss for the retransmission machinery to repair.
    """
    # The trailer stack read in place: an unprotected frame, the common
    # case, costs no call beyond this one.
    for trailer in packet._trailers:
        if type(trailer) is IcrcTrailer:
            break
    else:
        return True
    if not trailer.value:
        return True
    # The builders' running CRC32, over the headers as they stand now.
    crc = 0
    for header in packet.headers[packet.index_of(BthHeader) :]:
        crc = _crc32(header.pack(), crc)
    return _crc32(packet.payload, crc) == trailer.value


#: UDP source port of every request (responses mirror the request's).
_REQUEST_UDP_PORT = 49152


def _shape(opcode: Opcode, *extensions: type) -> Tuple[int, object, int]:
    """What every packet of *opcode* has in common: the raw opcode, the
    packet layout of its stack and its size with no payload."""
    layout = packet_layout(EthernetHeader, Ipv4Header, UdpHeader, BthHeader, *extensions)
    return int(opcode), layout, layout.header_len + IcrcTrailer.LENGTH


# The six packets of this one-packet RC subset.
_WRITE = _shape(Opcode.RDMA_WRITE_ONLY, RethHeader)
_READ = _shape(Opcode.RDMA_READ_REQUEST, RethHeader)
_FETCH_ADD = _shape(Opcode.FETCH_ADD, AtomicEthHeader)
_READ_RESPONSE = _shape(Opcode.RDMA_READ_RESPONSE_ONLY, AethHeader)
_ACK = _shape(Opcode.ACKNOWLEDGE, AethHeader)
_ATOMIC_ACK = _shape(Opcode.ATOMIC_ACKNOWLEDGE, AethHeader, AtomicAckEthHeader)

#: The most a READ may ask for: what one response packet can carry
#: (65 535 less IPv4 20, UDP 8, BTH 12, AETH 4 and ICRC 4 = 65 487 B).
MAX_READ_BYTES = 0xFFFF - (_READ_RESPONSE[2] - EthernetHeader.LENGTH)
#: The most one WRITE may carry (its RETH is 12 B more than an AETH).
MAX_WRITE_BYTES = 0xFFFF - (_WRITE[2] - EthernetHeader.LENGTH)


def _stamp(
    qp: QueuePair,
    shape: Tuple[int, object, int],
    psn: int,
    ack_request: bool,
    src_mac: MacAddress,
    dst_mac: MacAddress,
    src_ip: Ipv4Address,
    dst_ip: Ipv4Address,
    src_udp_port: int,
    extensions: Tuple[Header, ...],
    payload: bytes,
    compute_icrc: bool,
) -> Packet:
    """Stamp one RoCEv2 packet of *shape* that *qp* sends, in one pass.

    Eth/IPv4/UDP/BTH are filled slot by slot, each slot once, as the
    switch fills a fixed header stack: from the arguments, the QP's peer
    (``dest_qpn``, range-checked once by ``qp.connect()``), the shape's
    opcode, *psn* (QP state, or checked by the caller) and *ack_request*,
    or a constant of every RoCEv2 frame (the constructors' defaults).  No
    template is copied and nothing is range-checked here.  Each packet
    owns its headers: the TM's ECN marking and the layout packer's length
    fields write into them.  Every length follows arithmetically from the
    shape and the payload length; nothing is re-walked.
    """
    opcode, layout, size = shape
    size += len(payload)
    ip_len = size - EthernetHeader.LENGTH
    if ip_len > 0xFFFF:
        raise HeaderError(
            f"Ipv4Header.total_length cannot hold {ip_len}: "
            f"the RoCE payload of {len(payload)} B does not fit one packet"
        )
    eth = _new(EthernetHeader)
    eth.dst = dst_mac
    eth.src = src_mac
    eth.ethertype = ETHERTYPE_IPV4
    ip = _new(Ipv4Header)
    ip.src = src_ip
    ip.dst = dst_ip
    ip.protocol = 17  # UDP
    ip.total_length = ip_len
    ip.ttl = 64
    ip.dscp = 0
    ip.ecn = 0
    ip.identification = 0
    ip.flags = 0b010  # don't fragment
    ip.fragment_offset = 0
    udp = _new(UdpHeader)
    udp.src_port = src_udp_port
    udp.dst_port = ROCEV2_UDP_PORT
    udp.length = ip_len - Ipv4Header.LENGTH
    udp.checksum = 0
    bth = _new(BthHeader)
    bth.opcode = opcode
    bth.dest_qp = qp.dest_qpn
    bth.psn = psn
    bth.ack_request = ack_request
    bth.solicited_event = False
    bth.migration_request = False
    bth.pad_count = 0
    bth.partition_key = 0xFFFF  # the default partition
    icrc = _new(IcrcTrailer)
    icrc.value = 0
    if compute_icrc or _default_compute_icrc:
        # One running CRC32 over BTH, extensions and payload: the bytes
        # are never joined into a copy of the packet (see verify_icrc).
        crc = _crc32(bth.pack())
        for header in extensions:
            crc = _crc32(header.pack(), crc)
        icrc.value = _crc32(payload, crc)
    return Packet.stamped(
        layout, (eth, ip, udp, bth) + extensions, payload, (icrc,), size
    )


def _request(
    qp: QueuePair,
    shape: Tuple[int, object, int],
    psn: Optional[int],
    ack_request: bool,
    extension: Header,
    payload: bytes,
    compute_icrc: bool,
) -> Packet:
    if qp.state is not QpState.RTS or qp.dest_qpn is None:
        raise RuntimeError(f"QP {qp.qpn} is not connected")
    if psn is None:  # qp.allocate_psn(), inline
        psn = qp.next_psn
        qp.next_psn = (psn + 1) % PSN_MODULO
    elif not 0 <= psn < PSN_MODULO:
        raise HeaderError(f"BTH psn out of range: {psn}")
    return _stamp(
        qp, shape, psn, ack_request,
        qp.local_mac, qp.dest_mac, qp.local_ip, qp.dest_ip, _REQUEST_UDP_PORT,
        (extension,), payload, compute_icrc,
    )


def build_write_request(
    qp: QueuePair,
    remote_address: int,
    rkey: int,
    data: bytes,
    psn: Optional[int] = None,
    ack_request: bool = True,
    compute_icrc: bool = False,
) -> Packet:
    """RDMA WRITE (only) request carrying *data* to ``remote_address``."""
    if type(data) is not bytes:
        data = bytes(data)
    reth = RethHeader(virtual_address=remote_address, rkey=rkey, dma_length=len(data))
    return _request(qp, _WRITE, psn, ack_request, reth, data, compute_icrc)


def build_read_request(
    qp: QueuePair,
    remote_address: int,
    rkey: int,
    length: int,
    psn: Optional[int] = None,
    compute_icrc: bool = False,
) -> Packet:
    """RDMA READ request for *length* bytes at ``remote_address``."""
    reth = RethHeader(virtual_address=remote_address, rkey=rkey, dma_length=length)
    return _request(qp, _READ, psn, False, reth, b"", compute_icrc)


def build_fetch_add_request(
    qp: QueuePair,
    remote_address: int,
    rkey: int,
    add_value: int,
    psn: Optional[int] = None,
    compute_icrc: bool = False,
) -> Packet:
    """RDMA atomic Fetch-and-Add of *add_value* at ``remote_address``."""
    atomic = AtomicEthHeader(
        virtual_address=remote_address, rkey=rkey, swap_add=add_value
    )
    return _request(qp, _FETCH_ADD, psn, False, atomic, b"", compute_icrc)


def _response(
    request: Packet,
    responder_qp: QueuePair,
    shape: Tuple[int, object, int],
    psn: Optional[int],
    syndrome: int,
    extensions: Tuple[Header, ...],
    payload: bytes,
    compute_icrc: bool,
) -> Packet:
    """Stamp a response addressed back at the requester of *request*; it
    opens with an AETH of *syndrome* (a constant, or checked by
    :func:`build_ack`) and the QP's MSN, then *extensions*.  Its PSN is
    *psn*, or the request's when that is None."""
    req_eth = request.require(EthernetHeader)
    req_ip = request.require(Ipv4Header)
    if psn is None:
        psn = request.require(BthHeader).psn
    elif not 0 <= psn < PSN_MODULO:
        raise HeaderError(f"BTH psn out of range: {psn}")
    aeth = _new(AethHeader)
    aeth.syndrome = syndrome
    aeth.msn = responder_qp.msn
    return _stamp(
        responder_qp, shape, psn, False,  # its dest_qpn is the requester's QP
        req_eth.dst, req_eth.src, req_ip.dst, req_ip.src,
        request.require(UdpHeader).src_port,
        (aeth,) + extensions, payload, compute_icrc,
    )


def build_read_response(
    request: Packet,
    responder_qp: QueuePair,
    data: bytes,
    compute_icrc: bool = False,
    psn_override: Optional[int] = None,
) -> Packet:
    """READ response (only) carrying *data*, mirrored from *request*.

    A responder that holds the request's BTH passes its PSN as
    ``psn_override``, which saves looking the BTH up again.
    """
    if type(data) is not bytes:
        data = bytes(data)
    return _response(
        request, responder_qp, _READ_RESPONSE, psn_override, AethSyndrome.ACK, (), data,
        compute_icrc,
    )


def build_ack(
    request: Packet,
    responder_qp: QueuePair,
    syndrome: int = AethSyndrome.ACK,
    psn_override: Optional[int] = None,
    compute_icrc: bool = False,
) -> Packet:
    """ACK or NAK (per *syndrome*) for *request*.

    A PSN-sequence-error NAK carries the responder's *expected* PSN in the
    BTH (``psn_override``), which is how a real requester learns where to
    resume — the primitives use it to resynchronize their soft QPs.
    """
    if not 0 <= syndrome <= 0xFF:
        raise HeaderError(f"AETH syndrome out of range: {syndrome}")
    return _response(
        request, responder_qp, _ACK, psn_override, syndrome, (), b"", compute_icrc
    )


def build_atomic_ack(
    request: Packet,
    responder_qp: QueuePair,
    original_value: int,
    compute_icrc: bool = False,
    psn_override: Optional[int] = None,
) -> Packet:
    """Atomic acknowledgement carrying the pre-operation value; see
    :func:`build_read_response` for ``psn_override``."""
    if not 0 <= original_value < (1 << 64):
        raise HeaderError(f"AtomicAckETH data out of range: {original_value}")
    atomic_ack = _new(AtomicAckEthHeader)  # the constructor's check, made above
    atomic_ack.original_data = original_value
    return _response(
        request, responder_qp, _ATOMIC_ACK, psn_override, AethSyndrome.ACK,
        (atomic_ack,), b"", compute_icrc,
    )


def convert_to_rocev1(packet: Packet) -> Packet:
    """Reframe a RoCEv2 packet as RoCEv1 (Ethernet / GRH / BTH ...).

    RoCEv1 replaces the IPv4+UDP pair (28 B) with a 40 B Global Route
    Header under ethertype 0x8915 — the origin of the paper's "52 bytes in
    the case of RoCEv1".  Returns a new packet; the input is not modified.
    """
    v1 = packet.clone()
    eth = v1.eth
    ip = v1.ipv4
    for _ in range(v1.index_of(BthHeader)):
        v1.pop()
    grh = GrhHeader(
        src_gid=gid_from_ipv4(ip.src),
        dst_gid=gid_from_ipv4(ip.dst),
        # Everything after the GRH, ICRC included.
        payload_length=v1.buffer_len,
        hop_limit=ip.ttl,
    )
    v1.push(grh)
    v1.push(EthernetHeader(dst=eth.dst, src=eth.src, ethertype=ETHERTYPE_ROCEV1))
    return v1
