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

from contextlib import contextmanager
from typing import Iterator, Optional, Tuple

from ..net.addresses import Ipv4Address, MacAddress
from ..net.headers import (
    ETHERTYPE_ROCEV1,
    ROCEV2_UDP_PORT,
    EthernetHeader,
    Header,
    HeaderError,
    Ipv4Header,
    UdpHeader,
)
from ..net.packet import Packet
from .constants import AethSyndrome, Opcode
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
from .qp import QueuePair


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
    trailer = packet.find_trailer(IcrcTrailer)
    if trailer is None or trailer.value == 0:
        return True
    roce = packet.headers[packet.index_of(BthHeader) :]
    return _icrc_over(roce, packet.payload).value == trailer.value


def _icrc_over(roce: Tuple[Header, ...], payload: bytes) -> IcrcTrailer:
    """Compute the ICRC over the RoCE section: *roce* (BTH onward) + payload."""
    return IcrcTrailer.compute(b"".join([h.pack() for h in roce]) + payload)


#: The constant part of every RoCEv2 frame.  A builder copies these three
#: headers and patches addresses, source port and the two length fields —
#: the way the switch fills fields into a fixed header stack — instead of
#: constructing and re-validating three outer headers per packet.
_ETH = EthernetHeader(dst=MacAddress(0), src=MacAddress(0))
_IP = Ipv4Header(src=Ipv4Address(0), dst=Ipv4Address(0), protocol=Ipv4Header.PROTO_UDP)
_UDP = UdpHeader(src_port=0, dst_port=ROCEV2_UDP_PORT)
#: UDP source port of every request (responses mirror the request's).
_REQUEST_UDP_PORT = 49152


def _stamp(
    src_mac: MacAddress,
    dst_mac: MacAddress,
    src_ip: Ipv4Address,
    dst_ip: Ipv4Address,
    src_udp_port: int,
    roce: Tuple[Header, ...],
    payload: bytes,
    compute_icrc: bool,
) -> Packet:
    """Stamp one RoCEv2 packet: Eth/IPv4/UDP template, *roce* (BTH first), ICRC.

    The IPv4 and UDP lengths follow arithmetically from the opcode's
    extension headers and the payload length; nothing is re-walked.
    """
    eth = _ETH.copy()
    eth.dst = dst_mac
    eth.src = src_mac
    ip = _IP.copy()
    ip.src = src_ip
    ip.dst = dst_ip
    udp = _UDP.copy()
    udp.src_port = src_udp_port
    length = UdpHeader.LENGTH + len(payload) + IcrcTrailer.LENGTH
    for header in roce:
        length += header.byte_len
    udp.length = length
    ip.total_length = length = length + Ipv4Header.LENGTH
    if length > 0xFFFF:
        raise HeaderError(
            f"Ipv4Header.total_length cannot hold {length}: the RoCE payload "
            f"of {len(payload)} B does not fit one packet"
        )
    protect = compute_icrc or _default_compute_icrc
    icrc = _icrc_over(roce, payload) if protect else IcrcTrailer()
    return Packet((eth, ip, udp) + roce, payload, (icrc,))


def _request(
    qp: QueuePair,
    opcode: Opcode,
    psn: Optional[int],
    ack_request: bool,
    extension: Header,
    payload: bytes,
    compute_icrc: bool,
) -> Packet:
    if not qp.is_connected:
        raise RuntimeError(f"QP {qp.qpn} is not connected")
    bth = BthHeader(
        opcode=opcode,
        dest_qp=qp.dest_qpn,
        psn=qp.allocate_psn() if psn is None else psn,
        ack_request=ack_request,
    )
    return _stamp(
        qp.local_mac,
        qp.dest_mac,
        qp.local_ip,
        qp.dest_ip,
        _REQUEST_UDP_PORT,
        (bth, extension),
        payload,
        compute_icrc,
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
    reth = RethHeader(virtual_address=remote_address, rkey=rkey, dma_length=len(data))
    return _request(
        qp, Opcode.RDMA_WRITE_ONLY, psn, ack_request, reth, bytes(data), compute_icrc
    )


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
    return _request(qp, Opcode.RDMA_READ_REQUEST, psn, False, reth, b"", compute_icrc)


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
    return _request(qp, Opcode.FETCH_ADD, psn, False, atomic, b"", compute_icrc)


def _response(
    request: Packet,
    responder_qp: QueuePair,
    opcode: Opcode,
    psn: Optional[int],
    extensions: Tuple[Header, ...],
    payload: bytes,
    compute_icrc: bool,
) -> Packet:
    """Stamp a response addressed back at the requester of *request*."""
    req_eth = request.eth
    req_ip = request.ipv4
    bth = BthHeader(
        opcode=opcode,
        # Responses go to the requester's QP.
        dest_qp=responder_qp.dest_qpn if responder_qp.dest_qpn is not None else 0,
        psn=request.require(BthHeader).psn if psn is None else psn,
    )
    return _stamp(
        req_eth.dst,
        req_eth.src,
        req_ip.dst,
        req_ip.src,
        request.udp.src_port,
        (bth,) + extensions,
        payload,
        compute_icrc,
    )


def build_read_response(
    request: Packet,
    responder_qp: QueuePair,
    data: bytes,
    compute_icrc: bool = False,
) -> Packet:
    """READ response (only) carrying *data*, mirrored from *request*."""
    aeth = AethHeader(syndrome=AethSyndrome.ACK, msn=responder_qp.msn)
    return _response(
        request,
        responder_qp,
        Opcode.RDMA_READ_RESPONSE_ONLY,
        None,
        (aeth,),
        bytes(data),
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
    aeth = AethHeader(syndrome=syndrome, msn=responder_qp.msn)
    return _response(
        request,
        responder_qp,
        Opcode.ACKNOWLEDGE,
        psn_override,
        (aeth,),
        b"",
        compute_icrc,
    )


def build_atomic_ack(
    request: Packet,
    responder_qp: QueuePair,
    original_value: int,
    compute_icrc: bool = False,
) -> Packet:
    """Atomic acknowledgement carrying the pre-operation value."""
    extensions = (
        AethHeader(syndrome=AethSyndrome.ACK, msn=responder_qp.msn),
        AtomicAckEthHeader(original_data=original_value),
    )
    return _response(
        request,
        responder_qp,
        Opcode.ATOMIC_ACKNOWLEDGE,
        None,
        extensions,
        b"",
        compute_icrc,
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
