"""Packet factories for workload generators.

"Packet size" throughout the library (and in the paper's x-axes) means the
L2 frame size excluding FCS: Ethernet header + IP + UDP + payload.  The
smallest legal size is therefore 42 bytes of headers plus payload, and the
64 B point of Fig. 3 corresponds to a 22-byte payload.
"""

from __future__ import annotations

from typing import Optional

from ..hosts.server import Host
from ..net.headers import EthernetHeader, HeaderError, Ipv4Header, UdpHeader
from ..net.packet import Packet, packet_layout

#: Ethernet + IPv4 + UDP header bytes.
UDP_HEADER_BYTES = EthernetHeader.LENGTH + Ipv4Header.LENGTH + UdpHeader.LENGTH
_UDP_LAYOUT = packet_layout(EthernetHeader, Ipv4Header, UdpHeader)


def udp_between(
    src: Host,
    dst: Host,
    packet_size: int = 1500,
    src_port: int = 10_000,
    dst_port: int = 20_000,
    payload: Optional[bytes] = None,
    dscp: int = 0,
) -> Packet:
    """Build a UDP packet from *src* to *dst* of total frame size
    ``packet_size`` (headers included, FCS excluded)."""
    if payload is None:
        if packet_size < UDP_HEADER_BYTES:
            raise ValueError(
                f"packet size {packet_size} below header floor "
                f"{UDP_HEADER_BYTES}"
            )
        payload = b"\x00" * (packet_size - UDP_HEADER_BYTES)
    packet = Packet(
        headers=[
            EthernetHeader(dst=dst.eth.mac, src=src.eth.mac),
            Ipv4Header(src=src.eth.ip, dst=dst.eth.ip, dscp=dscp),
            UdpHeader(src_port=src_port, dst_port=dst_port),
        ],
        payload=payload,
    )
    packet.fixup_lengths()
    return packet


def stamp_ports(template: Packet, src_port: int, dst_port: int) -> Packet:
    """A copy of *template* (a :func:`udp_between` packet) for another flow.

    Generators build one template and stamp the per-packet UDP ports onto
    independent copies of its three headers; the payload bytes are shared
    and ``meta`` starts empty.  The ports are range-checked as the header
    constructor would, everything else was validated once with the template.
    """
    if not (0 <= src_port <= 0xFFFF and 0 <= dst_port <= 0xFFFF):
        raise HeaderError(f"UDP port out of range: {src_port}, {dst_port}")
    eth, ip, udp = template.headers
    udp = udp.copy()
    udp.src_port = src_port
    udp.dst_port = dst_port
    return Packet.stamped(
        _UDP_LAYOUT, (eth.copy(), ip.copy(), udp), template.payload, (), template.buffer_len
    )
