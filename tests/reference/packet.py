"""``Packet.parse`` before the in-place decode (PR 23): slice, then unpack."""

from __future__ import annotations

from repro.net.headers import ETHERTYPE_IPV4, EthernetHeader, Ipv4Header, UdpHeader
from repro.net.packet import Packet


def reference_parse(data: bytes) -> Packet:
    eth = EthernetHeader.unpack(data)
    headers = [eth]
    offset = EthernetHeader.LENGTH
    if eth.ethertype == ETHERTYPE_IPV4 and len(data) >= offset + Ipv4Header.LENGTH:
        ip = Ipv4Header.unpack(data[offset:])
        headers.append(ip)
        end = min(len(data), offset + ip.total_length)
        data = data[:end]
        offset += Ipv4Header.LENGTH
        if ip.protocol == Ipv4Header.PROTO_UDP and len(data) >= offset + UdpHeader.LENGTH:
            headers.append(UdpHeader.unpack(data[offset:]))
            offset += UdpHeader.LENGTH
    return Packet(headers=headers, payload=data[offset:])
