"""``Packet.parse`` before the in-place decode (PR 23): slice, then unpack.

With the length rules the generated decoder added later: an IPv4
``total_length`` must cover the IPv4 header, and a UDP ``length`` must
cover the UDP header and fit the IPv4 payload.
"""

from __future__ import annotations

from repro.net.headers import ETHERTYPE_IPV4, EthernetHeader, HeaderError, Ipv4Header, UdpHeader
from repro.net.packet import Packet


def reference_parse(data: bytes) -> Packet:
    eth = EthernetHeader.unpack(data)
    headers = [eth]
    offset = EthernetHeader.LENGTH
    if eth.ethertype == ETHERTYPE_IPV4 and len(data) >= offset + Ipv4Header.LENGTH:
        ip = Ipv4Header.unpack(data[offset:])
        headers.append(ip)
        if ip.total_length < Ipv4Header.LENGTH:
            raise HeaderError(f"IPv4 total_length {ip.total_length} is shorter than its header")
        end = min(len(data), offset + ip.total_length)
        data = data[:end]
        offset += Ipv4Header.LENGTH
        if ip.protocol == Ipv4Header.PROTO_UDP and len(data) >= offset + UdpHeader.LENGTH:
            udp = UdpHeader.unpack(data[offset:])
            room = ip.total_length - Ipv4Header.LENGTH
            if not UdpHeader.LENGTH <= udp.length <= room:
                raise HeaderError(f"UDP length {udp.length} does not fit the IPv4 payload of {room} B")
            headers.append(udp)
            offset += UdpHeader.LENGTH
    return Packet(headers=headers, payload=data[offset:])
