"""Tests for the structured Packet model."""

import pytest

from repro.net.addresses import Ipv4Address, MacAddress
from repro.net.headers import (
    ETHERNET_MIN_FRAME,
    EthernetHeader,
    HeaderError,
    Ipv4Header,
    UdpHeader,
)
from repro.net.packet import Packet


def make_udp_packet(payload=b"x" * 100):
    return Packet(
        headers=[
            EthernetHeader(dst=MacAddress(2), src=MacAddress(1)),
            Ipv4Header(src=Ipv4Address("10.0.0.1"), dst=Ipv4Address("10.0.0.2")),
            UdpHeader(src_port=1234, dst_port=5678),
        ],
        payload=payload,
    )


def test_header_access_properties():
    packet = make_udp_packet()
    assert packet.eth.src == MacAddress(1)
    assert packet.ipv4.dst == Ipv4Address("10.0.0.2")
    assert packet.udp.dst_port == 5678


def test_require_missing_header_raises():
    packet = Packet(payload=b"raw")
    with pytest.raises(HeaderError):
        packet.require(EthernetHeader)
    assert packet.find(EthernetHeader) is None


def test_push_pop_header_order():
    packet = Packet(payload=b"")
    inner = UdpHeader(src_port=1, dst_port=2)
    outer = EthernetHeader(dst=MacAddress(1), src=MacAddress(2))
    packet.push(inner)
    packet.push(outer)
    assert packet.headers == (outer, inner)
    assert packet.pop() is outer


def test_lengths():
    packet = make_udp_packet(payload=b"y" * 1458)
    assert packet.header_len == 14 + 20 + 8
    # frame = headers + payload + FCS
    assert packet.frame_len == 42 + 1458 + 4
    assert packet.wire_len == packet.frame_len + 20
    assert packet.buffer_len == 42 + 1458


def test_minimum_frame_padding():
    tiny = make_udp_packet(payload=b"")
    assert tiny.frame_len == ETHERNET_MIN_FRAME


def test_fixup_lengths_makes_ip_and_udp_consistent():
    packet = make_udp_packet(payload=b"z" * 10)
    packet.fixup_lengths()
    assert packet.ipv4.total_length == 20 + 8 + 10
    assert packet.udp.length == 8 + 10


def test_pack_parse_round_trip():
    packet = make_udp_packet(payload=b"hello world!")
    parsed = Packet.parse(packet.pack())
    assert parsed.eth == packet.eth
    assert parsed.ipv4 == packet.ipv4
    assert parsed.udp == packet.udp
    assert parsed.payload == b"hello world!"


def test_parse_non_ip_keeps_payload_opaque():
    packet = Packet(
        headers=[EthernetHeader(dst=MacAddress(1), src=MacAddress(2), ethertype=0x88CC)],
        payload=b"lldp-ish",
    )
    parsed = Packet.parse(packet.pack())
    assert len(parsed.headers) == 1
    assert parsed.payload == b"lldp-ish"


def test_clone_is_deep_and_gets_new_id():
    packet = make_udp_packet()
    packet.meta["flow"] = 7
    twin = packet.clone()
    assert twin.packet_id != packet.packet_id
    assert twin.meta == packet.meta
    twin.ipv4.ttl = 1
    assert packet.ipv4.ttl != 1


def test_meta_does_not_affect_sizes():
    a = make_udp_packet()
    b = make_udp_packet()
    b.meta["annotation"] = "x" * 10_000
    assert a.frame_len == b.frame_len


def test_packet_ids_unique():
    ids = {make_udp_packet().packet_id for _ in range(100)}
    assert len(ids) == 100
