"""Tests for hash externs and flow keys."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.addresses import Ipv4Address, MacAddress
from repro.net.headers import EthernetHeader, Ipv4Header, UdpHeader
from repro.net.packet import Packet
from repro.switches.hashing import FiveTuple, crc16, crc32, flow_fingerprint


class TestCrc:
    def test_crc16_known_vector(self):
        # CRC-16/ARC of "123456789" is 0xBB3D.
        assert crc16(b"123456789") == 0xBB3D

    def test_crc32_known_vector(self):
        # CRC-32 of "123456789" is 0xCBF43926.
        assert crc32(b"123456789") == 0xCBF43926

    def test_empty_inputs(self):
        assert crc16(b"") == 0
        assert crc32(b"") == 0

    @given(st.binary(max_size=64))
    def test_crc16_deterministic_and_bounded(self, data):
        assert crc16(data) == crc16(data)
        assert 0 <= crc16(data) <= 0xFFFF


def two_crc16s(packed: bytes) -> int:
    """The flow fingerprint's reference definition."""
    return (crc16(packed) << 16) | crc16(packed[::-1])


class TestFlowFingerprint:
    """The per-position tables equal the two-CRC16 definition bit for bit."""

    @given(st.binary(min_size=13, max_size=13))
    def test_random_keys(self, packed):
        assert flow_fingerprint(packed) == two_crc16s(packed)

    @pytest.mark.parametrize("field", range(5))
    def test_five_tuple_extremes(self, field):
        """0 and the maximum of each field, the others all 0 or all maximal."""
        maxima = (2**32 - 1, 2**32 - 1, 255, 65535, 65535)
        for others in ((0,) * 5, maxima):
            for value in (0, maxima[field]):
                fields = list(others)
                fields[field] = value
                packed = FiveTuple(*fields).pack()
                assert flow_fingerprint(packed) == two_crc16s(packed)

    def test_known_vector_and_width(self):
        assert flow_fingerprint(bytes(13)) == 0
        packed = FiveTuple(0x0A000001, 0x0A000002, 17, 1000, 2000).pack()
        assert flow_fingerprint(packed) == two_crc16s(packed) < 2**32
        with pytest.raises(ValueError):
            flow_fingerprint(packed + b"\x00")  # a packed 5-tuple is 13 bytes


def make_packet(src="10.0.0.1", dst="10.0.0.2", sport=1000, dport=2000):
    return Packet(
        headers=[
            EthernetHeader(dst=MacAddress(2), src=MacAddress(1)),
            Ipv4Header(src=Ipv4Address(src), dst=Ipv4Address(dst)),
            UdpHeader(src_port=sport, dst_port=dport),
        ]
    )


class TestFiveTuple:
    def test_extraction(self):
        ft = FiveTuple.of(make_packet())
        assert ft.src_ip == Ipv4Address("10.0.0.1").value
        assert ft.protocol == 17
        assert (ft.src_port, ft.dst_port) == (1000, 2000)

    def test_same_flow_same_hash(self):
        a = FiveTuple.of(make_packet())
        b = FiveTuple.of(make_packet())
        assert a == b
        assert a.hash() == b.hash()

    def test_different_flows_differ(self):
        a = FiveTuple.of(make_packet(sport=1000))
        b = FiveTuple.of(make_packet(sport=1001))
        assert a != b

    def test_hash_width(self):
        ft = FiveTuple.of(make_packet())
        assert 0 <= ft.hash(width_bits=10) < 1024

    def test_non_udp_packet_zero_ports(self):
        packet = Packet(
            headers=[
                EthernetHeader(dst=MacAddress(2), src=MacAddress(1)),
                Ipv4Header(
                    src=Ipv4Address("10.0.0.1"),
                    dst=Ipv4Address("10.0.0.2"),
                    protocol=6,
                ),
            ]
        )
        ft = FiveTuple.of(packet)
        assert (ft.src_port, ft.dst_port) == (0, 0)

    def test_usable_as_dict_key(self):
        cache = {FiveTuple.of(make_packet()): "entry"}
        assert cache[FiveTuple.of(make_packet())] == "entry"
