"""Tests for the RoCE packet builders (request/response assembly)."""

import pytest

from repro.net.addresses import Ipv4Address, MacAddress
from repro.net.headers import ROCEV2_UDP_PORT, HeaderError
from repro.rdma.constants import AethSyndrome, Opcode
from repro.rdma.headers import (
    AethHeader,
    AtomicAckEthHeader,
    AtomicEthHeader,
    BthHeader,
    IcrcTrailer,
    RethHeader,
    parse_roce,
)
from repro.rdma.packets import (
    build_ack,
    build_atomic_ack,
    build_fetch_add_request,
    build_read_request,
    build_read_response,
    build_write_request,
)
from repro.rdma.qp import QueuePair
from repro.rdma.verbs import connect_qps


@pytest.fixture
def qps():
    a = QueuePair(0x100, Ipv4Address("10.0.0.1"), MacAddress(1))
    b = QueuePair(0x200, Ipv4Address("10.0.0.2"), MacAddress(2))
    connect_qps(a, b)
    return a, b


class TestRequestBuilders:
    def test_write_request_structure(self, qps):
        a, b = qps
        packet = build_write_request(a, 0x4000, 0x42, b"hello")
        assert packet.udp.dst_port == ROCEV2_UDP_PORT
        bth = packet.require(BthHeader)
        assert bth.opcode == Opcode.RDMA_WRITE_ONLY
        assert bth.dest_qp == b.qpn
        reth = packet.require(RethHeader)
        assert reth.virtual_address == 0x4000
        assert reth.dma_length == 5
        assert packet.payload == b"hello"
        assert [type(trailer) for trailer in packet.trailers] == [IcrcTrailer]

    def test_psns_sequence_per_qp(self, qps):
        a, b = qps
        p1 = build_write_request(a, 0, 1, b"x")
        p2 = build_read_request(a, 0, 1, 4)
        p3 = build_fetch_add_request(a, 0, 1, 9)
        psns = [p.require(BthHeader).psn for p in (p1, p2, p3)]
        assert psns == [0, 1, 2]

    def test_explicit_psn_does_not_advance_qp(self, qps):
        a, b = qps
        build_write_request(a, 0, 1, b"x", psn=99)
        assert a.next_psn == 0

    def test_disconnected_qp_rejected(self):
        lonely = QueuePair(0x300, Ipv4Address("10.0.0.3"), MacAddress(3))
        with pytest.raises(RuntimeError):
            build_write_request(lonely, 0, 1, b"x")

    def test_addresses_come_from_qp_identity(self, qps):
        a, b = qps
        packet = build_read_request(a, 0x10, 0x5, 8)
        assert packet.eth.src == a.local_mac
        assert packet.eth.dst == b.local_mac
        assert packet.ipv4.src == a.local_ip
        assert packet.ipv4.dst == b.local_ip

    def test_serialized_request_parses_as_roce(self, qps):
        a, _ = qps
        packet = build_fetch_add_request(a, 0x4008, 0x9, 3, compute_icrc=True)
        raw = packet.pack()
        headers, payload, icrc = parse_roce(raw[42:])
        assert isinstance(headers[0], BthHeader)
        assert isinstance(headers[1], AtomicEthHeader)
        assert headers[1].swap_add == 3
        assert icrc == IcrcTrailer.compute(raw[42:-4])


class TestResponseBuilders:
    def test_read_response_mirrors_addressing(self, qps):
        a, b = qps
        request = build_read_request(a, 0x20, 0x5, 16)
        response = build_read_response(request, b, b"y" * 16)
        assert response.eth.src == request.eth.dst
        assert response.eth.dst == request.eth.src
        assert response.ipv4.dst == request.ipv4.src
        bth = response.require(BthHeader)
        assert bth.opcode == Opcode.RDMA_READ_RESPONSE_ONLY
        assert bth.dest_qp == a.qpn          # back to the requester's QP
        assert bth.psn == request.require(BthHeader).psn
        assert response.payload == b"y" * 16

    def test_ack_carries_syndrome_and_msn(self, qps):
        a, b = qps
        b.msn = 7
        request = build_write_request(a, 0, 1, b"z")
        ack = build_ack(request, b)
        aeth = ack.require(AethHeader)
        assert aeth.syndrome == AethSyndrome.ACK
        assert aeth.msn == 7

    def test_nak_psn_override(self, qps):
        a, b = qps
        request = build_write_request(a, 0, 1, b"z", psn=50)
        nak = build_ack(
            request, b,
            syndrome=AethSyndrome.NAK_PSN_SEQUENCE_ERROR,
            psn_override=44,
        )
        assert nak.require(BthHeader).psn == 44

    def test_atomic_ack_carries_original(self, qps):
        a, b = qps
        request = build_fetch_add_request(a, 0, 1, 5)
        ack = build_atomic_ack(request, b, original_value=123456789)
        assert ack.require(BthHeader).opcode == Opcode.ATOMIC_ACKNOWLEDGE
        assert ack.require(AtomicAckEthHeader).original_data == 123456789

    def test_response_lengths_consistent(self, qps):
        a, b = qps
        request = build_read_request(a, 0, 1, 100)
        response = build_read_response(request, b, b"d" * 100)
        raw = response.pack()
        # IPv4 total_length covers IP..ICRC.
        assert response.ipv4.total_length == len(raw) - 14
