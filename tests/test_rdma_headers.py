"""Tests for RoCEv2 header codecs and the paper's overhead accounting."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.headers import HeaderError
from repro.rdma.constants import AethSyndrome, Opcode, psn_add, psn_distance
from repro.rdma.headers import (
    AethHeader,
    AtomicAckEthHeader,
    AtomicEthHeader,
    BthHeader,
    IcrcTrailer,
    RethHeader,
    parse_roce,
    roce_packet_overhead,
)

psns = st.integers(min_value=0, max_value=(1 << 24) - 1)
qpns = st.integers(min_value=0, max_value=(1 << 24) - 1)
vas = st.integers(min_value=0, max_value=(1 << 64) - 1)
rkeys = st.integers(min_value=0, max_value=(1 << 32) - 1)
u64 = st.integers(min_value=0, max_value=(1 << 64) - 1)


class TestBth:
    def test_length_is_12(self):
        bth = BthHeader(opcode=Opcode.RDMA_WRITE_ONLY, dest_qp=0x11, psn=0)
        assert len(bth.pack()) == BthHeader.LENGTH == 12

    def test_round_trip(self):
        bth = BthHeader(
            opcode=Opcode.FETCH_ADD,
            dest_qp=0xABCDEF,
            psn=0x123456,
            ack_request=True,
            solicited_event=True,
            pad_count=3,
        )
        assert BthHeader.unpack(bth.pack()) == bth

    @given(
        opcode=st.sampled_from(list(Opcode)),
        dest_qp=qpns,
        psn=psns,
        ack=st.booleans(),
    )
    def test_round_trip_property(self, opcode, dest_qp, psn, ack):
        bth = BthHeader(opcode=opcode, dest_qp=dest_qp, psn=psn, ack_request=ack)
        assert BthHeader.unpack(bth.pack()) == bth

    def test_psn_range_enforced(self):
        with pytest.raises(HeaderError):
            BthHeader(opcode=Opcode.RDMA_WRITE_ONLY, dest_qp=1, psn=1 << 24)


class TestExtensionHeaders:
    def test_reth_is_16_bytes(self):
        reth = RethHeader(virtual_address=0x1000, rkey=0x42, dma_length=1500)
        assert len(reth.pack()) == RethHeader.LENGTH == 16

    def test_atomic_eth_is_28_bytes(self):
        atomic = AtomicEthHeader(virtual_address=0x1000, rkey=0x42, swap_add=1)
        assert len(atomic.pack()) == AtomicEthHeader.LENGTH == 28

    def test_aeth_is_4_bytes(self):
        aeth = AethHeader(syndrome=AethSyndrome.ACK, msn=12)
        assert len(aeth.pack()) == AethHeader.LENGTH == 4

    def test_atomic_ack_is_8_bytes(self):
        ack = AtomicAckEthHeader(original_data=2**63)
        assert len(ack.pack()) == AtomicAckEthHeader.LENGTH == 8

    @given(va=vas, rkey=rkeys, length=st.integers(0, (1 << 32) - 1))
    def test_reth_round_trip(self, va, rkey, length):
        reth = RethHeader(virtual_address=va, rkey=rkey, dma_length=length)
        assert RethHeader.unpack(reth.pack()) == reth

    @given(va=vas, rkey=rkeys, add=u64, compare=u64)
    def test_atomic_round_trip(self, va, rkey, add, compare):
        atomic = AtomicEthHeader(
            virtual_address=va, rkey=rkey, swap_add=add, compare=compare
        )
        assert AtomicEthHeader.unpack(atomic.pack()) == atomic

    @given(syndrome=st.integers(0, 255), msn=psns)
    def test_aeth_round_trip(self, syndrome, msn):
        aeth = AethHeader(syndrome=syndrome, msn=msn)
        assert AethHeader.unpack(aeth.pack()) == aeth

    @given(value=u64)
    def test_atomic_ack_round_trip(self, value):
        ack = AtomicAckEthHeader(original_data=value)
        assert AtomicAckEthHeader.unpack(ack.pack()) == ack


class TestAethSyndrome:
    def test_ack_is_not_nak(self):
        assert not AethSyndrome.is_nak(AethSyndrome.ACK)

    @pytest.mark.parametrize("syndrome", sorted(AethSyndrome.NAK_SYNDROMES))
    def test_naks_detected(self, syndrome):
        assert AethSyndrome.is_nak(syndrome)


class TestPsnArithmetic:
    def test_wraparound(self):
        assert psn_add((1 << 24) - 1, 1) == 0

    def test_distance_forward(self):
        assert psn_distance(10, 15) == 5

    def test_distance_wraps(self):
        assert psn_distance((1 << 24) - 2, 3) == 5

    @given(a=psns, delta=st.integers(0, (1 << 24) - 1))
    def test_distance_inverts_add(self, a, delta):
        assert psn_distance(a, psn_add(a, delta)) == delta


class TestParseRoce:
    def test_write_request_parses(self):
        bth = BthHeader(opcode=Opcode.RDMA_WRITE_ONLY, dest_qp=0x22, psn=9)
        reth = RethHeader(virtual_address=0x5000, rkey=0x77, dma_length=4)
        payload = b"data"
        raw = bth.pack() + reth.pack() + payload
        raw += IcrcTrailer.compute(raw).pack()
        headers, parsed_payload, icrc = parse_roce(raw)
        assert headers == (bth, reth)
        assert parsed_payload == payload
        assert icrc == IcrcTrailer.compute(raw[:-4])

    def test_atomic_ack_parses(self):
        bth = BthHeader(opcode=Opcode.ATOMIC_ACKNOWLEDGE, dest_qp=0x22, psn=9)
        aeth = AethHeader(syndrome=AethSyndrome.ACK, msn=1)
        atomic_ack = AtomicAckEthHeader(original_data=41)
        raw = bth.pack() + aeth.pack() + atomic_ack.pack() + IcrcTrailer().pack()
        headers, payload, _ = parse_roce(raw)
        assert headers == (bth, aeth, atomic_ack)
        assert payload == b""

    def test_truncated_rejected(self):
        bth = BthHeader(opcode=Opcode.RDMA_READ_REQUEST, dest_qp=1, psn=0)
        with pytest.raises(HeaderError):
            parse_roce(bth.pack())  # missing RETH and ICRC


class TestPaperOverheadNumbers:
    """§4: RoCEv2 adds 40 B of headers (52 B RoCEv1) + 16 or 28 B per op."""

    def test_write_overhead_rocev2(self):
        assert roce_packet_overhead(Opcode.RDMA_WRITE_ONLY) == 40 + 16

    def test_read_overhead_rocev2(self):
        assert roce_packet_overhead(Opcode.RDMA_READ_REQUEST) == 40 + 16

    def test_fetch_add_overhead_rocev2(self):
        assert roce_packet_overhead(Opcode.FETCH_ADD) == 40 + 28

    def test_write_overhead_rocev1(self):
        assert roce_packet_overhead(Opcode.RDMA_WRITE_ONLY, rocev1=True) == 52 + 16
