"""Mutate-then-repack correctness for the header codecs.

Headers are fixed-layout slotted objects whose ``pack()`` always
serialises the current field values (there is no cached serialisation;
the file and class names date from when there was one).  These tests pin
the contract everything above the codecs relies on:

* ``pack()`` after any field mutation reflects the new value, including
  on a header that was built by ``unpack()``;
* re-assigning the *same* value, or packing twice, gives the same bytes;
* ``pack``/``unpack`` round-trips stay exact;
* a clone is independent of its source, headers and payload alike.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.net.addresses import Ipv4Address, MacAddress
from repro.net.headers import EthernetHeader, Ipv4Header, UdpHeader
from repro.rdma.headers import (
    AethHeader,
    AtomicAckEthHeader,
    AtomicEthHeader,
    BthHeader,
    IcrcTrailer,
    RethHeader,
)

macs = st.integers(min_value=0, max_value=(1 << 48) - 1).map(MacAddress)
ips = st.integers(min_value=0, max_value=(1 << 32) - 1).map(Ipv4Address)


class TestCacheInvalidation:
    def test_mutate_after_pack_repacks(self):
        ip = Ipv4Header(src=Ipv4Address("10.0.0.1"), dst=Ipv4Address("10.0.0.2"))
        before = ip.pack()
        ip.ttl = 7
        after = ip.pack()
        assert after != before
        assert Ipv4Header.unpack(after).ttl == 7

    def test_same_value_assignment_keeps_cache(self):
        ip = Ipv4Header(src=Ipv4Address("10.0.0.1"), dst=Ipv4Address("10.0.0.2"))
        first = ip.pack()
        ip.ttl = ip.ttl  # a no-op rewrite, e.g. fixup_lengths re-stamping
        assert ip.pack() == first

    def test_repeated_pack_is_cached(self):
        bth = BthHeader(opcode=0x0A, dest_qp=5, psn=9)
        assert bth.pack() == bth.pack() == BthHeader.unpack(bth.pack()).pack()

    def test_mutate_after_unpack_repacks(self):
        raw = BthHeader(opcode=0x0A, dest_qp=5, psn=9).pack()
        bth = BthHeader.unpack(raw)
        assert bth.pack() == raw
        bth.psn = 10
        assert bth.pack() != raw
        assert BthHeader.unpack(bth.pack()).psn == 10

    def test_every_ipv4_field_invalidates(self):
        mutations = {
            "ttl": 9,
            "protocol": 6,
            "total_length": 99,
            "dscp": 11,
            "ecn": 1,
            "identification": 0x1234,
            "flags": 0,
            "fragment_offset": 100,
            "src": Ipv4Address("192.168.0.1"),
            "dst": Ipv4Address("192.168.0.2"),
        }
        for field, value in mutations.items():
            ip = Ipv4Header(
                src=Ipv4Address("10.0.0.1"), dst=Ipv4Address("10.0.0.2")
            )
            before = ip.pack()
            setattr(ip, field, value)
            after = ip.pack()
            assert after != before, f"mutating {field} did not invalidate"
            assert getattr(Ipv4Header.unpack(after), field) == value

    def test_checksum_tracks_mutation(self):
        ip = Ipv4Header(src=Ipv4Address("10.0.0.1"), dst=Ipv4Address("10.0.0.2"))
        ip.pack()
        ip.identification = 0xBEEF
        # unpack verifies the checksum, so a stale checksum would raise.
        assert Ipv4Header.unpack(ip.pack()).identification == 0xBEEF

    def test_udp_length_stamp(self):
        udp = UdpHeader(src_port=1, dst_port=2)
        udp.pack()
        udp.length = 42
        assert UdpHeader.unpack(udp.pack()).length == 42

    def test_icrc_compute_memoized_and_correct(self):
        import zlib

        payload = b"payload" * 11
        a = IcrcTrailer.compute(payload)
        b = IcrcTrailer.compute(payload)
        assert a.value == b.value == zlib.crc32(payload) & 0xFFFFFFFF
        assert IcrcTrailer.compute(payload + b"x").value != a.value


class TestRoundTripProperties:
    @given(dst=macs, src=macs, ethertype=st.integers(0, 0xFFFF))
    def test_ethernet(self, dst, src, ethertype):
        eth = EthernetHeader(dst=dst, src=src, ethertype=ethertype)
        again = EthernetHeader.unpack(eth.pack())
        assert again == eth
        assert again.pack() == eth.pack()

    @given(
        src=ips,
        dst=ips,
        ttl=st.integers(0, 255),
        total_length=st.integers(20, 0xFFFF),
        identification=st.integers(0, 0xFFFF),
        dscp=st.integers(0, 0x3F),
        ecn=st.integers(0, 3),
    )
    def test_ipv4(self, src, dst, ttl, total_length, identification, dscp, ecn):
        ip = Ipv4Header(
            src=src,
            dst=dst,
            ttl=ttl,
            total_length=total_length,
            identification=identification,
            dscp=dscp,
            ecn=ecn,
        )
        again = Ipv4Header.unpack(ip.pack())
        assert again == ip
        assert again.pack() == ip.pack()

    @given(
        src_port=st.integers(0, 0xFFFF),
        dst_port=st.integers(0, 0xFFFF),
        length=st.integers(0, 0xFFFF),
    )
    def test_udp(self, src_port, dst_port, length):
        udp = UdpHeader(src_port=src_port, dst_port=dst_port, length=length)
        assert UdpHeader.unpack(udp.pack()) == udp

    @given(
        opcode=st.integers(0, 0xFF),
        dest_qp=st.integers(0, (1 << 24) - 1),
        psn=st.integers(0, (1 << 24) - 1),
        ack_request=st.booleans(),
        pad_count=st.integers(0, 3),
    )
    def test_bth(self, opcode, dest_qp, psn, ack_request, pad_count):
        bth = BthHeader(
            opcode=opcode,
            dest_qp=dest_qp,
            psn=psn,
            ack_request=ack_request,
            pad_count=pad_count,
        )
        assert BthHeader.unpack(bth.pack()) == bth

    @given(
        va=st.integers(0, (1 << 64) - 1),
        rkey=st.integers(0, (1 << 32) - 1),
        dma_length=st.integers(0, (1 << 32) - 1),
    )
    def test_reth(self, va, rkey, dma_length):
        reth = RethHeader(virtual_address=va, rkey=rkey, dma_length=dma_length)
        assert RethHeader.unpack(reth.pack()) == reth

    @given(
        va=st.integers(0, (1 << 64) - 1),
        rkey=st.integers(0, (1 << 32) - 1),
        swap_add=st.integers(0, (1 << 64) - 1),
        compare=st.integers(0, (1 << 64) - 1),
    )
    def test_atomic_eth(self, va, rkey, swap_add, compare):
        ath = AtomicEthHeader(
            virtual_address=va, rkey=rkey, swap_add=swap_add, compare=compare
        )
        assert AtomicEthHeader.unpack(ath.pack()) == ath

    @given(syndrome=st.integers(0, 0xFF), msn=st.integers(0, (1 << 24) - 1))
    def test_aeth(self, syndrome, msn):
        aeth = AethHeader(syndrome=syndrome, msn=msn)
        assert AethHeader.unpack(aeth.pack()) == aeth

    @given(value=st.integers(0, (1 << 64) - 1))
    def test_atomic_ack(self, value):
        ack = AtomicAckEthHeader(original_data=value)
        assert AtomicAckEthHeader.unpack(ack.pack()) == ack

    @given(
        psn=st.integers(0, (1 << 24) - 1),
        new_psn=st.integers(0, (1 << 24) - 1),
    )
    def test_mutate_after_pack_round_trips(self, psn, new_psn):
        """The invalidation property, for arbitrary values."""
        bth = BthHeader(opcode=0x0A, dest_qp=1, psn=psn)
        bth.pack()
        bth.psn = new_psn
        assert BthHeader.unpack(bth.pack()).psn == new_psn


def _roce_packet(psn: int, payload: bytes, dscp: int = 0):
    from repro.net.packet import Packet

    return Packet(
        headers=[
            EthernetHeader(dst=MacAddress(2), src=MacAddress(1)),
            Ipv4Header(
                src=Ipv4Address("10.0.0.1"), dst=Ipv4Address("10.0.0.2"),
                dscp=dscp,
            ),
            UdpHeader(src_port=1000, dst_port=4791),
            BthHeader(opcode=0x0A, dest_qp=0x11, psn=psn),
            RethHeader(virtual_address=0x1000, rkey=0x42, dma_length=len(payload)),
        ],
        payload=payload,
        trailers=[IcrcTrailer()],
    )


class TestCloneIndependence:
    """A clone shares nothing mutable with its source: header objects are
    copied slot for slot, and only the immutable payload bytes are shared."""

    @given(
        psn=st.integers(0, (1 << 24) - 1),
        new_psn=st.integers(0, (1 << 24) - 1),
        dscp=st.integers(0, 0x3F),
    )
    def test_mutating_a_clone_never_touches_the_source(self, psn, new_psn, dscp):
        source = _roce_packet(psn, b"payload", dscp=dscp)
        source_raw = source.pack()
        clone = source.clone()
        assert clone.pack() == source_raw
        assert clone.packet_id != source.packet_id
        # Mutating the clone's header shows in its bytes...
        clone.require(BthHeader).psn = new_psn
        assert BthHeader.unpack(clone.pack()[42:54]).psn == new_psn
        # ...and never touches the source's headers or bytes.
        assert source.require(BthHeader).psn == psn
        assert source.pack() == source_raw

    @given(
        payload=st.binary(min_size=0, max_size=64),
        other_payload=st.binary(min_size=0, max_size=64),
    )
    def test_clone_shares_no_header_and_keeps_its_own_payload(
        self, payload, other_payload
    ):
        source = _roce_packet(7, payload)
        clone = source.clone()
        assert clone.headers == source.headers
        assert clone.trailers == source.trailers
        for mine, theirs in zip(
            clone.headers + clone.trailers, source.headers + source.trailers
        ):
            assert mine is not theirs
        clone.payload = other_payload
        assert source.payload == payload
        assert source.buffer_len == 74 + len(payload)
        assert clone.buffer_len == 74 + len(other_payload)

    def test_clone_deep_copies_container_meta(self):
        source = _roce_packet(123, b"data" * 8)
        source.meta["tags"] = [1, 2]
        source.meta["flow"] = 9
        clone = source.clone()
        assert clone.meta == source.meta
        assert clone.meta["tags"] is not source.meta["tags"]

    def test_header_copy_is_equal_and_independent(self):
        for header in _roce_packet(5, b"x").headers:
            dup = header.copy()
            assert dup == header and dup is not header
            assert dup.pack() == header.pack()
