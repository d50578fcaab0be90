"""Tests for DRAM, sparse buffers, and memory-region access checks."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.rdma.memory import (
    AccessFlags,
    Dram,
    MemoryAccessError,
    MemoryRegion,
    SparseBuffer,
    _POPCOUNT,
)
from repro.sim.units import gib, mib


class TestSparseBuffer:
    def test_reads_zero_initialised(self):
        buf = SparseBuffer(1000)
        assert buf.read(0, 1000) == bytes(1000)

    def test_write_read_round_trip(self):
        buf = SparseBuffer(10_000, page_size=128)
        buf.write(5000, b"hello")
        assert buf.read(5000, 5) == b"hello"
        assert buf.read(4999, 7) == b"\x00hello\x00"

    def test_write_spanning_pages(self):
        buf = SparseBuffer(1024, page_size=128)
        data = bytes(range(256))
        buf.write(100, data)
        assert buf.read(100, 256) == data

    def test_out_of_range_rejected(self):
        buf = SparseBuffer(100)
        with pytest.raises(MemoryAccessError):
            buf.read(90, 20)
        with pytest.raises(MemoryAccessError):
            buf.write(99, b"ab")
        with pytest.raises(MemoryAccessError):
            buf.read(-1, 1)

    def test_sparse_residency(self):
        buf = SparseBuffer(gib(10), page_size=4096)
        buf.write(gib(5), b"x")
        assert buf.resident_bytes == 256  # one sub-chunk, not a page or 10 GiB
        buf.write(gib(5) + 3 * 256, bytes(2 * 256))  # two more, not adjacent
        assert buf.resident_bytes == 3 * 256
        buf.write(gib(5) + 8 * 256, bytes(5 * 256))  # half the page: promoted
        assert buf.resident_bytes == 4096
        assert buf.read(gib(5), 1) == b"x"

    @pytest.mark.parametrize("page_size", [0, 64, 4000])
    def test_page_size_is_a_multiple_of_128(self, page_size):
        with pytest.raises(ValueError):
            SparseBuffer(4096, page_size=page_size)

    def test_held_pages_carry_no_growth_slack(self):
        """``resident_bytes`` counts lengths, so every held ``bytearray``
        must be allocated to its exact length (plus CPython's NUL byte)."""
        for page_size in (128, 4096):
            buf = SparseBuffer(page_size, page_size=page_size)
            sub = page_size // 16
            for j in range(0, 16, 2):  # one sub-chunk at a time, up to promotion
                buf.write(j * sub + 1, b"\xff")
                pages = list(buf._pages.values()) + [c for _, c in buf._sparse.values()]
                assert [p.__alloc__() for p in pages] == [len(p) + 1 for p in pages]
            assert buf.resident_bytes == page_size

    def test_popcount_table_counts_every_mask(self):
        assert len(_POPCOUNT) == 1 << 16
        assert all(_POPCOUNT[m] == bin(m).count("1") for m in range(1 << 16))

    @given(
        offset=st.integers(0, 900),
        data=st.binary(min_size=0, max_size=100),
    )
    def test_round_trip_property(self, offset, data):
        buf = SparseBuffer(1000, page_size=128)
        buf.write(offset, data)
        assert buf.read(offset, len(data)) == data


class TestMemoryRegion:
    def make_region(self, **kwargs):
        return MemoryRegion(base_address=0x10000, length=4096, **kwargs)

    def test_write_then_read(self):
        region = self.make_region()
        region.write(0x10010, b"payload")
        assert region.read(0x10010, 7) == b"payload"

    def test_bounds_enforced_at_both_ends(self):
        region = self.make_region()
        with pytest.raises(MemoryAccessError):
            region.read(0xFFFF, 2)
        with pytest.raises(MemoryAccessError):
            region.write(0x10000 + 4095, b"ab")

    def test_access_rights_enforced(self):
        read_only = self.make_region(access=AccessFlags.REMOTE_READ)
        read_only.read(0x10000, 1)
        with pytest.raises(MemoryAccessError):
            read_only.write(0x10000, b"x")
        with pytest.raises(MemoryAccessError):
            read_only.fetch_add(0x10000, 1)

    def test_fetch_add_returns_pre_value_and_accumulates(self):
        region = self.make_region()
        assert region.fetch_add(0x10000, 5) == 0
        assert region.fetch_add(0x10000, 3) == 5
        value = int.from_bytes(region.read(0x10000, 8), "big")
        assert value == 8

    def test_fetch_add_wraps_at_64_bits(self):
        region = self.make_region()
        region.write(0x10000, ((1 << 64) - 1).to_bytes(8, "big"))
        assert region.fetch_add(0x10000, 2) == (1 << 64) - 1
        assert int.from_bytes(region.read(0x10000, 8), "big") == 1

    def test_atomic_alignment_enforced(self):
        region = self.make_region()
        with pytest.raises(MemoryAccessError):
            region.fetch_add(0x10001, 1)

    def test_compare_swap(self):
        region = self.make_region()
        region.write(0x10008, (7).to_bytes(8, "big"))
        assert region.compare_swap(0x10008, compare=7, swap=9) == 7
        assert int.from_bytes(region.read(0x10008, 8), "big") == 9
        # Failed compare leaves memory untouched.
        assert region.compare_swap(0x10008, compare=7, swap=1) == 9
        assert int.from_bytes(region.read(0x10008, 8), "big") == 9

    def test_deregistered_region_rejects_access(self):
        region = self.make_region()
        region.deregister()
        with pytest.raises(MemoryAccessError):
            region.read(0x10000, 1)

    def test_operation_counters(self):
        region = self.make_region()
        region.write(0x10000, b"a")
        region.read(0x10000, 1)
        region.fetch_add(0x10008, 1)
        assert (region.writes, region.reads, region.atomics) == (1, 1, 1)


class TestDram:
    def test_register_and_lookup(self):
        dram = Dram(mib(64))
        region = dram.register(mib(1))
        assert dram.lookup(region.rkey) is region

    def test_unknown_rkey_is_none(self):
        dram = Dram(mib(1))
        assert dram.lookup(0xDEAD) is None

    def test_deregistered_region_not_found(self):
        dram = Dram(mib(64))
        region = dram.register(mib(1))
        region.deregister()
        assert dram.lookup(region.rkey) is None

    def test_capacity_budget_enforced(self):
        dram = Dram(mib(2))
        dram.register(mib(1))
        dram.register(mib(1))
        with pytest.raises(MemoryError):
            dram.register(1)

    def test_regions_have_disjoint_va_ranges(self):
        dram = Dram(mib(64))
        a = dram.register(1000)
        b = dram.register(1000)
        assert a.end_address <= b.base_address

    def test_va_alignment_is_the_server_page(self):
        dram = Dram(mib(64))
        a = dram.register(1000)
        b = dram.register(4097)
        c = dram.register(1)
        assert (b.base_address - a.base_address, c.base_address - b.base_address) == (4096, 8192)

    @pytest.mark.parametrize("refused", [{"tier": "nvme"}, {"length": -1}])
    def test_a_refused_register_draws_no_rkey(self, refused):
        clean, refusing = Dram(mib(64)), Dram(mib(64))
        clean.register(4096)
        refusing.register(4096)
        with pytest.raises(ValueError):
            refusing.register(**{"length": 4096, **refused})
        after, expected = refusing.register(4096), clean.register(4096)
        assert (after.rkey, after.base_address) == (expected.rkey, expected.base_address)
        assert after.rkey == 0x1001

    def test_rkeys_unique(self):
        dram = Dram(mib(64))
        rkeys = {dram.register(1).rkey for _ in range(50)}
        assert len(rkeys) == 50
