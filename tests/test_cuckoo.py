"""Property tests for the cuckoo remote layout (repro.cuckoo).

The directory is a deterministic, seeded control-plane algorithm, so the
strongest tests are properties: same seed + same insert order must give
an *identical* layout and kick sequence; the choice-filter invariant
must hold after any mutation sequence; overload must fail cleanly with
no partial state left behind.
"""

import struct

import pytest

from repro.cuckoo.filter import ChoiceFilter
from repro.cuckoo.layout import (
    CuckooConfig,
    CuckooDirectory,
    CuckooFullError,
    SlotRef,
    T0,
    T1,
)
from repro.switches.hashing import FiveTuple


def _flow(rank: int) -> FiveTuple:
    """Flow keys shaped like the Zipf workload's (port-pair encoding)."""
    return FiveTuple(
        src_ip=0x0A000001,
        dst_ip=0x0A000002,
        protocol=17,
        src_port=1024 + rank % 60000,
        dst_port=1024 + rank // 60000,
    )


def _packer(flow):
    return flow.pack()


def _build(seed=7, pairs=64, **kw):
    config = CuckooConfig(pairs=pairs, slots_per_bucket=4, seed=seed, **kw)
    return CuckooDirectory(config, packer=_packer)


# -- choice filter -----------------------------------------------------------


class TestChoiceFilter:
    def test_add_query_remove_roundtrip(self):
        f = ChoiceFilter(cells=256, hashes=2, seed=1)
        key = b"hello-flow"
        assert not f.query(key)
        f.add(key)
        assert f.query(key)
        f.remove(key)
        assert not f.query(key)

    def test_remove_without_add_raises(self):
        f = ChoiceFilter(cells=256, hashes=2, seed=1)
        with pytest.raises(ValueError):
            f.remove(b"never-added")

    def test_add_reports_zero_to_one_flips(self):
        f = ChoiceFilter(cells=256, hashes=2, seed=1)
        first = f.add(b"key-a")
        assert first == list(f.indices(b"key-a"))
        # A second add of the same key flips nothing: cells are already hot.
        assert f.add(b"key-a") == []

    def test_probes_are_independent_not_offset_copies(self):
        """Regression: CRC32 is affine, so probes that differ only in a
        seed prefix land on cells separated by a key-independent XOR —
        one hash masquerading as two.  With independent probes, keys
        sharing probe-0's cell must not all share probe-1's cell."""
        f = ChoiceFilter(cells=64, hashes=2, seed=3)
        by_first = {}
        for i in range(512):
            key = struct.pack("!I", i)
            c0, c1 = f.indices(key)
            by_first.setdefault(c0, set()).add(c1)
        assert any(len(seconds) > 1 for seconds in by_first.values())

    def test_deterministic_under_seed(self):
        a = ChoiceFilter(cells=128, hashes=2, seed=9)
        b = ChoiceFilter(cells=128, hashes=2, seed=9)
        for i in range(50):
            key = struct.pack("!I", i)
            assert a.indices(key) == b.indices(key)


# -- directory determinism ---------------------------------------------------


class TestDeterminism:
    def test_same_seed_same_order_identical_layout_and_kicks(self):
        a, b = _build(seed=11), _build(seed=11)
        for rank in range(int(a.config.capacity * 0.85)):
            a.insert(_flow(rank))
            b.insert(_flow(rank))
        assert a.location == b.location
        assert a.kick_log == b.kick_log
        assert a.kicks == b.kicks
        assert a.relocations == b.relocations

    def test_insert_returns_the_applied_moves(self):
        d = _build(seed=2)
        moves = d.insert(_flow(0))
        assert len(moves) == 1
        assert moves[0].key == _flow(0)
        assert moves[0].src is None
        assert d.slot_ref(d.location[_flow(0)]) == moves[0].dst

    def test_reinstall_of_resident_key_is_a_noop(self):
        d = _build(seed=2)
        d.insert(_flow(0))
        ref = d.location[_flow(0)]
        assert d.insert(_flow(0)) == []
        assert d.location[_flow(0)] == ref

    def test_different_seeds_differ(self):
        a, b = _build(seed=1), _build(seed=2)
        for rank in range(200):
            a.insert(_flow(rank))
            b.insert(_flow(rank))
        assert a.location != b.location

    def test_bucket_hashes_are_independent(self):
        """Regression for the seeded-CRC pitfall: h1 must not be a
        function of h0, else the table degrades to single-hash."""
        d = _build(seed=7, pairs=32)
        by_h0 = {}
        for rank in range(512):
            kb = _flow(rank).pack()
            by_h0.setdefault(d.dataplane.h0(kb), set()).add(d.dataplane.h1(kb))
        assert any(len(h1s) > 1 for h1s in by_h0.values())


# -- the EMOMA invariant and the one-READ property ---------------------------


class TestInvariant:
    def test_invariant_holds_at_high_load(self):
        d = _build(seed=5, pairs=128)
        for rank in range(int(d.config.capacity * 0.85)):
            d.insert(_flow(rank))
        assert d.check_invariant() == []

    def test_every_key_readable_in_one_read(self):
        """read_index (the data plane's single bucket choice) must equal
        the pair each key is actually stored at — the one-READ property."""
        d = _build(seed=5, pairs=128)
        ranks = range(int(d.config.capacity * 0.85))
        for rank in ranks:
            d.insert(_flow(rank))
        for rank in ranks:
            flow = _flow(rank)
            ref = d.slot_ref(d.location[flow])
            assert d.dataplane.read_index(flow.pack()) == ref.index

    def test_remove_restores_filter_and_allows_reinsert(self):
        d = _build(seed=5)
        for rank in range(100):
            d.insert(_flow(rank))
        d.remove(_flow(50))
        assert _flow(50) not in d.location
        assert d.check_invariant() == []
        d.insert(_flow(50))
        assert _flow(50) in d.location
        assert d.check_invariant() == []

    def test_remove_unknown_key_returns_none(self):
        d = _build(seed=5)
        assert d.remove(_flow(1)) is None


# -- overload ----------------------------------------------------------------


class TestOverload:
    def _fill_until_full(self, d):
        inserted = []
        rank = 0
        with pytest.raises(CuckooFullError):
            while True:
                d.insert(_flow(rank))
                inserted.append(rank)
                rank += 1
        return inserted, rank

    def test_overload_raises_cleanly(self):
        d = _build(seed=3, pairs=16, max_kicks=8)
        inserted, failed_rank = self._fill_until_full(d)
        # The failed key left no trace; everything inserted before is
        # still resident, readable in one READ, invariant intact.
        assert _flow(failed_rank) not in d.location
        assert len(d.location) == len(inserted)
        assert d.check_invariant() == []
        for rank in inserted:
            flow = _flow(rank)
            assert d.dataplane.read_index(flow.pack()) == d.slot_ref(d.location[flow]).index
        assert d.failed_inserts == 1

    def test_failed_insert_rolls_back_to_identical_state(self):
        """State after a failed insert == state as if it never happened."""
        a = _build(seed=3, pairs=16, max_kicks=8)
        inserted, _ = self._fill_until_full(a)
        b = _build(seed=3, pairs=16, max_kicks=8)
        for rank in inserted:
            b.insert(_flow(rank))
        assert a.location == b.location
        # The kick log keeps only applied work (the failed chain is
        # truncated), and the RNG state matches a run that never failed —
        # so the *next* successful insert diverges in neither directory.
        assert a.kick_log == b.kick_log

    def test_capacity_overflow_raises(self):
        d = _build(seed=3, pairs=4)
        with pytest.raises(CuckooFullError):
            for rank in range(d.config.capacity + 1):
                d.insert(_flow(rank))


# -- geometry ----------------------------------------------------------------


class TestGeometry:
    def test_config_capacity(self):
        config = CuckooConfig(pairs=64, slots_per_bucket=4)
        assert config.capacity == 64 * 2 * 4

    def test_slotref_identity(self):
        assert SlotRef(T0, 3, 1) == SlotRef(0, 3, 1)
        assert SlotRef(T1, 3, 1) != SlotRef(T0, 3, 1)

    def test_load_tracks_occupancy(self):
        d = _build(seed=1, pairs=16)
        assert d.load == 0.0
        d.insert(_flow(0))
        assert d.load == pytest.approx(1 / d.config.capacity)
