"""The unified policy surface: convention and placement planning.

Covers the two things ``repro.policies`` promises:

* one construction convention — every policy takes ``(seed,
  metrics_scope)`` and names itself via ``policy_kind`` /
  ``policy_name``;
* placement policies are pure decision logic — unit-testable against a
  hand-built :class:`PlacementView`, no simulator required.
"""

import random

import pytest

from repro.policies import make_policy
from repro.policies.base import POLICY_KINDS, Policy
from repro.policies.breaker import BreakerPolicy
from repro.policies.cache import CACHE_POLICIES, make_cache_policy
from repro.policies.placement import (
    AccessFrequencyPlacement,
    BlockStat,
    PLACEMENT_POLICIES,
    PlacementView,
    StaticPinPlacement,
    TierMove,
    WatermarkPlacement,
    make_placement_policy,
)
from repro.rdma.memory import TIER_DRAM, TIER_FAST


def _stat(block, tier=TIER_DRAM, accesses=0, pin=None, busy=False, obj="o"):
    return BlockStat(
        object_name=obj,
        block=block,
        tier=tier,
        accesses=accesses,
        pin=pin,
        busy=busy,
    )


def _view(blocks, capacity=4):
    used = sum(1 for s in blocks if s.tier == TIER_FAST)
    return PlacementView(
        blocks=list(blocks), fast_capacity=capacity, fast_used=used
    )


class TestConvention:
    def test_every_policy_kind_and_name(self):
        for name in CACHE_POLICIES:
            policy = make_cache_policy(name, 8, seed=3)
            assert policy.policy_kind == "cache"
            assert policy.policy_name == name
            assert policy.seed == 3
        for name in PLACEMENT_POLICIES:
            policy = make_placement_policy(name, seed=3)
            assert policy.policy_kind == "placement"
            assert policy.policy_name == name
            assert policy.seed == 3
        breaker = BreakerPolicy(seed=3, fail_threshold=2)
        assert breaker.policy_kind == "breaker"
        assert breaker.seed == 3
        assert {
            p
            for p in ("cache", "placement", "breaker")
        } == set(POLICY_KINDS)

    def test_make_policy_dispatches_by_kind(self):
        assert make_policy("cache", "lru", 8).policy_name == "lru"
        assert make_policy("placement", "frequency").policy_name == "frequency"
        assert isinstance(make_policy("breaker", "breaker"), BreakerPolicy)
        with pytest.raises(ValueError):
            make_policy("routing", "ecmp")

    def test_seeded_jitter_is_deterministic_and_shared(self):
        # Same (seed, token) -> same jitter on ANY policy kind: the whole
        # point of hoisting the CRC construction into the base class.
        a = AccessFrequencyPlacement(seed=42)
        b = make_cache_policy("pin", 8, seed=42)
        for token in (b"x", b"flow-7", bytes(4)):
            assert a._seeded_jitter(token, 5) == b._seeded_jitter(token, 5)
            assert 0 <= a._seeded_jitter(token, 5) < 5
        assert isinstance(a, Policy) and isinstance(b, Policy)

    def test_breaker_policy_builds_seeded_breaker(self):
        # Two builds from the same seed must probe identically.
        assert (
            BreakerPolicy(seed=9).rng().random()
            == BreakerPolicy(seed=9).rng().random()
        )
        explicit = random.Random(1)
        assert BreakerPolicy(rng=explicit).rng() is explicit
        with pytest.raises(ValueError):
            BreakerPolicy(config=object(), fail_threshold=2)


    def test_guard_policy_seed_shorthand(self):
        from repro.core.state_store import RemoteStateStore, StateStoreConfig
        from repro.rdma.constants import ATOMIC_OPERAND_BYTES
        from repro.resilience.guard import SelfHealingChannel
        from repro.testbed import build_testbed

        tb = build_testbed(n_hosts=2)
        channel = tb.controller.open_channel(
            tb.memory_server, tb.server_port, 16 * ATOMIC_OPERAND_BYTES
        )
        store = RemoteStateStore(
            tb.switch, channel, config=StateStoreConfig(counters=16)
        )
        guard = SelfHealingChannel(
            tb.controller, channel, store, policy_seed=11
        )
        assert guard.breaker is not None


class TestStaticPinPlacement:
    def test_no_pins_means_no_moves(self):
        policy = StaticPinPlacement()
        view = _view([_stat(0, accesses=100), _stat(1, accesses=100)])
        assert policy.plan(view) == []

    def test_moves_blocks_toward_their_pins(self):
        policy = StaticPinPlacement()
        view = _view(
            [
                _stat(0, tier=TIER_DRAM, pin=TIER_FAST),
                _stat(1, tier=TIER_FAST, pin=TIER_DRAM),
                _stat(2, tier=TIER_FAST, pin=TIER_FAST),  # already home
            ]
        )
        moves = policy.plan(view)
        assert (
            TierMove("o", 0, TIER_FAST, "pin") in moves
            and TierMove("o", 1, TIER_DRAM, "pin") in moves
            and len(moves) == 2
        )

    def test_respects_fast_capacity(self):
        policy = StaticPinPlacement()
        view = _view(
            [_stat(i, pin=TIER_FAST) for i in range(4)], capacity=2
        )
        promoted = [m for m in policy.plan(view) if m.to_tier == TIER_FAST]
        assert len(promoted) == 2

    def test_never_moves_busy_blocks(self):
        policy = StaticPinPlacement()
        view = _view([_stat(0, pin=TIER_FAST, busy=True)])
        assert policy.plan(view) == []


class TestAccessFrequencyPlacement:
    def test_promotes_hot_blocks_into_free_slots(self):
        policy = AccessFrequencyPlacement(seed=0, promote_min=2)
        cold = _stat(0, accesses=0)
        hot = _stat(1, accesses=50)
        moves = policy.plan(_view([cold, hot], capacity=2))
        assert moves == [TierMove("o", 1, TIER_FAST, "promote")]

    def test_threshold_carries_seeded_jitter(self):
        policy = AccessFrequencyPlacement(seed=7, promote_min=2)
        thresholds = {
            policy.block_threshold(_stat(i)) for i in range(64)
        }
        assert thresholds <= {2, 3, 4} and len(thresholds) > 1
        again = AccessFrequencyPlacement(seed=7, promote_min=2)
        assert [again.block_threshold(_stat(i)) for i in range(64)] == [
            policy.block_threshold(_stat(i)) for i in range(64)
        ]

    def test_displaces_strictly_colder_victim_when_full(self):
        policy = AccessFrequencyPlacement(seed=0, promote_min=1, hysteresis=2)
        resident = _stat(0, tier=TIER_FAST, accesses=3)
        hot = _stat(1, accesses=50)
        moves = policy.plan(_view([resident, hot], capacity=1))
        assert moves == [
            TierMove("o", 0, TIER_DRAM, "demote"),
            TierMove("o", 1, TIER_FAST, "promote"),
        ]

    def test_hysteresis_blocks_thrash(self):
        policy = AccessFrequencyPlacement(seed=0, promote_min=1, hysteresis=4)
        resident = _stat(0, tier=TIER_FAST, accesses=10)
        warm = _stat(1, accesses=12)  # hotter, but not by >= hysteresis
        assert policy.plan(_view([resident, warm], capacity=1)) == []

    def test_never_demotes_pinned_fast_or_busy(self):
        policy = AccessFrequencyPlacement(seed=0, promote_min=1)
        pinned = _stat(0, tier=TIER_FAST, accesses=0, pin=TIER_FAST)
        busy = _stat(1, tier=TIER_FAST, accesses=0, busy=True)
        hot = _stat(2, accesses=99)
        assert policy.plan(_view([pinned, busy, hot], capacity=2)) == []

    def test_validates_knobs(self):
        with pytest.raises(ValueError):
            AccessFrequencyPlacement(promote_min=0)
        with pytest.raises(ValueError):
            AccessFrequencyPlacement(hysteresis=-1)


class TestWatermarkPlacement:
    def test_promotes_until_high_watermark(self):
        policy = WatermarkPlacement(seed=0, high=0.5, low=0.25)
        blocks = [_stat(i, accesses=10 - i) for i in range(8)]
        moves = policy.plan(_view(blocks, capacity=8))
        assert len(moves) == 4  # high = 0.5 * 8
        assert all(m.reason == "promote" for m in moves)
        # Hottest first.
        assert [m.block for m in moves] == [0, 1, 2, 3]

    def test_drains_to_low_watermark_when_over_high(self):
        policy = WatermarkPlacement(seed=0, high=0.5, low=0.25)
        blocks = [
            _stat(i, tier=TIER_FAST, accesses=i) for i in range(6)
        ]
        moves = policy.plan(_view(blocks, capacity=8))
        # 6 resident > high(4); drain to low(2): 4 spills, coldest first.
        assert [m.block for m in moves] == [0, 1, 2, 3]
        assert all(
            m.reason == "spill" and m.to_tier == TIER_DRAM for m in moves
        )

    def test_validates_watermarks(self):
        with pytest.raises(ValueError):
            WatermarkPlacement(high=0.2, low=0.5)
        with pytest.raises(ValueError):
            WatermarkPlacement(high=1.5)

    # -- ceil-semantics regression: truncation used to shrink small
    # -- windows (high=0.9 of 3 slots gave 2, losing a third of the
    # -- budget) and binary-float artifacts inflated exact products
    # -- (0.9 * 10 = 9.000...002 must not ceil to 10).

    def test_watermarks_ceil_on_tiny_window(self):
        policy = WatermarkPlacement(seed=0, high=0.9, low=0.6)
        assert policy.watermarks(3) == (3, 2)

    def test_watermarks_ceil_on_small_window(self):
        policy = WatermarkPlacement(seed=0, high=0.9, low=0.6)
        # 0.9 * 8 = 7.2 -> 8?  No: ceil(7.2) = 8 slots usable.
        assert policy.watermarks(8) == (8, 5)

    def test_watermarks_exact_products_do_not_inflate(self):
        policy = WatermarkPlacement(seed=0, high=0.9, low=0.6)
        # 0.9 * 64 = 57.6 -> 58; 0.6 * 64 = 38.4 -> 39.
        assert policy.watermarks(64) == (58, 39)
        # Exact binary-float products stay exact: 0.5 * 64 = 32, and the
        # IEEE artifact 0.9 * 10 = 9.000000000000002 rounds to 9, not 10.
        assert WatermarkPlacement(seed=0, high=0.5, low=0.5).watermarks(64) \
            == (32, 32)
        assert WatermarkPlacement(seed=0, high=0.9, low=0.9).watermarks(10) \
            == (9, 9)

    def test_tiny_window_uses_every_slot(self):
        # The user-visible regression: with 3 fast slots and high=0.9,
        # truncation capped promotion at 2 slots; ceil admits all 3.
        policy = WatermarkPlacement(seed=0, high=0.9, low=0.6)
        blocks = [_stat(i, accesses=10 - i) for i in range(4)]
        moves = policy.plan(_view(blocks, capacity=3))
        assert [m.block for m in moves] == [0, 1, 2]
        assert all(m.reason == "promote" for m in moves)

    def test_unknown_placement_policy_rejected(self):
        with pytest.raises(ValueError):
            make_placement_policy("random")
