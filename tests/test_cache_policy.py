"""Unit tests for the pluggable SRAM cache policies (repro.policies.cache)."""

import pytest

from repro.policies.cache import (
    CACHE_POLICIES,
    FifoCachePolicy,
    LfuCachePolicy,
    LruCachePolicy,
    PinningCachePolicy,
    make_cache_policy,
)
from repro.core.lookup_table import RemoteAction
from repro.switches.hashing import FiveTuple


def _flow(i: int) -> FiveTuple:
    return FiveTuple(
        src_ip=0x0A000001,
        dst_ip=0x0A000002,
        protocol=17,
        src_port=1000 + i,
        dst_port=2000,
    )


def _action(i: int) -> RemoteAction:
    return RemoteAction(1, i)


class TestFactory:
    def test_all_policies_constructible(self):
        for name in CACHE_POLICIES:
            policy = make_cache_policy(name, 8)
            policy.admit(_flow(1), _action(1))
            assert policy.lookup(_flow(1)) == _action(1)

    def test_unknown_policy_raises(self):
        with pytest.raises(ValueError):
            make_cache_policy("arc", 8)

    def test_classes_match_names(self):
        assert isinstance(make_cache_policy("fifo", 4), FifoCachePolicy)
        assert isinstance(make_cache_policy("lru", 4), LruCachePolicy)
        assert isinstance(make_cache_policy("lfu", 4), LfuCachePolicy)
        assert isinstance(make_cache_policy("pin", 4), PinningCachePolicy)


class TestFifo:
    def test_evicts_in_insertion_order(self):
        policy = make_cache_policy("fifo", 2)
        policy.admit(_flow(1), _action(1))
        policy.admit(_flow(2), _action(2))
        # Touching flow 1 does NOT protect it: FIFO ignores recency.
        assert policy.lookup(_flow(1)) == _action(1)
        inserted, evicted = policy.admit(_flow(3), _action(3))
        assert inserted == 1 and evicted == 1
        assert policy.lookup(_flow(1)) is None
        assert policy.lookup(_flow(2)) == _action(2)


class TestLru:
    def test_evicts_least_recently_used(self):
        policy = make_cache_policy("lru", 2)
        policy.admit(_flow(1), _action(1))
        policy.admit(_flow(2), _action(2))
        assert policy.lookup(_flow(1)) == _action(1)  # 1 is now most recent
        policy.admit(_flow(3), _action(3))
        assert policy.lookup(_flow(2)) is None
        assert policy.lookup(_flow(1)) == _action(1)

    def test_readmit_updates_value(self):
        policy = make_cache_policy("lru", 2)
        policy.admit(_flow(1), _action(1))
        policy.admit(_flow(1), _action(9))
        assert policy.lookup(_flow(1)) == _action(9)


class TestLfu:
    def test_evicts_least_frequently_used(self):
        policy = make_cache_policy("lfu", 2)
        policy.admit(_flow(1), _action(1))
        policy.admit(_flow(2), _action(2))
        for _ in range(3):
            assert policy.lookup(_flow(1)) == _action(1)
        policy.admit(_flow(3), _action(3))
        assert policy.lookup(_flow(2)) is None  # freq 1 < freq 4
        assert policy.lookup(_flow(1)) == _action(1)

    def test_frequency_ties_break_by_age(self):
        policy = make_cache_policy("lfu", 2)
        policy.admit(_flow(1), _action(1))
        policy.admit(_flow(2), _action(2))
        policy.admit(_flow(3), _action(3))  # both at freq 1: evict oldest
        assert policy.lookup(_flow(1)) is None
        assert policy.lookup(_flow(2)) == _action(2)


class TestPinning:
    def test_hot_flow_gets_pinned_and_survives_pressure(self):
        policy = make_cache_policy("pin", 4, seed=0, pin_threshold=2)
        policy.admit(_flow(0), _action(0))
        # Reference it past its promotion threshold (threshold + jitter<3).
        for _ in range(8):
            policy.lookup(_flow(0))
        # The next admit (the re-fetch after a miss, in table terms)
        # promotes the flow into the pinned region...
        policy.admit(_flow(0), _action(0))
        assert policy.pinned_flows >= 1
        # ...where a flood of one-hit wonders cannot displace it.
        for i in range(1, 20):
            policy.admit(_flow(i), _action(i))
        assert policy.lookup(_flow(0)) == _action(0)

    def test_pin_cap_leaves_lru_room(self):
        policy = make_cache_policy(
            "pin", 4, seed=0, pin_threshold=1, pin_fraction=0.75
        )
        for i in range(8):
            for _ in range(8):
                policy.lookup(_flow(i))
            policy.admit(_flow(i), _action(i))
        assert policy.pinned_flows <= 3  # cap = 0.75 * 4

    def test_threshold_jitter_is_seed_deterministic(self):
        a = make_cache_policy("pin", 8, seed=42, pin_threshold=4)
        b = make_cache_policy("pin", 8, seed=42, pin_threshold=4)
        thresholds_a = [a.flow_threshold(_flow(i)) for i in range(32)]
        thresholds_b = [b.flow_threshold(_flow(i)) for i in range(32)]
        assert thresholds_a == thresholds_b
        assert all(4 <= t <= 6 for t in thresholds_a)
        assert len(set(thresholds_a)) > 1  # jitter actually varies


class TestMetrics:
    def test_counters_emitted_under_scope(self):
        from repro.obs.registry import MetricRegistry

        registry = MetricRegistry()
        scope = registry.unique_scope("lookup.cache")
        policy = make_cache_policy("lru", 2, metrics_scope=scope)
        policy.lookup(_flow(1))  # miss
        policy.admit(_flow(1), _action(1))
        policy.lookup(_flow(1))  # hit
        policy.admit(_flow(2), _action(2))
        policy.admit(_flow(3), _action(3))  # evicts
        assert (scope["hits"], scope["misses"], scope["inserts"]) == (1, 1, 3)
        assert (scope["evictions"], scope["size"]) == (1, 2)
        assert scope["hit_rate"] == pytest.approx(0.5)

    def test_standalone_counters_without_scope(self):
        policy = make_cache_policy("fifo", 2)
        policy.lookup(_flow(1))
        policy.admit(_flow(1), _action(1))
        policy.lookup(_flow(1))
        assert policy.hit_rate == pytest.approx(0.5)
