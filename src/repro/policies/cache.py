"""Pluggable SRAM cache policies for the remote lookup table.

The paper's lookup primitive caches fetched ``flow → action`` entries in
switch SRAM so later packets of the flow hit locally (§4).  The original
implementation hard-wired FIFO eviction; under the heavy-tailed flow
populations the Zipf workload drives, *which* flows the small cache
keeps is what determines the miss rate — so the policy is a plug:

* ``fifo`` — the original behaviour, byte-for-byte (default);
* ``lru``  — least-recently-used, the classic recency policy;
* ``lfu``  — least-frequently-used with O(1) frequency buckets and
  FIFO tie-break within a frequency;
* ``pin``  — FIB-caching-style popularity pinning (Grigoryan & Liu,
  arXiv:1804.07379): a flow is only admitted permanently once it has
  been referenced past a seeded per-flow promotion threshold; pinned
  entries never churn, the remainder of the cache is a small LRU for
  candidates.

Every policy emits ``hits / misses / inserts / evictions / pins`` plus
``hit_rate`` and ``size`` into the obs registry under the owning
table's ``lookup.cache`` scope.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

from ..obs.registry import Counter, MetricScope
from ..switches.tables import ActionEntry, ExactMatchTable, TableFullError
from .base import Policy

#: Policy names accepted by :func:`make_cache_policy` (and
#: ``LookupTableConfig.policy``).
CACHE_POLICIES = ("fifo", "lru", "lfu", "pin")


class CachePolicy(Policy):
    """Interface + shared metric plumbing for SRAM cache policies.

    ``lookup`` returns the cached action (counting a hit) or ``None``
    (counting a miss); ``admit`` offers a fetched entry and reports
    ``(inserted, evicted)`` so the owning table can keep its own
    ``cache_inserts`` / ``cache_evictions`` counters in lockstep.
    Policies are deterministic: no wall clock, no unseeded randomness.
    """

    policy_kind = "cache"
    policy_name = "?"

    def __init__(
        self,
        entries: int,
        metrics_scope: Optional[MetricScope] = None,
        seed: int = 0,
    ) -> None:
        super().__init__(seed=seed, metrics_scope=metrics_scope)
        if entries <= 0:
            raise ValueError(f"cache needs positive capacity, got {entries}")
        self.entries = entries
        if metrics_scope is not None:
            self._m_hits = metrics_scope.counter("hits")
            self._m_misses = metrics_scope.counter("misses")
            self._m_inserts = metrics_scope.counter("inserts")
            self._m_evictions = metrics_scope.counter("evictions")
            self._m_pins = metrics_scope.counter("pins")
            metrics_scope.gauge("hit_rate", fn=self._hit_rate)
            metrics_scope.gauge("size", fn=self.__len__)
        else:  # standalone use (unit tests, offline analysis)
            self._m_hits = Counter("hits")
            self._m_misses = Counter("misses")
            self._m_inserts = Counter("inserts")
            self._m_evictions = Counter("evictions")
            self._m_pins = Counter("pins")

    def _hit_rate(self) -> float:
        total = self._m_hits.value + self._m_misses.value
        return self._m_hits.value / total if total else 0.0

    @property
    def hit_rate(self) -> float:
        return self._hit_rate()

    # -- the policy surface ----------------------------------------------------

    def lookup(self, flow: Any) -> Optional[Any]:
        action = self._get(flow)
        if action is not None:
            self._m_hits.value += 1
        else:
            self._m_misses.value += 1
        return action

    def admit(self, flow: Any, action: Any) -> Tuple[bool, int]:
        """Offer a fetched entry; returns ``(inserted, evictions)``."""
        inserted, evicted = self._put(flow, action)
        if inserted:
            self._m_inserts.value += 1
        if evicted:
            self._m_evictions.value += evicted
        return inserted, evicted

    def contains(self, flow: Any) -> bool:
        return self.peek(flow) is not None

    def peek(self, flow: Any) -> Optional[Any]:
        """The cached action or ``None``, touching no recency or counter."""
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def _get(self, flow: Any) -> Optional[Any]:
        raise NotImplementedError

    def _put(self, flow: Any, action: Any) -> Tuple[bool, int]:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {len(self)}/{self.entries}>"


class FifoCachePolicy(CachePolicy):
    """The original fixed policy: an :class:`ExactMatchTable` with
    oldest-first eviction — preserved byte-for-byte (same table name,
    same insert/evict sequence) so fixed-seed runs and the pinned
    wire-trace hashes reproduce exactly what the hard-wired cache did.
    """

    policy_name = "fifo"

    def __init__(
        self,
        entries: int,
        metrics_scope: Optional[MetricScope] = None,
        seed: int = 0,
    ) -> None:
        super().__init__(entries, metrics_scope, seed)
        self.table = ExactMatchTable("lookup.cache", entries)

    def _get(self, flow: Any) -> Optional[Any]:
        entry = self.table.lookup(flow)
        if entry is None:
            return None
        return entry.params["remote_action"]

    def _put(self, flow: Any, action: Any) -> Tuple[bool, int]:
        evicted = 0
        if self.table.is_full and not self.table.contains(flow):
            self.table.evict_oldest()
            evicted = 1
        try:
            self.table.insert(
                flow, ActionEntry("remote", {"remote_action": action})
            )
        except TableFullError:  # pragma: no cover - eviction above prevents it
            return False, evicted
        return True, evicted

    def peek(self, flow: Any) -> Optional[Any]:
        entry = self.table.peek(flow)
        return None if entry is None else entry.params["remote_action"]

    def __len__(self) -> int:
        return len(self.table)


class LruCachePolicy(CachePolicy):
    """Least-recently-used: hits refresh recency, misses evict the LRU."""

    policy_name = "lru"

    def __init__(
        self,
        entries: int,
        metrics_scope: Optional[MetricScope] = None,
        seed: int = 0,
    ) -> None:
        super().__init__(entries, metrics_scope, seed)
        self._entries: "OrderedDict[Any, Any]" = OrderedDict()

    def _get(self, flow: Any) -> Optional[Any]:
        action = self._entries.get(flow)
        if action is not None:
            self._entries.move_to_end(flow)
        return action

    def _put(self, flow: Any, action: Any) -> Tuple[bool, int]:
        evicted = 0
        if flow in self._entries:
            self._entries.move_to_end(flow)
        elif len(self._entries) >= self.entries:
            self._entries.popitem(last=False)
            evicted = 1
        self._entries[flow] = action
        return True, evicted

    def peek(self, flow: Any) -> Optional[Any]:
        return self._entries.get(flow)

    def __len__(self) -> int:
        return len(self._entries)


class LfuCachePolicy(CachePolicy):
    """Least-frequently-used with O(1) frequency buckets.

    Eviction removes the oldest entry of the lowest-frequency bucket
    (deterministic FIFO tie-break), so a burst of one-hit wonders cannot
    displace an established heavy hitter.
    """

    policy_name = "lfu"

    def __init__(
        self,
        entries: int,
        metrics_scope: Optional[MetricScope] = None,
        seed: int = 0,
    ) -> None:
        super().__init__(entries, metrics_scope, seed)
        self._actions: Dict[Any, Any] = {}
        self._freq: Dict[Any, int] = {}
        self._buckets: Dict[int, "OrderedDict[Any, None]"] = {}
        self._min_freq = 0

    def _touch(self, flow: Any) -> None:
        freq = self._freq[flow]
        bucket = self._buckets[freq]
        del bucket[flow]
        if not bucket:
            del self._buckets[freq]
            if self._min_freq == freq:
                self._min_freq = freq + 1
        self._freq[flow] = freq + 1
        self._buckets.setdefault(freq + 1, OrderedDict())[flow] = None

    def _get(self, flow: Any) -> Optional[Any]:
        action = self._actions.get(flow)
        if action is not None:
            self._touch(flow)
        return action

    def _put(self, flow: Any, action: Any) -> Tuple[bool, int]:
        evicted = 0
        if flow in self._actions:
            self._actions[flow] = action
            self._touch(flow)
            return True, 0
        if len(self._actions) >= self.entries:
            bucket = self._buckets[self._min_freq]
            victim, _ = bucket.popitem(last=False)
            if not bucket:
                del self._buckets[self._min_freq]
            del self._actions[victim]
            del self._freq[victim]
            evicted = 1
        self._actions[flow] = action
        self._freq[flow] = 1
        self._buckets.setdefault(1, OrderedDict())[flow] = None
        self._min_freq = 1
        return True, evicted

    def peek(self, flow: Any) -> Optional[Any]:
        return self._actions.get(flow)

    def __len__(self) -> int:
        return len(self._actions)


class PinningCachePolicy(CachePolicy):
    """FIB-caching-style popular-flow pinning (arXiv:1804.07379).

    Every lookup — hit or miss — counts a reference.  A flow whose
    references pass its *promotion threshold* is pinned: installed in
    the protected region (at most ``pin_fraction`` of capacity) where
    no later churn can evict it.  Everything else cycles through a
    small LRU region, so the cache keeps serving medium flows while the
    heavy tail earns pins.  The threshold carries seeded per-flow
    jitter, breaking the synchronized promotion waves a single global
    threshold produces.
    """

    policy_name = "pin"

    def __init__(
        self,
        entries: int,
        metrics_scope: Optional[MetricScope] = None,
        seed: int = 0,
        threshold: int = 4,
        pin_fraction: float = 0.75,
    ) -> None:
        super().__init__(entries, metrics_scope, seed)
        if threshold < 1:
            raise ValueError(f"promotion threshold must be >= 1: {threshold}")
        if not 0.0 < pin_fraction < 1.0:
            raise ValueError(
                f"pin_fraction must be in (0, 1), got {pin_fraction}"
            )
        self.threshold = threshold
        self.pin_cap = max(1, min(entries - 1, int(entries * pin_fraction)))
        self._pinned: Dict[Any, Any] = {}
        self._lru: "OrderedDict[Any, Any]" = OrderedDict()
        self._refs: Dict[Any, int] = {}

    def flow_threshold(self, flow: Any) -> int:
        """The seeded per-flow promotion threshold (base + jitter 0..2)."""
        packed = flow.pack() if hasattr(flow, "pack") else bytes(flow)
        return self.threshold + self._seeded_jitter(packed, 3)

    @property
    def pinned_flows(self) -> int:
        return len(self._pinned)

    def _get(self, flow: Any) -> Optional[Any]:
        self._refs[flow] = self._refs.get(flow, 0) + 1
        action = self._pinned.get(flow)
        if action is not None:
            return action
        action = self._lru.get(flow)
        if action is not None:
            self._lru.move_to_end(flow)
        return action

    def _put(self, flow: Any, action: Any) -> Tuple[bool, int]:
        if flow in self._pinned:
            self._pinned[flow] = action
            return True, 0
        evicted = 0
        promote = (
            self._refs.get(flow, 0) >= self.flow_threshold(flow)
            and len(self._pinned) < self.pin_cap
        )
        if promote:
            if flow in self._lru:
                del self._lru[flow]
            elif len(self) >= self.entries and self._lru:
                self._lru.popitem(last=False)
                evicted = 1
            self._pinned[flow] = action
            self._m_pins.value += 1
            return True, evicted
        if flow in self._lru:
            self._lru.move_to_end(flow)
            self._lru[flow] = action
            return True, 0
        if len(self) >= self.entries:
            if not self._lru:  # every slot pinned (pin_cap == entries - 1
                return False, 0  # can't happen, but never evict a pin)
            self._lru.popitem(last=False)
            evicted = 1
        self._lru[flow] = action
        return True, evicted

    def peek(self, flow: Any) -> Optional[Any]:
        action = self._pinned.get(flow)
        return self._lru.get(flow) if action is None else action

    def __len__(self) -> int:
        return len(self._pinned) + len(self._lru)


def make_cache_policy(
    name: str,
    entries: int,
    metrics_scope: Optional[MetricScope] = None,
    seed: int = 0,
    pin_threshold: int = 4,
    pin_fraction: float = 0.75,
) -> CachePolicy:
    """Build the cache policy *name* (one of :data:`CACHE_POLICIES`)."""
    if name == "fifo":
        return FifoCachePolicy(entries, metrics_scope, seed)
    if name == "lru":
        return LruCachePolicy(entries, metrics_scope, seed)
    if name == "lfu":
        return LfuCachePolicy(entries, metrics_scope, seed)
    if name == "pin":
        return PinningCachePolicy(
            entries,
            metrics_scope,
            seed=seed,
            threshold=pin_threshold,
            pin_fraction=pin_fraction,
        )
    raise ValueError(
        f"unknown cache policy {name!r}; expected one of {CACHE_POLICIES}"
    )
