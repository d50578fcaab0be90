"""The unified policy surface: one construction convention, three kinds.

The repo grew three ad-hoc policy surfaces — SRAM cache eviction (the
fixed lookup-table cache), the cluster ring's placement logic, and the
resilience layer's per-channel breaker wiring.  They now share one base:

* every policy is constructed with ``(seed, metrics_scope)`` — a seed for
  any randomized decision (jittered thresholds, probe timing) and an
  optional :class:`~repro.obs.registry.MetricScope` to emit into;
* every policy names itself via two class attributes: ``policy_kind``
  (``"cache"`` / ``"placement"`` / ``"breaker"``) and ``policy_name``
  (the registry key, e.g. ``"lru"`` or ``"frequency"``);
* components accept policies through a ``policy=`` / ``policy_seed=``
  kwarg pair (:class:`~repro.core.lookup_table.LookupTableConfig`,
  :class:`~repro.tiering.TieredMemoryPool`,
  :class:`~repro.resilience.SelfHealingChannel`).

Policies are deterministic given their seed: no wall clock, no unseeded
randomness — fixed-seed runs reproduce every eviction, promotion, and
probe byte-for-byte.
"""

from __future__ import annotations

import struct
from typing import Optional

from ..obs.registry import MetricScope
from ..switches.hashing import crc32

#: The policy kinds the unified surface covers.
POLICY_KINDS = ("cache", "placement", "breaker")


class Policy:
    """Base class carrying the shared ``(seed, metrics_scope)`` convention."""

    #: Which component family consumes this policy.
    policy_kind = "?"
    #: Registry key (``"fifo"``, ``"frequency"``, …) for factory round-trips.
    policy_name = "?"

    def __init__(
        self, seed: int = 0, metrics_scope: Optional[MetricScope] = None
    ) -> None:
        self.seed = seed
        self.metrics_scope = metrics_scope

    def _seeded_jitter(self, token: bytes, mod: int) -> int:
        """Deterministic per-key jitter in ``[0, mod)`` from the policy seed.

        The same CRC construction everywhere (cache pin thresholds,
        placement hysteresis) so a given ``(seed, key)`` always jitters
        identically across policy kinds.
        """
        packed = struct.pack("!I", self.seed & 0xFFFFFFFF) + token
        return crc32(packed) % mod

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} kind={self.policy_kind} "
            f"name={self.policy_name} seed={self.seed}>"
        )
