"""``repro.policies`` — the unified policy surface (DESIGN.md §13).

One protocol family, three kinds, one construction convention::

    make_policy           # generic factory: make_policy("cache", "lru", ...)
    .cache.CachePolicy    # SRAM eviction (fifo/lru/lfu/pin)
    .placement.PlacementPolicy   # tier placement (static/frequency/watermark)
    .breaker.BreakerPolicy       # circuit-breaker thresholds + probe seeding

Every policy is built with ``(seed, metrics_scope)`` and consumed through
a ``policy=`` / ``policy_seed=`` kwarg pair on the owning component.
Each kind lives in its own module (:mod:`.cache`, :mod:`.placement`,
:mod:`.breaker`, the protocol in :mod:`.base`); :func:`make_policy`
imports only the one it builds.
"""

from .base import POLICY_KINDS


def make_policy(kind: str, name: str, *args, **kwargs):
    """Build a policy by ``(kind, name)`` — the one-stop factory.

    ``make_policy("cache", "lru", 1024)`` ==
    :func:`~.cache.make_cache_policy`\\ ``("lru", 1024)``;
    ``make_policy("placement", "frequency", seed=7)`` ==
    :func:`~.placement.make_placement_policy`\\ ``("frequency", seed=7)``;
    ``make_policy("breaker", "breaker", fail_threshold=2)`` builds a
    :class:`~.breaker.BreakerPolicy`.
    """
    if kind == "cache":
        from .cache import make_cache_policy

        return make_cache_policy(name, *args, **kwargs)
    if kind == "placement":
        from .placement import make_placement_policy

        return make_placement_policy(name, *args, **kwargs)
    if kind == "breaker":
        from .breaker import BreakerPolicy

        return BreakerPolicy(*args, **kwargs)
    raise ValueError(
        f"unknown policy kind {kind!r}; expected one of {POLICY_KINDS}"
    )
