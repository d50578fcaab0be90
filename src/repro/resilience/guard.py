"""SelfHealingChannel: one breaker wired to one channel and its primitive.

The :class:`~repro.resilience.breaker.CircuitBreaker` is pure policy —
it decides *when* a channel is dead and when to probe.  This module is
the glue that makes the decision actionable:

* breaker **opens** → the primitive enters its degraded mode
  (``primitive.degrade(channel)``): lookup serves cache + default
  action, state store accumulates locally, packet buffer passes
  traffic through.
* breaker goes **half-open** → the controller reconnects the QP pair
  (fresh QPN/PSN on the same region) and the primitive sends one probe
  op (``primitive.probe(channel)``) down the fresh QP.  The probe rides
  the primitive's own request generator, so its response reaches that
  requester through the switch's response table and lands in the breaker
  as a ``progress`` event.
* breaker **closes** → the primitive reconciles and exits degraded mode
  (``primitive.recover(channel)``): the store reconciles suspended ops
  and flushes its backlog, the buffer drains the stranded ring.

All three primitives implement the same small protocol —
``degrade(channel)`` / ``probe(channel)`` / ``recover(channel)`` — so
the guard is primitive-agnostic.
"""

from __future__ import annotations

import random
from typing import Optional

from ..core.channel import RdmaChannelController, RemoteMemoryChannel
from .breaker import CircuitBreaker


class SelfHealingChannel:
    """Attach self-healing (breaker + reconnect + degraded mode) to a channel.

    Parameters
    ----------
    controller:
        The :class:`~repro.core.channel.RdmaChannelController` that owns
        *channel* (used for QP reconnect).
    channel:
        The channel to guard.
    primitive:
        The primitive using the channel; must implement
        ``degrade(channel)`` / ``probe(channel)`` / ``recover(channel)``.
        The breaker watches the requester the switch's response table
        holds for *channel*.
    policy:
        A :class:`~repro.policies.breaker.BreakerPolicy` carrying the
        breaker's thresholds and seeded probe jitter — the unified
        ``(seed, metrics_scope)`` policy surface.  ``policy_seed`` is a
        shorthand that builds a default-threshold policy from a seed.
    """

    def __init__(
        self,
        controller: RdmaChannelController,
        channel: RemoteMemoryChannel,
        primitive,
        policy=None,
        policy_seed: Optional[int] = None,
    ) -> None:
        for method in ("degrade", "probe", "recover"):
            if not callable(getattr(primitive, method, None)):
                raise TypeError(
                    f"{type(primitive).__name__} does not implement "
                    f"{method}(channel); cannot self-heal"
                )
        if channel not in controller.channels:
            raise ValueError(f"channel {channel.name!r} is not open on this controller")
        self.controller = controller
        self.channel = channel
        self.primitive = primitive
        sim = controller.switch.sim
        if policy is not None:
            # Duck-typed BreakerPolicy (this module must not import
            # repro.policies: policies.breaker imports resilience.breaker).
            self.breaker = policy.build(sim, channel.name)
        elif policy_seed is not None:
            self.breaker = CircuitBreaker(
                sim, channel.name, rng=random.Random(policy_seed)
            )
        else:
            self.breaker = CircuitBreaker(sim, channel.name)
        self.metrics = sim.obs.registry.unique_scope(
            f"resilience.guard[{channel.name}]"
        )
        self._m_reconnects = self.metrics.counter("reconnects")
        self._m_degrades = self.metrics.counter("degrades")
        self._m_recoveries = self.metrics.counter("recoveries")
        requester = controller.switch.requesters.get(channel.switch_qp.qpn)
        if requester is None:
            raise ValueError(f"no requester answers for channel {channel.name!r}")
        self.breaker.watch(requester)
        self.breaker.on_open.append(self._on_open)
        self.breaker.on_half_open.append(self._on_half_open)
        self.breaker.on_close.append(self._on_close)
        # Teardown of the guarded channel must also silence the breaker's
        # listeners — same rule the HealthMonitor follows.
        channel.teardown_callbacks.append(self._on_teardown)
        self._active = True

    # -- breaker transitions ----------------------------------------------------

    def _on_open(self, breaker: CircuitBreaker) -> None:
        if not self._active:
            return
        self._m_degrades.value += 1
        self.primitive.degrade(self.channel)

    def _on_half_open(self, breaker: CircuitBreaker) -> None:
        if not self._active:
            return
        self.controller.reconnect_channel(self.channel)
        self._m_reconnects.value += 1
        self.primitive.probe(self.channel)

    def _on_close(self, breaker: CircuitBreaker) -> None:
        if not self._active:
            return
        self._m_recoveries.value += 1
        self.primitive.recover(self.channel)

    def _on_teardown(self) -> None:
        # Channel gone for good: silence the callbacks *and* the breaker —
        # an open breaker left armed on a torn-down channel would probe
        # (and back off, and probe again) forever.
        self.stop()

    def stop(self) -> None:
        """Stand the guard down permanently (terminal).

        Callbacks stop firing and the breaker is disarmed: pending
        half-open timers are cancelled and no future event can reopen the
        episode.  Call when the guarded channel's member has been failed
        out of the pool (there is nothing left to heal), or rely on
        channel teardown to do it on graceful closes.
        """
        self._active = False
        self.breaker.disarm()

    @property
    def reconnects(self) -> int:
        return self._m_reconnects.value

    def __repr__(self) -> str:
        return (
            f"<SelfHealingChannel {self.channel.name!r} "
            f"breaker={self.breaker.state}>"
        )
