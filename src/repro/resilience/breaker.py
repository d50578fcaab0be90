"""Per-channel circuit breaker: closed → open → half-open, with hysteresis.

The fault subsystem (DESIGN.md §10) made failure injectable and gave every
layer *local* recovery — go-back-N, same-PSN retransmission, watchdogs.
What it did not give is a *policy*: a primitive whose channel is dead
keeps retransmitting into the void forever, burning its watchdog budget
one timeout at a time.  The breaker is that policy, the classic pattern
from RDCA-style production RDMA operations: trip on accumulated stall
evidence, stop driving the wire, probe on a timer, and only resume once
a probe proves the path back.

The breaker consumes the exact event vocabulary the cluster
:class:`~repro.cluster.health.HealthMonitor` already consumes — ``nak``
/ ``strike`` / ``timeout`` / ``progress`` from
:class:`~repro.core.rocegen.RoceRequestGenerator` health listeners, plus
``retries_exhausted`` from :attr:`~repro.rdma.rnic.Rnic.on_retry_exhausted`
— so anything that can feed the monitor can feed a breaker.  The same
hysteresis rule applies: NAKs alone never trip it (one loss event NAK-
storms, and a channel that resyncs and makes progress is healthy); only
*consecutive* strikes/timeouts with no progress in between do.

State machine (DESIGN.md §11)::

            consecutive failures >= fail_threshold
    CLOSED ------------------------------------------> OPEN
      ^                                                  |
      |  successes >= close_threshold                    |  open_timeout
      |                                                  |  (+ seeded jitter,
      |        failure or probe_timeout                  |   backoff on every
    HALF-OPEN <------------------------------------------+   failed probe)
      |                 |
      +-----------------+--> back to OPEN

All timing rides the simulator clock and all jitter comes from the RNG
handed in at construction (derive it from a
:class:`~repro.sim.rng.SeedSequence` stream), so a run containing
breaker trips replays byte-identically from its seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Optional

from ..core.rocegen import RoceRequestGenerator
from ..obs.trace import KIND_BREAKER
from ..sim.simulator import Simulator

#: Breaker states (stringly-typed on purpose: they appear verbatim in
#: trace events and metric snapshots).
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half-open"

_STATE_CODES = {BREAKER_CLOSED: 0, BREAKER_OPEN: 1, BREAKER_HALF_OPEN: 2}

#: Events that count as stall evidence (the monitor's rule, extended with
#: the requester-side terminal verdict).
_FAILURE_EVENTS = ("strike", "timeout", "retries_exhausted")

BreakerCallback = Callable[["CircuitBreaker"], None]


@dataclass
class CircuitBreakerConfig:
    """Thresholds and pacing of one channel's breaker."""

    #: Consecutive stall events (strike / timeout / retries_exhausted,
    #: no progress in between) that trip a closed breaker open.
    fail_threshold: int = 3
    #: Progress events required in half-open before the breaker re-closes
    #: (the closing half of the hysteresis; 1 = first probe response wins).
    close_threshold: int = 1
    #: How long an open breaker waits before probing (half-open).
    open_timeout_ns: float = 200_000.0
    #: Seeded uniform jitter added to every open wait, so a fleet of
    #: breakers tripped by one outage does not probe in lockstep.
    probe_jitter_ns: float = 20_000.0
    #: Half-open must see progress within this window or the probe is
    #: declared failed and the breaker re-opens.
    probe_timeout_ns: float = 100_000.0
    #: Multiplier on the open wait after every failed probe (capped by
    #: ``max_open_timeout_ns``); a fresh trip from closed resets it.
    backoff: float = 2.0
    max_open_timeout_ns: float = 5_000_000.0

    def validate(self) -> None:
        if self.fail_threshold < 1:
            raise ValueError("fail_threshold must be >= 1")
        if self.close_threshold < 1:
            raise ValueError("close_threshold must be >= 1")
        if self.open_timeout_ns <= 0 or self.probe_timeout_ns <= 0:
            raise ValueError("breaker timeouts must be positive")
        if self.probe_jitter_ns < 0:
            raise ValueError("probe_jitter_ns must be >= 0")
        if self.backoff < 1.0:
            raise ValueError("backoff must be >= 1.0")


class CircuitBreaker:
    """Stall-evidence state machine for one RDMA channel.

    Feed it events directly (:meth:`record`) or subscribe it to the
    existing health hooks (:meth:`watch` / :meth:`watch_requester`).
    State-change subscribers register on :attr:`on_open`,
    :attr:`on_half_open` and :attr:`on_close`; the
    :class:`~repro.resilience.guard.SelfHealingChannel` wires those to a
    primitive's degraded mode and the controller's QP reconnect.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        config: Optional[CircuitBreakerConfig] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.config = config if config is not None else CircuitBreakerConfig()
        self.config.validate()
        # Seeded probe jitter: callers pass a SeedSequence stream; the
        # fallback is a fixed-seed Random so an unconfigured breaker is
        # still deterministic (never wall-clock entropy).
        self.rng = rng if rng is not None else random.Random(0)
        self.state = BREAKER_CLOSED
        self.on_open: List[BreakerCallback] = []
        self.on_half_open: List[BreakerCallback] = []
        self.on_close: List[BreakerCallback] = []
        self._failures = 0
        self._successes = 0
        self._current_open_timeout = self.config.open_timeout_ns
        # Monotone epoch guarding scheduled callbacks: any transition
        # bumps it, so a stale half-open timer or probe watchdog from a
        # previous episode is a no-op when it fires.
        self._epoch = 0
        self._opened_at: Optional[float] = None
        # Terminal stand-down: a disarmed breaker ignores every event and
        # never transitions again (see :meth:`disarm`).
        self._disarmed = False
        obs = sim.obs
        self.metrics = obs.registry.unique_scope(
            f"resilience.breaker[{name}]"
        )
        self._m_opens = self.metrics.counter("opens")
        self._m_half_opens = self.metrics.counter("half_opens")
        self._m_closes = self.metrics.counter("closes")
        self._m_probe_failures = self.metrics.counter("probe_failures")
        self._m_suppressed = self.metrics.counter("events_while_open")
        self._m_degraded_ns = self.metrics.counter("degraded_ns")
        self.metrics.gauge("state", fn=lambda: _STATE_CODES[self.state])
        self.metrics.gauge("consecutive_failures", fn=lambda: self._failures)
        self._trace = obs.trace
        self._trace_node = f"breaker:{name}"

    # -- convenience state tests ------------------------------------------------

    @property
    def is_closed(self) -> bool:
        return self.state == BREAKER_CLOSED

    @property
    def is_open(self) -> bool:
        return self.state == BREAKER_OPEN

    @property
    def degraded_ns(self) -> float:
        """Total simulated time spent non-closed (running total)."""
        total = float(self._m_degraded_ns.value)
        if self._opened_at is not None:
            total += self.sim.now - self._opened_at
        return total

    @property
    def opens(self) -> int:
        return self._m_opens.value

    @property
    def closes(self) -> int:
        return self._m_closes.value

    @property
    def probe_failures(self) -> int:
        return self._m_probe_failures.value

    @property
    def disarmed(self) -> bool:
        return self._disarmed

    def disarm(self) -> None:
        """Stand this breaker down permanently.

        An open breaker on a channel that will *never* come back — its
        member was declared dead and failed out of the pool — would
        otherwise probe forever: every half-open probe times out, re-trips
        with backoff, and schedules the next attempt.  ``disarm`` is the
        terminal exit: pending timers are cancelled (epoch bump), future
        events are ignored, and the degraded-time ledger is closed out.
        The state is left as-is for post-mortem inspection.
        """
        if self._disarmed:
            return
        self._disarmed = True
        self._epoch += 1  # cancels any scheduled half-open / probe check
        if self._opened_at is not None:
            self._m_degraded_ns.value += int(self.sim.now - self._opened_at)
            self._opened_at = None

    # -- wiring -----------------------------------------------------------------

    def watch(self, rocegen: RoceRequestGenerator) -> None:
        """Subscribe to *rocegen*'s health events."""
        rocegen.health_listeners.append(self._on_health)

    def watch_requester(self, rnic) -> None:
        """Subscribe to *rnic*'s retry-exhaustion verdicts."""
        rnic.on_retry_exhausted.append(self._on_retries_exhausted)

    def _on_health(self, gen: RoceRequestGenerator, event: str) -> None:
        self.record(event)

    def _on_retries_exhausted(self, qp) -> None:
        self.record("retries_exhausted")

    # -- event intake -----------------------------------------------------------

    def record(self, event: str) -> None:
        """Feed one health event into the state machine."""
        if self._disarmed:
            return  # late responses on a stood-down channel are noise
        if event == "nak":
            return  # a NAK alone is evidence of *loss*, not of a dead path
        if event == "progress":
            self._record_success()
            return
        if event not in _FAILURE_EVENTS:
            raise ValueError(f"unknown health event: {event!r}")
        self._record_failure()

    def _record_success(self) -> None:
        if self.state == BREAKER_CLOSED:
            self._failures = 0
        elif self.state == BREAKER_HALF_OPEN:
            self._successes += 1
            if self._successes >= self.config.close_threshold:
                self._close()
        # open: late responses from before the trip change nothing — only
        # a probe observed in half-open may close the breaker.

    def _record_failure(self) -> None:
        if self.state == BREAKER_CLOSED:
            self._failures += 1
            if self._failures >= self.config.fail_threshold:
                self.trip()
        elif self.state == BREAKER_HALF_OPEN:
            self._m_probe_failures.value += 1
            self.trip()
        else:
            self._m_suppressed.value += 1

    # -- transitions ------------------------------------------------------------

    def trip(self) -> None:
        """Open the breaker now (fired internally; public for operators)."""
        if self._disarmed or self.state == BREAKER_OPEN:
            return
        was = self.state
        if was == BREAKER_HALF_OPEN:
            # A failed probe backs the next attempt off; the wait resets
            # only when a fresh episode trips from closed.
            self._current_open_timeout = min(
                self._current_open_timeout * self.config.backoff,
                self.config.max_open_timeout_ns,
            )
        else:
            self._current_open_timeout = self.config.open_timeout_ns
            self._opened_at = self.sim.now
        self.state = BREAKER_OPEN
        self._failures = 0
        self._successes = 0
        self._m_opens.value += 1
        self._transition_trace(was, BREAKER_OPEN)
        for callback in list(self.on_open):
            callback(self)
        self._epoch += 1
        delay = self._current_open_timeout + (
            self.rng.uniform(0.0, self.config.probe_jitter_ns)
            if self.config.probe_jitter_ns > 0
            else 0.0
        )
        self.sim.schedule(delay, self._go_half_open, self._epoch)

    def _go_half_open(self, epoch: int) -> None:
        # The disarmed check matters when disarm() ran inside this very
        # trip's on_open callbacks: the trip then still scheduled this
        # timer with a fresh epoch, so the epoch guard alone won't stop it.
        if epoch != self._epoch or self.state != BREAKER_OPEN or self._disarmed:
            return
        self.state = BREAKER_HALF_OPEN
        self._successes = 0
        self._m_half_opens.value += 1
        self._transition_trace(BREAKER_OPEN, BREAKER_HALF_OPEN)
        for callback in list(self.on_half_open):
            callback(self)
        # Arm the probe watchdog only if a callback did not already
        # resolve the probe synchronously (possible under zero latency).
        if self.state == BREAKER_HALF_OPEN and epoch == self._epoch:
            self.sim.schedule(
                self.config.probe_timeout_ns, self._probe_check, epoch
            )

    def _probe_check(self, epoch: int) -> None:
        if epoch != self._epoch or self.state != BREAKER_HALF_OPEN:
            return
        # The canary got no response inside the window: the path is still
        # dead, and silence — unlike a NAK — is stall evidence.
        self._m_probe_failures.value += 1
        self.trip()

    def _close(self) -> None:
        was = self.state
        self.state = BREAKER_CLOSED
        self._failures = 0
        self._successes = 0
        self._epoch += 1  # cancels any pending probe watchdog
        self._current_open_timeout = self.config.open_timeout_ns
        if self._opened_at is not None:
            self._m_degraded_ns.value += int(self.sim.now - self._opened_at)
            self._opened_at = None
        self._m_closes.value += 1
        self._transition_trace(was, BREAKER_CLOSED)
        for callback in list(self.on_close):
            callback(self)

    def _transition_trace(self, old: str, new: str) -> None:
        if self._trace is not None:
            self._trace.emit(
                self.sim.now,
                self._trace_node,
                0,
                KIND_BREAKER,
                channel=f"{old}->{new}",
            )

    def __repr__(self) -> str:
        return f"<CircuitBreaker {self.name!r} {self.state}>"
