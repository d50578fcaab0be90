"""Per-member health tracking fed by channel health signals.

Every :class:`~repro.core.rocegen.RoceRequestGenerator` emits the same
event vocabulary — ``nak`` / ``strike`` / ``timeout`` / ``progress`` —
regardless of which primitive drives it.  The monitor aggregates those
events per pool member and turns *consecutive* stall evidence (strikes
and timeouts with no progress in between) into an up/down verdict, the
cluster-level generalization of the packet buffer's original private
``failover_strikes`` counter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..core.rocegen import RoceRequestGenerator
from ..obs.registry import MetricRegistry

#: Membership verdict callbacks receive the member name.
MemberCallback = Callable[[str], None]


@dataclass
class MemberHealth:
    """Aggregated health counters for one pool member."""

    naks: int = 0
    strikes: int = 0
    timeouts: int = 0
    progress: int = 0
    #: Strikes/timeouts since the last progress event (the down trigger).
    consecutive_stalls: int = 0
    alive: bool = True
    #: Channels reporting into this member (for snapshots).
    watched: int = 0


class HealthMonitor:
    """Turns uniform channel health events into member up/down verdicts.

    A member goes *down* after ``fail_after`` consecutive stall events
    (strike or timeout) with no intervening progress from any of its
    watched channels — the same hysteresis the §7 failover logic applies,
    but shared by every primitive instead of private to one.  NAKs alone
    never count: one loss event produces a NAK burst, and a channel that
    resynchronizes and makes progress is healthy.
    """

    def __init__(
        self, fail_after: int = 3, registry: Optional[MetricRegistry] = None
    ) -> None:
        if fail_after < 1:
            raise ValueError("fail_after must be >= 1")
        self.fail_after = fail_after
        self.members: Dict[str, MemberHealth] = {}
        self.on_member_down: List[MemberCallback] = []
        # When given a registry (the pool passes the simulation's), every
        # member's health surfaces under cluster.member[<name>].* — the
        # event counters plus alive/consecutive_stalls sampled live.
        self._registry = registry
        self._member_counters: Dict[str, Dict[str, object]] = {}

    # -- wiring -------------------------------------------------------------------

    def track(self, member: str) -> MemberHealth:
        health = self.members.get(member)
        if health is None:
            health = MemberHealth()
            self.members[member] = health
            if self._registry is not None:
                scope = self._registry.unique_scope(
                    f"cluster.member[{member}]"
                )
                self._member_counters[member] = {
                    event: scope.counter(event)
                    for event in ("nak", "strike", "timeout", "progress")
                }
                scope.gauge("alive", fn=lambda h=health: int(h.alive))
                scope.gauge(
                    "consecutive_stalls",
                    fn=lambda h=health: h.consecutive_stalls,
                )
                scope.gauge("watched_channels", fn=lambda h=health: h.watched)
        return health

    def watch(
        self, member: str, rocegen: RoceRequestGenerator
    ) -> Callable[[], None]:
        """Subscribe to *rocegen*'s health events under *member*'s name.

        Several monitors (or a test probe) can observe the same channel.
        Returns an *unwatch* callable that detaches the subscription; it
        is also registered on the channel's ``teardown_callbacks`` so
        ``close_channel`` silences the watch automatically — a
        closed-then-reopened channel must not keep striking its old member.
        """

        def listen(gen: RoceRequestGenerator, event: str) -> None:
            self.record(member, event)

        unwatch = self._subscribe(member, rocegen.health_listeners, listen)
        rocegen.channel.teardown_callbacks.append(unwatch)
        return unwatch

    def watch_requester(self, member: str, rnic) -> Callable[[], None]:
        """Subscribe to *rnic*'s retry-exhaustion verdicts under *member*.

        The requester-side complement of :meth:`watch`: when the RNIC's
        go-back-N machinery gives up on a QP (``max_retries`` fruitless
        timeout rounds — a silent peer, not a NAKing one), that terminal
        evidence lands here as a ``timeout`` event.  Returns the matching
        *unwatch* callable.
        """

        def escalate(qp) -> None:
            self.record(member, "timeout")

        return self._subscribe(member, rnic.on_retry_exhausted, escalate)

    def _subscribe(
        self, member: str, listeners: List[Callable], listener: Callable
    ) -> Callable[[], None]:
        """Append *listener* to *listeners* as one of *member*'s watches;
        returns the idempotent *unwatch*."""
        health = self.track(member)
        health.watched += 1
        listeners.append(listener)

        def unwatch() -> None:
            if listener in listeners:
                listeners.remove(listener)
                health.watched -= 1

        return unwatch

    # -- event intake --------------------------------------------------------------

    def record(self, member: str, event: str) -> None:
        health = self.track(member)
        counters = self._member_counters.get(member)
        if counters is not None and event in counters:
            counters[event].value += 1
        if event == "progress":
            health.progress += 1
            health.consecutive_stalls = 0
            return
        if event == "nak":
            health.naks += 1
            return
        if event == "strike":
            health.strikes += 1
        elif event == "timeout":
            health.timeouts += 1
        else:
            raise ValueError(f"unknown health event: {event!r}")
        health.consecutive_stalls += 1
        if health.alive and health.consecutive_stalls >= self.fail_after:
            self.mark_down(member)

    # -- verdicts -----------------------------------------------------------------

    def is_alive(self, member: str) -> bool:
        health = self.members.get(member)
        return health.alive if health is not None else True

    def mark_down(self, member: str) -> None:
        health = self.track(member)
        if not health.alive:
            return
        health.alive = False
        for callback in list(self.on_member_down):
            callback(member)

    def snapshot(self) -> Dict[str, dict]:
        """Per-member counters, for experiments and operator dashboards."""
        return {
            name: {
                "alive": h.alive,
                "naks": h.naks,
                "strikes": h.strikes,
                "timeouts": h.timeouts,
                "progress": h.progress,
                "consecutive_stalls": h.consecutive_stalls,
                "watched_channels": h.watched,
            }
            for name, h in sorted(self.members.items())
        }
