"""Fault injectors: where the models meet the simulated hardware.

Two attachment points, matching where real failures live:

* :class:`LinkFaultInjector` hooks a :class:`~repro.net.link.Link` (the
  wire itself — the corruption/loss path LinkGuardian instruments), and
  applies armed :class:`~repro.faults.models.LinkFault` models to every
  packet the link carries.
* :class:`RnicFaultInjector` hooks an :class:`~repro.rdma.rnic.Rnic`
  (the far-end NIC — §5's "RDMA requests were occasionally dropped at
  the NIC", and the fragile receive pipeline RDCA documents), dropping
  or stalling traffic *after* it survived the wire.

Both claim a scope in the simulation's metric registry
(``faults.link[<name>]`` / ``faults.rnic[<name>]``) so every injected
event is accounted, and emit ``FAULT`` events into the wire trace when
tracing is on — a chaos run's trace interleaves the faults with the
recovery they provoked, on one timeline.

Injectors are mechanism; policy (what to inject, when, with which seed)
belongs to :class:`~repro.faults.plan.FaultPlan`.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from ..net.link import Link
from ..net.packet import Packet
from ..obs.registry import Counter
from ..obs.trace import KIND_FAULT
from ..rdma.headers import BthHeader
from ..rdma.rnic import Rnic
from .models import Delivery, LinkFault


class _PacketTrigger:
    """Arm *fault* on the Nth carried packet, optionally for a count."""

    def __init__(self, nth: int, fault: LinkFault, count: Optional[int]) -> None:
        if nth < 1:
            raise ValueError(f"nth must be >= 1, got {nth}")
        if count is not None and count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        self.nth = nth
        self.fault = fault
        self.count = count


class LinkFaultInjector:
    """Applies armed fault models to every packet a link carries.

    Installs itself as ``link.fault_injector``; the link forwards each
    ``carry()`` here instead of scheduling delivery directly.  With no
    models armed the injector is pass-through (one propagation-delay
    schedule, exactly what the link would have done).

    ``direction`` restricts injection to one half of the duplex pair:
    ``"a2b"`` / ``"b2a"`` (as the link names its interfaces) or
    ``"both"``.  Asymmetric impairment matters — a lossy request path
    exercises responder-side NAKs, a lossy response path exercises
    requester timeouts, and they recover differently.
    """

    def __init__(
        self,
        link: Link,
        name: Optional[str] = None,
        rng: Optional[random.Random] = None,
        direction: str = "both",
    ) -> None:
        if direction not in ("both", "a2b", "b2a"):
            raise ValueError(f"bad direction: {direction!r}")
        self.link = link
        self.name = (
            name
            if name is not None
            else f"{link.a.node.name}<->{link.b.node.name}"
        )
        self.rng = rng if rng is not None else random.Random(0)
        self.direction = direction
        self.models: List[LinkFault] = []
        self._triggers: List[_PacketTrigger] = []
        self._seen = 0
        obs = link.sim.obs
        #: This injector's scope in the simulation's metric registry;
        #: per-effect counters (dropped, corrupted, duplicated, ...) are
        #: created lazily as effects occur.
        self.metrics = obs.registry.unique_scope(f"faults.link[{self.name}]")
        self._trace = obs.trace
        self._trace_node = f"fault:{self.name}"
        self._m_carried = self.metrics.counter("carried")
        self._m_delivered = self.metrics.counter("delivered")
        self._counters: Dict[str, Counter] = {}
        self.metrics.gauge("active_models", fn=lambda s=self: len(s.models))
        link.fault_injector = self

    # -- arming ---------------------------------------------------------------

    def arm(self, fault: LinkFault) -> LinkFault:
        """Activate *fault* (idempotent); models apply in arming order."""
        fault.bind(self.rng)
        if fault not in self.models:
            self.models.append(fault)
        return fault

    def disarm(self, fault: LinkFault) -> None:
        """Deactivate *fault*; unknown faults are ignored (already healed)."""
        if fault in self.models:
            self.models.remove(fault)

    def when_packet(
        self, nth: int, fault: LinkFault, count: Optional[int] = None
    ) -> None:
        """Arm *fault* when the *nth* packet enters the link (1-based).

        With *count*, disarm again after that many further packets — the
        "break exactly the Nth request" probe a targeted regression test
        needs.
        """
        fault.bind(self.rng)
        self._triggers.append(_PacketTrigger(nth, fault, count))

    # -- accounting -----------------------------------------------------------

    def count(self, effect: str) -> Counter:
        counter = self._counters.get(effect)
        if counter is None:
            counter = self.metrics.counter(effect)
            self._counters[effect] = counter
        return counter

    @property
    def effects(self) -> Dict[str, int]:
        """Injected-effect totals for *this* injector (``{effect: n}``).

        Read these rather than snapshotting the registry by scope name:
        under a shared registry (e.g. a benchmark harness running several
        sweeps inside one ``Observability.activate()``) later injectors
        get ``#2``-suffixed scopes, and a name-based snapshot silently
        reads the wrong run's counters.
        """
        return {name: c.value for name, c in sorted(self._counters.items())}

    @property
    def dropped(self) -> int:
        """Total packets this injector removed, across all loss models."""
        return sum(
            value
            for name, value in self.effects.items()
            if name == "dropped" or name.endswith("_dropped")
        )

    def note(self, effect: str, packet: Packet) -> None:
        """Record one injected *effect* on *packet* (registry + trace)."""
        self.count(effect).value += 1
        if self._trace is not None:
            bth = packet.find(BthHeader)
            self._trace.emit(
                self.link.sim.now,
                self._trace_node,
                bth.dest_qp if bth is not None else 0,
                KIND_FAULT,
                psn=bth.psn if bth is not None else None,
                wire_bytes=packet.wire_len,
                channel=effect,
            )

    # -- the data path --------------------------------------------------------

    def carry(self, link: Link, src, packet: Packet) -> None:
        """Carry *packet* across *link*, applying every armed model."""
        dst = link.peer_of(src)
        self._seen += 1
        self._m_carried.value += 1
        for trigger in list(self._triggers):
            if self._seen == trigger.nth:
                self.arm(trigger.fault)
                if trigger.count is None:
                    self._triggers.remove(trigger)
            elif (
                trigger.count is not None
                and self._seen == trigger.nth + trigger.count
            ):
                self.disarm(trigger.fault)
                self._triggers.remove(trigger)
        deliveries: List[Delivery] = [(link.propagation_ns, packet)]
        if self.models and self._in_scope(link, src):
            for model in list(self.models):
                deliveries = model.apply(deliveries, self)
                if not deliveries:
                    break
        for delay, delivered in deliveries:
            self._m_delivered.value += 1
            link.sim.post(delay, dst.deliver, delivered)

    def _in_scope(self, link: Link, src) -> bool:
        if self.direction == "both":
            return True
        forward = src is link.a
        return forward if self.direction == "a2b" else not forward


# -- RNIC-side faults ----------------------------------------------------------


class RnicFault:
    """Base class for scheduled RNIC fault actions.

    Unlike link models these are not per-packet transformers: they flip
    injector state on (:meth:`start`) and off (:meth:`stop`), matching
    how NIC-level failures behave — a pipeline wedges for a while, then
    recovers (or doesn't).
    """

    name = "rnic-fault"

    def bind(self, rng: random.Random) -> None:
        """RNIC faults are deterministic; the RNG hook exists for symmetry."""

    def start(self, injector: "RnicFaultInjector") -> None:
        raise NotImplementedError

    def stop(self, injector: "RnicFaultInjector") -> None:
        """Default: one-shot faults have nothing to undo."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__}>"


class RnicBlackout(RnicFault):
    """The NIC stops answering entirely (firmware wedge, PCIe hang).

    Every arriving packet is swallowed for the armed window.  This is
    the RDCA failure mode: the host and link are fine, the NIC is not.
    Requesters see pure silence — no NAKs — so only timeout-driven
    go-back-N recovers, and a long enough blackout escalates through
    retry exhaustion into the cluster health monitor.
    """

    name = "rnic-blackout"

    def start(self, injector: "RnicFaultInjector") -> None:
        injector.start_blackout()

    def stop(self, injector: "RnicFaultInjector") -> None:
        injector.end_blackout()


class RnicDropBurst(RnicFault):
    """Drop the next *n* packets that reach the NIC.

    The §5 observation made injectable: "RDMA requests were occasionally
    dropped at the NIC" under pressure.  A short burst exercises the NAK
    path (later requests arrive with a PSN gap); the requester must
    go-back-N without losing completions.
    """

    name = "rnic-drop-burst"

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError(f"burst size must be >= 1, got {n}")
        self.n = n

    def start(self, injector: "RnicFaultInjector") -> None:
        injector.drop_next(self.n)


class AtomicEngineStall(RnicFault):
    """Freeze the NIC's atomic engine for a while.

    The bounded Fetch-and-Add engine (the reason the paper caps
    outstanding atomics) stops retiring operations for ``stall_ns``;
    queued atomics still execute in memory order but their responses
    wait out the stall.  Requester timeouts during the stall produce
    duplicate Fetch-and-Adds, which the responder's replay cache must
    answer without re-applying — exactly-once under delay.
    """

    name = "atomic-stall"

    def __init__(self, stall_ns: float) -> None:
        if stall_ns <= 0:
            raise ValueError(f"stall must be positive, got {stall_ns}")
        self.stall_ns = stall_ns

    def start(self, injector: "RnicFaultInjector") -> None:
        injector.stall_atomics(self.stall_ns)


class RnicFaultInjector:
    """Wraps one RNIC's packet entry point with injectable failures.

    Shadows ``rnic.handle_packet`` with an instance attribute; packets
    the injector lets through reach the original bound method, so the
    RNIC model itself is untouched.  Drops happen *before* the RNIC sees
    the packet — from the requester's perspective indistinguishable from
    wire loss, which is the point: §5 could not tell either.
    """

    def __init__(self, rnic: Rnic, name: Optional[str] = None) -> None:
        self.rnic = rnic
        self.sim = rnic.sim
        self.name = name if name is not None else rnic.name
        self.blackout = False
        self._drop_budget = 0
        obs = self.sim.obs
        self.metrics = obs.registry.unique_scope(f"faults.rnic[{self.name}]")
        self._trace = obs.trace
        self._trace_node = f"fault:{self.name}"
        self._m_blackout_drops = self.metrics.counter("blackout_drops")
        self._m_burst_drops = self.metrics.counter("burst_drops")
        self._m_blackouts = self.metrics.counter("blackouts")
        self._m_atomic_stalls = self.metrics.counter("atomic_stalls")
        self.metrics.gauge("blacked_out", fn=lambda s=self: int(s.blackout))
        self._inner = rnic.handle_packet
        rnic.handle_packet = self._handle_packet  # type: ignore[method-assign]
        rnic.fault_injector = self  # type: ignore[attr-defined]

    def _handle_packet(self, packet: Packet) -> None:
        if self.blackout:
            self._m_blackout_drops.value += 1
            self._note("blackout_drop", packet)
            return
        if self._drop_budget > 0:
            self._drop_budget -= 1
            self._m_burst_drops.value += 1
            self._note("burst_drop", packet)
            return
        self._inner(packet)

    def _note(self, effect: str, packet: Packet) -> None:
        if self._trace is not None:
            bth = packet.find(BthHeader)
            self._trace.emit(
                self.sim.now,
                self._trace_node,
                bth.dest_qp if bth is not None else 0,
                KIND_FAULT,
                psn=bth.psn if bth is not None else None,
                wire_bytes=packet.wire_len,
                channel=effect,
            )

    @property
    def effects(self) -> Dict[str, int]:
        """Injected-effect totals for *this* injector (``{effect: n}``).

        The RNIC-side twin of :attr:`LinkFaultInjector.effects` — read
        these instead of snapshotting the registry by scope name.
        """
        return {
            "blackout_drops": self._m_blackout_drops.value,
            "burst_drops": self._m_burst_drops.value,
            "blackouts": self._m_blackouts.value,
            "atomic_stalls": self._m_atomic_stalls.value,
        }

    # -- fault actions --------------------------------------------------------

    def start_blackout(self) -> None:
        if not self.blackout:
            self._m_blackouts.value += 1
        self.blackout = True

    def end_blackout(self) -> None:
        self.blackout = False

    def drop_next(self, n: int) -> None:
        """Drop the next *n* packets reaching the NIC (budgets add up)."""
        if n < 1:
            raise ValueError(f"drop count must be >= 1, got {n}")
        self._drop_budget += n

    def stall_atomics(self, stall_ns: float) -> None:
        """Push the atomic engine's next free slot ``stall_ns`` out."""
        self._m_atomic_stalls.value += 1
        self.rnic._atomic_free_at = max(
            self.rnic._atomic_free_at, self.sim.now + stall_ns
        )
