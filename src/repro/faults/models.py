"""Link-level fault models: what can go wrong on a wire, made injectable.

The paper's evaluation assumes a clean point-to-point 40 GbE path between
switch and memory server — §5 only *observes* failures at the far end
("RDMA requests were occasionally dropped at the NIC") and never models
the wire itself misbehaving.  Real deployments do not get that luxury:
LinkGuardian (NUS-SNL) measures corruption loss on exactly this class of
switch-to-NIC link and builds link-local recovery for it, and the same
impairment catalogue (random loss, bursty loss, reordering, duplication,
jitter, bit corruption) is what any RDMA-over-lossy-fabric design must
survive.

Every model here is a small pure-ish transformer over a list of
*deliveries* — ``(delay_ns, packet)`` pairs about to be scheduled onto
the far interface.  Dropping removes a pair, duplication appends clones,
jitter/reordering perturb the delay, corruption swaps in a bit-flipped
clone.  Models draw all randomness from a ``random.Random`` bound by the
owning :class:`~repro.faults.plan.FaultPlan` (derived from
:class:`~repro.sim.rng.SeedSequence`), so a chaos run replays exactly:
same seed, same byte-identical packet timeline.

Models are composable: the :class:`~repro.faults.injectors.LinkFaultInjector`
applies every armed model in arming order, so ``GilbertElliottLoss`` +
``Jitter`` behaves like a flapping cable on a long path.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple, TYPE_CHECKING

from ..net.packet import Packet
from ..rdma.headers import AtomicEthHeader, BthHeader, RethHeader

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .injectors import LinkFaultInjector

#: One scheduled hand-off to the receiving interface.
Delivery = Tuple[float, Packet]


class LinkFault:
    """Base class for link fault models.

    Subclasses override :meth:`apply`, transforming the delivery list for
    one ``carry()`` and reporting effects through the injector (which
    counts them in the registry and emits ``FAULT`` trace events).
    """

    #: Short label used in metric/trace channel names and RNG stream names.
    name = "fault"

    def __init__(self) -> None:
        self.rng: Optional[random.Random] = None

    def bind(self, rng: random.Random) -> None:
        """Attach an RNG stream; the first binding wins.

        A :class:`~repro.faults.plan.FaultPlan` binds each fault to its
        own named :class:`~repro.sim.rng.SeedSequence` stream before the
        run starts, which is what makes chaos runs replayable.
        """
        if self.rng is None:
            self.rng = rng

    def apply(
        self, deliveries: List[Delivery], injector: "LinkFaultInjector"
    ) -> List[Delivery]:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__}>"


class IidLoss(LinkFault):
    """Independent per-packet loss with a fixed probability.

    The memoryless baseline impairment — the chaos experiment sweeps this
    to measure loss rate vs. goodput (and the recovery machinery keeps
    the counter totals exact).
    """

    name = "iid-loss"

    def __init__(self, probability: float) -> None:
        super().__init__()
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"loss probability out of range: {probability}")
        self.probability = probability

    def apply(
        self, deliveries: List[Delivery], injector: "LinkFaultInjector"
    ) -> List[Delivery]:
        if self.probability <= 0.0:
            return deliveries
        kept: List[Delivery] = []
        for delivery in deliveries:
            if self.rng.random() < self.probability:
                injector.note("dropped", delivery[1])
            else:
                kept.append(delivery)
        return kept


class GilbertElliottLoss(LinkFault):
    """Two-state Markov burst loss (the classic Gilbert-Elliott channel).

    A *good* state that rarely loses and a *bad* state that loses heavily,
    with per-packet transition probabilities between them.  This is the
    standard model for the bursty corruption loss LinkGuardian measures on
    optical links — losses cluster, which is exactly the case that defeats
    naive single-retry recovery and motivates real go-back-N.
    """

    name = "ge-loss"

    def __init__(
        self,
        p_good_bad: float,
        p_bad_good: float,
        loss_good: float = 0.0,
        loss_bad: float = 1.0,
    ) -> None:
        super().__init__()
        for label, p in (
            ("p_good_bad", p_good_bad),
            ("p_bad_good", p_bad_good),
            ("loss_good", loss_good),
            ("loss_bad", loss_bad),
        ):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{label} out of range: {p}")
        self.p_good_bad = p_good_bad
        self.p_bad_good = p_bad_good
        self.loss_good = loss_good
        self.loss_bad = loss_bad
        self.bad = False

    def apply(
        self, deliveries: List[Delivery], injector: "LinkFaultInjector"
    ) -> List[Delivery]:
        kept: List[Delivery] = []
        for delivery in deliveries:
            loss = self.loss_bad if self.bad else self.loss_good
            if loss > 0.0 and self.rng.random() < loss:
                injector.note(
                    "burst_dropped" if self.bad else "dropped", delivery[1]
                )
            else:
                kept.append(delivery)
            flip = self.p_bad_good if self.bad else self.p_good_bad
            if self.rng.random() < flip:
                self.bad = not self.bad
        return kept


class Blackout(LinkFault):
    """Total link outage: every packet in both directions is lost.

    Armed for a window by ``FaultPlan.at(t, injector, Blackout(),
    duration_ns=D)`` this models a cable pull / transceiver death — the
    §7 failover scenario, but recoverable.  Deterministic; draws no
    randomness.
    """

    name = "blackout"

    def apply(
        self, deliveries: List[Delivery], injector: "LinkFaultInjector"
    ) -> List[Delivery]:
        for delivery in deliveries:
            injector.note("blackout_dropped", delivery[1])
        return []


class Duplicate(LinkFault):
    """Deliver extra copies of a packet with some probability.

    RC transports must absorb duplicates (the responder's PSN check and
    atomic replay cache exist for this); this model proves they do.
    Clones share payload bytes but carry independent headers, mirroring
    what a misbehaving switch mirror would emit.
    """

    name = "duplicate"

    def __init__(self, probability: float, copies: int = 1) -> None:
        super().__init__()
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"duplicate probability out of range: {probability}")
        if copies < 1:
            raise ValueError(f"copies must be >= 1, got {copies}")
        self.probability = probability
        self.copies = copies

    def apply(
        self, deliveries: List[Delivery], injector: "LinkFaultInjector"
    ) -> List[Delivery]:
        out: List[Delivery] = []
        for delay, packet in deliveries:
            out.append((delay, packet))
            if self.probability > 0.0 and self.rng.random() < self.probability:
                for _ in range(self.copies):
                    injector.note("duplicated", packet)
                    out.append((delay, packet.clone()))
        return out


class Jitter(LinkFault):
    """Add uniform random extra propagation delay to every packet.

    Stresses the retransmission timeout calibration: jitter close to the
    RTO provokes spurious retransmissions, which the responder must (and
    does) absorb as duplicates.
    """

    name = "jitter"

    def __init__(self, max_ns: float, min_ns: float = 0.0) -> None:
        super().__init__()
        if min_ns < 0 or max_ns < min_ns:
            raise ValueError(f"bad jitter range [{min_ns}, {max_ns}]")
        self.min_ns = min_ns
        self.max_ns = max_ns

    def apply(
        self, deliveries: List[Delivery], injector: "LinkFaultInjector"
    ) -> List[Delivery]:
        out: List[Delivery] = []
        for delay, packet in deliveries:
            extra = self.rng.uniform(self.min_ns, self.max_ns)
            if extra > 0.0:
                injector.note("jittered", packet)
            out.append((delay + extra, packet))
        return out


class Reorder(LinkFault):
    """Hold a packet back so later traffic overtakes it on the wire.

    With probability *probability* a packet is delayed ``hold_ns`` beyond
    normal propagation.  A held *request* arrives with a future-PSN gap
    behind its successors and draws a PSN-sequence NAK — the reordering
    signature the go-back-N requester must tolerate without losing work.
    """

    name = "reorder"

    def __init__(self, probability: float, hold_ns: float = 2_000.0) -> None:
        super().__init__()
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"reorder probability out of range: {probability}")
        if hold_ns <= 0:
            raise ValueError(f"hold_ns must be positive, got {hold_ns}")
        self.probability = probability
        self.hold_ns = hold_ns

    def apply(
        self, deliveries: List[Delivery], injector: "LinkFaultInjector"
    ) -> List[Delivery]:
        out: List[Delivery] = []
        for delay, packet in deliveries:
            if self.probability > 0.0 and self.rng.random() < self.probability:
                injector.note("reordered", packet)
                delay += self.hold_ns
            out.append((delay, packet))
        return out


class Corrupt(LinkFault):
    """Flip one random bit of a packet in flight.

    The corruption loss LinkGuardian studies: the frame arrives, but its
    contents are wrong.  Detection is the ICRC's job — corrupted packets
    fail :func:`repro.rdma.packets.verify_icrc` at the receiver and are
    dropped (counted as ``icrc_drops``), converting corruption into loss
    that the retransmission machinery then repairs.  Packets whose ICRC
    was never computed (``value == 0``, the default for simulation speed)
    are *silently* corrupted — which is precisely the failure mode the
    end-to-end regression test demonstrates integrity protection against
    (see :func:`repro.rdma.packets.set_integrity_default`).

    The original packet object is never touched (sender-side state may
    hold a reference for retransmission); a clone takes the damage.
    """

    name = "corrupt"

    def __init__(self, probability: float) -> None:
        super().__init__()
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"corrupt probability out of range: {probability}")
        self.probability = probability

    def apply(
        self, deliveries: List[Delivery], injector: "LinkFaultInjector"
    ) -> List[Delivery]:
        out: List[Delivery] = []
        for delay, packet in deliveries:
            if self.probability > 0.0 and self.rng.random() < self.probability:
                packet = self._corrupted(packet)
                injector.note("corrupted", packet)
            out.append((delay, packet))
        return out

    def _corrupted(self, packet: Packet) -> Packet:
        mutant = packet.clone()
        if mutant.payload:
            index = self.rng.randrange(len(mutant.payload))
            data = bytearray(mutant.payload)
            data[index] ^= 1 << self.rng.randrange(8)
            mutant.payload = bytes(data)
            return mutant
        # No payload (READ / Fetch-and-Add requests, ACKs): damage the
        # innermost RoCE field instead.  pack() always serialises the
        # current field values, so the stale ICRC trailer no longer
        # matches and verification catches the flip.
        atomic = mutant.find(AtomicEthHeader)
        if atomic is not None:
            atomic.swap_add ^= 1 << self.rng.randrange(48)
            return mutant
        reth = mutant.find(RethHeader)
        if reth is not None:
            reth.virtual_address ^= 1 << self.rng.randrange(48)
            return mutant
        bth = mutant.find(BthHeader)
        if bth is not None:
            bth.psn ^= 1 << self.rng.randrange(20)
        return mutant
