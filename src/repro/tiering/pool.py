"""The tiered memory pool: DRAM homes fronted by a bounded fast tier.

:class:`TieredMemoryPool` extends the :class:`~repro.cluster.pool.MemoryPool`
with a small fast tier (RDCA-style cache capacity: an on-server LLC slice
or a dedicated low-latency member) and a first-class
:class:`~repro.policies.placement.PlacementPolicy` deciding which blocks
of which objects live there.  The pool owns three things:

* **Budget** — ``fast_capacity_bytes`` bounds everything placed fast,
  enforced at reservation time so the ``tiering.tier[fast].occupancy``
  gauge can never exceed the bound (asserted in tests and CI).
* **Geometry wiring** — :meth:`tier_object` opens the DRAM home channel
  and the fast window channel for one object and returns its
  :class:`~repro.tiering.geometry.TieredRegionGeometry`.
* **The policy tick** — access counters drain into a
  :class:`~repro.policies.placement.PlacementView` every ``tick_ns`` of
  simulated time; the policy plans :class:`TierMove`\\ s and the pool
  executes them as control-plane block copies.  The tick is
  *self-arming*: it re-schedules itself only while there is activity,
  so ``sim.run()`` still terminates.

Degraded mode demotes, not drops (ISSUE requirement): when a member
hosting fast windows leaves gracefully the pool writes every fast block
back to DRAM before the channels close; when the health monitor declares
it dead the fast bytes are unreachable, so the pool remaps to the DRAM
home and counts the abandoned blocks instead of pretending nothing
happened.
"""

from __future__ import annotations

from typing import Dict, Optional, Union

from ..cluster.pool import MemoryPool, PoolMember
from ..core.channel import RdmaChannelController
from ..policies.placement import (
    BlockStat,
    PlacementPolicy,
    PlacementView,
    make_placement_policy,
)
from ..rdma.memory import TIER_DRAM, TIER_FAST, TIERS, AccessFlags
from ..sim.units import kib
from .geometry import TieredRegionGeometry

#: Default policy-tick period: 50 µs of simulated time, a few hundred
#: data-plane operations per tick at line rate — frequent enough to
#: track a shifting working set, coarse enough to amortize the plan.
DEFAULT_TICK_NS = 50_000.0


class TieredMemoryPool(MemoryPool):
    """A :class:`MemoryPool` with a bounded fast tier and placement policy."""

    def __init__(
        self,
        controller: RdmaChannelController,
        policy: Union[str, PlacementPolicy] = "frequency",
        policy_seed: int = 0,
        fast_capacity_bytes: int = kib(256),
        tick_ns: float = DEFAULT_TICK_NS,
        vnodes: int = 128,
        seed: int = 0,
        fail_after: int = 3,
    ) -> None:
        super().__init__(
            controller, vnodes=vnodes, seed=seed, fail_after=fail_after
        )
        if fast_capacity_bytes <= 0:
            raise ValueError("fast_capacity_bytes must be positive")
        self.sim = controller.switch.sim
        self.fast_capacity_bytes = fast_capacity_bytes
        self.tick_ns = tick_ns
        self.metrics = self.sim.obs.registry.unique_scope("tiering")
        if isinstance(policy, str):
            policy = make_placement_policy(
                policy,
                seed=policy_seed,
                metrics_scope=self.metrics.child("policy"),
            )
        self.policy = policy
        self.geometries: Dict[str, TieredRegionGeometry] = {}
        #: Fast bytes committed to object windows; reservations, not
        #: occupancy — occupancy is what is resident.
        self._fast_reserved = 0
        self._tick_event = None

        fast = self.metrics.child(f"tier[{TIER_FAST}]")
        dram = self.metrics.child(f"tier[{TIER_DRAM}]")
        self._tier_scopes = {TIER_FAST: fast, TIER_DRAM: dram}
        fast.gauge("occupancy", fn=self._fast_occupancy_bytes)
        dram.gauge("occupancy", fn=self._dram_occupancy_bytes)
        #: High-water mark of fast occupancy — the value the CI smoke job
        #: asserts against ``fast_capacity_bytes``.
        self._g_fast_peak = fast.gauge("occupancy_peak")
        self._m_moves = {
            TIER_FAST: fast.counter("promotions"),
            TIER_DRAM: dram.counter("demotions"),
        }
        # Present-on-both so the documented name scheme
        # ``tiering.tier[fast|dram].{occupancy,promotions,demotions,hits,misses}``
        # is fully populated (arrivals are counted on the destination tier,
        # so fast.demotions / dram.promotions stay zero by convention).
        fast.counter("demotions")
        dram.counter("promotions")
        self._m_hits = {
            TIER_FAST: fast.counter("hits"),
            TIER_DRAM: dram.counter("hits"),
        }
        self._m_misses = {
            TIER_FAST: fast.counter("misses"),
            TIER_DRAM: dram.counter("misses"),
        }
        self._m_ticks = self.metrics.counter("ticks")
        self._m_skipped = self.metrics.counter("moves_skipped")
        self._m_abandoned = self.metrics.counter("blocks_abandoned")
        self.listeners.append(self)

    # -- occupancy ------------------------------------------------------------

    def _fast_occupancy_bytes(self) -> int:
        return sum(g.fast_bytes for g in self.geometries.values())

    def _dram_occupancy_bytes(self) -> int:
        total = sum(g.total_bytes for g in self.geometries.values())
        fast = sum(g.fast_bytes for g in self.geometries.values())
        return total - fast

    @property
    def fast_free_bytes(self) -> int:
        """Unreserved fast budget available to new placements."""
        return self.fast_capacity_bytes - self._fast_reserved

    def _reserve_fast(self, nbytes: int, what: str) -> None:
        if nbytes > self.fast_free_bytes:
            raise ValueError(
                f"{what}: {nbytes} B exceeds remaining fast budget "
                f"({self.fast_free_bytes} of {self.fast_capacity_bytes} B)"
            )
        self._fast_reserved += nbytes

    def _note_fast_peak(self) -> None:
        occupancy = self._fast_occupancy_bytes()
        if occupancy > (self._g_fast_peak.value or 0):
            self._g_fast_peak.set(occupancy)

    # -- placement ------------------------------------------------------------

    def _fast_home(self, member: Optional[PoolMember]) -> PoolMember:
        """Where fast windows land: a fast-tier member if enrolled, else
        colocated on the object's DRAM member with a fast channel override
        (the single-server dual-tier topology — RDCA's LLC model)."""
        fast_members = self.members_in_tier(TIER_FAST)
        if fast_members:
            return fast_members[0]
        if member is None:
            raise ValueError("no fast member and no DRAM member to colocate on")
        return member

    def tier_object(
        self,
        name: str,
        unit_bytes: int,
        units: int,
        units_per_block: int = 64,
        member: Optional[PoolMember] = None,
        fast_member: Optional[PoolMember] = None,
        fast_blocks: Optional[int] = None,
        pin: Optional[str] = None,
        access: AccessFlags = AccessFlags.ALL_REMOTE,
    ) -> TieredRegionGeometry:
        """Place one remote object: full-size DRAM home + bounded fast window.

        ``fast_blocks`` sizes the window (default: the remaining fast
        budget, at least one block, at most the whole object); ``pin``
        pins every block to one tier up front (``"fast"`` pre-promotes).
        Returns the geometry; the owning primitive passes it as its
        ``tiering=`` argument.
        """
        if name in self.geometries:
            raise ValueError(f"object {name!r} is already tiered")
        if member is None:
            member = self.member_for(name.encode())
        block_bytes = units_per_block * unit_bytes
        total_blocks = (units + units_per_block - 1) // units_per_block
        if fast_blocks is None:
            fast_blocks = min(total_blocks, self.fast_free_bytes // block_bytes)
        if fast_blocks < 1:
            raise ValueError(
                f"{name}: fast window needs at least one {block_bytes} B "
                f"block ({self.fast_free_bytes} B of budget left)"
            )
        fast_bytes = fast_blocks * block_bytes
        self._reserve_fast(fast_bytes, name)

        dram_channel = self.open_channel(
            member, units * unit_bytes, name=f"{name}:dram", access=access
        )
        home = fast_member or self._fast_home(member)
        fast_channel = self.open_channel(
            home, fast_bytes, name=f"{name}:fast", access=access, tier=TIER_FAST
        )
        obs = self.sim.obs
        geometry = TieredRegionGeometry(
            name,
            dram_channel,
            fast_channel,
            unit_bytes,
            units,
            units_per_block=units_per_block,
            trace=obs.trace,
            clock=lambda: self.sim.now,
        )
        geometry.on_access = self._on_access
        geometry.on_move = self._on_move
        self.geometries[name] = geometry
        if pin is not None:
            if pin not in TIERS:
                raise ValueError(f"unknown pin tier {pin!r}")
            geometry.pin_object(pin)
            if pin == TIER_FAST:
                for block in range(min(fast_blocks, total_blocks)):
                    geometry.promote(block, reason="pin")
        return geometry

    # -- access + move accounting ----------------------------------------------

    def _on_access(self, tier: str) -> None:
        self._m_hits[tier].value += 1
        other = TIER_DRAM if tier == TIER_FAST else TIER_FAST
        self._m_misses[other].value += 1
        self._arm_tick()

    def _on_move(self, block: int, to_tier: str, reason: str) -> None:
        self._m_moves[to_tier].value += 1
        if reason == "abandon":
            self._m_abandoned.value += 1
        if to_tier == TIER_FAST:
            self._note_fast_peak()

    # -- the policy tick --------------------------------------------------------

    def _arm_tick(self) -> None:
        if self._tick_event is None and self.tick_ns > 0:
            self._tick_event = self.sim.schedule(self.tick_ns, self._tick_fire)

    def _tick_fire(self) -> None:
        self._tick_event = None
        if self.tick() > 0:
            self._arm_tick()

    def tick(self) -> int:
        """Run one policy round now; returns accesses drained + moves made.

        Builds the :class:`PlacementView` from every geometry's drained
        access counters — sparse: a block appears only if it was touched,
        is fast-resident, or carries a pin the policy may need to honour —
        then executes the plan.  Busy blocks (in-flight RDMA ops) refuse
        to move; those refusals are counted, and the policy simply sees
        the block again next tick.
        """
        stats = []
        fast_capacity = 0
        fast_used = 0
        for name in sorted(self.geometries):
            geometry = self.geometries[name]
            counts = geometry.drain_access_counts()
            fast_capacity += geometry.fast_capacity
            fast_used += geometry.fast_used
            interesting = set(counts)
            interesting.update(geometry._fast_slot)
            for block, pin_tier in geometry.pins.items():
                if geometry.tier_of_block(block) != pin_tier:
                    interesting.add(block)
            for block in sorted(interesting):
                stats.append(
                    BlockStat(
                        object_name=name,
                        block=block,
                        tier=geometry.tier_of_block(block),
                        accesses=counts.get(block, 0),
                        pin=geometry.pins.get(block),
                        busy=geometry._is_busy(block),
                    )
                )
        drained = sum(stat.accesses for stat in stats)
        view = PlacementView(
            blocks=stats, fast_capacity=fast_capacity, fast_used=fast_used
        )
        executed = 0
        for move in self.policy.plan(view):
            geometry = self.geometries.get(move.object_name)
            if geometry is None:
                continue
            if move.to_tier == TIER_FAST:
                moved = geometry.promote(move.block, reason=move.reason)
            else:
                moved = geometry.demote(move.block, reason=move.reason)
            if moved:
                executed += 1
            else:
                self._m_skipped.value += 1
        self._m_ticks.value += 1
        return drained + executed

    # -- membership (PoolListener on ourselves) ----------------------------------

    def on_member_join(self, member: PoolMember) -> None:
        pass

    def on_member_leave(self, member: PoolMember, graceful: bool) -> None:
        """Degrade = demote, not drop (DESIGN.md §13).

        Graceful leave: the member's regions are still reachable from the
        control plane, so every fast block is written back to its DRAM
        home *before* the channels close — zero updates lost.  Dead
        member: the fast bytes are gone; remap to the DRAM home and count
        the abandoned blocks (replication's job to repair).
        """
        for geometry in self.geometries.values():
            if not any(geometry.fast_channel is c for c in member.channels):
                continue
            if graceful:
                geometry.demote_all(force=True)
            else:
                geometry.abandon_fast()
            geometry.fast_enabled = False

    def __repr__(self) -> str:
        return (
            f"<TieredMemoryPool {len(self.geometries)} objects "
            f"fast={self._fast_occupancy_bytes()}/{self.fast_capacity_bytes}B>"
        )
