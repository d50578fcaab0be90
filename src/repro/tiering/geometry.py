"""Block-granular tier geometry: which bytes of an object live where.

A :class:`TieredRegionGeometry` fronts one remote object (a counter
array, a lookup table's entry/bucket space) with **two** channels: the
DRAM channel is the object's full-size home, the fast channel is a small
bounded window of *block* slots.  The object's address space is sliced
into fixed-size blocks (``units_per_block`` units of ``unit_bytes``
each); each block is either home in DRAM or resident in exactly one fast
slot.  Primitives resolve every data-plane access through
:meth:`resolve`, which returns the serving tier and virtual address —
the only thing tiering changes on the hot path is *which* (channel,
address) pair an operation targets.

Moves are control-plane region copies, the same mechanism PR 2's shard
migration uses: promotion copies the block's bytes DRAM→fast and flips
the map, demotion writes them back.  Correctness under concurrency is
by construction: the owning primitive registers a ``busy_check`` and a
block with in-flight RDMA operations is never moved, so no update can
land on a stale copy — which is what makes "zero lost updates
mid-promotion" hold even when a blackout interrupts the window (the
in-flight ops pin their block until the primitive reconciles them).

Degraded mode **demotes, not drops**: :meth:`demote_all` writes every
fast block back to its DRAM home (fast channel unhealthy, server
reachable), :meth:`abandon_fast` remaps without copying (fast member
dead; bytes since promotion are gone — replication's problem, counted
honestly in ``abandoned``).
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Optional

from ..core.channel import RemoteMemoryChannel
from ..obs.trace import KIND_TIER_MOVE, WireTrace
from ..rdma.memory import TIER_DRAM, TIER_FAST


class TieredRegionGeometry:
    """Tier-aware address geometry for one remote object."""

    def __init__(
        self,
        name: str,
        dram_channel: RemoteMemoryChannel,
        fast_channel: RemoteMemoryChannel,
        unit_bytes: int,
        units: int,
        units_per_block: int = 64,
        trace: Optional[WireTrace] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if unit_bytes <= 0 or units <= 0 or units_per_block <= 0:
            raise ValueError(
                f"{name}: unit_bytes/units/units_per_block must be positive"
            )
        self.name = name
        self.dram_channel = dram_channel
        self.fast_channel = fast_channel
        self.unit_bytes = unit_bytes
        self.units = units
        self.units_per_block = units_per_block
        self.block_bytes = units_per_block * unit_bytes
        self.blocks = (units + units_per_block - 1) // units_per_block
        self.total_bytes = units * unit_bytes
        if dram_channel.length < self.total_bytes:
            raise ValueError(
                f"{name}: DRAM channel holds {dram_channel.length} B, "
                f"object needs {self.total_bytes} B"
            )
        self.fast_capacity = fast_channel.length // self.block_bytes
        if self.fast_capacity < 1:
            raise ValueError(
                f"{name}: fast channel ({fast_channel.length} B) smaller "
                f"than one block ({self.block_bytes} B)"
            )
        self._trace = trace
        self._clock = clock
        # block -> fast slot index; absent means home in DRAM.
        self._fast_slot: Dict[int, int] = {}
        self._free_slots: List[int] = list(range(self.fast_capacity))
        heapq.heapify(self._free_slots)
        #: Per-block access counts since the last policy drain (sparse:
        #: only touched blocks appear, so a million-unit object costs
        #: the policy tick only its working set, not its full geometry).
        self.access_counts: Dict[int, int] = {}
        #: False once the fast channel is gone (member left); promotions
        #: stop, demotion/abandon paths already emptied the slot map.
        self.fast_enabled = True
        #: Per-block pins: "fast" / "dram" (placement policies honour these).
        self.pins: Dict[int, str] = {}
        #: Set by the owning primitive: True while the block has in-flight
        #: RDMA operations and must not move.
        self.busy_check: Optional[Callable[[int], bool]] = None
        #: Pool hooks (wired by TieredMemoryPool; optional standalone).
        self.on_access: Optional[Callable[[str], None]] = None
        self.on_move: Optional[Callable[[int, str, str], None]] = None
        # Standalone counters (the pool mirrors these into the registry).
        self.promotions = 0
        self.demotions = 0
        self.abandoned = 0

    # -- addressing -----------------------------------------------------------

    def block_of(self, unit: int) -> int:
        return unit // self.units_per_block

    def tier_of_block(self, block: int) -> str:
        return TIER_FAST if block in self._fast_slot else TIER_DRAM

    def resolve(self, unit: int) -> "tuple[str, int]":
        """The (tier, virtual address) currently serving *unit*."""
        if not 0 <= unit < self.units:
            raise IndexError(f"{self.name}: unit {unit} out of range")
        block, offset = divmod(unit, self.units_per_block)
        slot = self._fast_slot.get(block)
        if slot is None:
            return (
                TIER_DRAM,
                self.dram_channel.base_address + unit * self.unit_bytes,
            )
        return (
            TIER_FAST,
            self.fast_channel.base_address
            + slot * self.block_bytes
            + offset * self.unit_bytes,
        )

    def channel_for(self, tier: str) -> RemoteMemoryChannel:
        return self.fast_channel if tier == TIER_FAST else self.dram_channel

    def record_access(self, unit: int, tier: str) -> None:
        """Count one data-plane access to *unit*, served by *tier*."""
        block = unit // self.units_per_block
        self.access_counts[block] = self.access_counts.get(block, 0) + 1
        if self.on_access is not None:
            self.on_access(tier)

    def drain_access_counts(self) -> Dict[int, int]:
        """Snapshot and reset the per-block access counts (policy tick)."""
        counts = self.access_counts
        self.access_counts = {}
        return counts

    # -- pins -----------------------------------------------------------------

    def pin(self, block: int, tier: str) -> None:
        if not 0 <= block < self.blocks:
            raise IndexError(f"{self.name}: block {block} out of range")
        self.pins[block] = tier

    def pin_object(self, tier: str) -> None:
        """Pin every block (whole-object placement, e.g. a buffer ring)."""
        for block in range(self.blocks):
            self.pins[block] = tier

    # -- occupancy ------------------------------------------------------------

    @property
    def fast_used(self) -> int:
        """Blocks currently resident in the fast tier."""
        return len(self._fast_slot)

    @property
    def fast_bytes(self) -> int:
        return self.fast_used * self.block_bytes

    def _block_span(self, block: int) -> "tuple[int, int]":
        """(byte offset, byte length) of *block* within the object."""
        offset = block * self.block_bytes
        return offset, min(self.block_bytes, self.total_bytes - offset)

    def _is_busy(self, block: int) -> bool:
        return self.busy_check is not None and self.busy_check(block)

    def _emit_move(self, block: int, to_tier: str, reason: str, nbytes: int) -> None:
        if self.on_move is not None:
            self.on_move(block, to_tier, reason)
        if self._trace is not None and self._clock is not None:
            self._trace.emit(
                self._clock(),
                f"tiering:{self.name}",
                0,
                KIND_TIER_MOVE,
                psn=block,
                wire_bytes=nbytes,
                channel=f"{self.name}:{reason}",
            )

    # -- moves (control-plane region copies) -----------------------------------

    def promote(self, block: int, reason: str = "promote") -> bool:
        """Copy *block* DRAM→fast and serve it fast.  False if impossible."""
        if not self.fast_enabled:
            return False
        if block in self._fast_slot or not self._free_slots:
            return False
        if self._is_busy(block) or self.pins.get(block) == TIER_DRAM:
            return False
        offset, nbytes = self._block_span(block)
        data = self.dram_channel.region.read(
            self.dram_channel.base_address + offset, nbytes
        )
        slot = heapq.heappop(self._free_slots)
        self.fast_channel.region.write(
            self.fast_channel.base_address + slot * self.block_bytes, data
        )
        self._fast_slot[block] = slot
        self.promotions += 1
        self._emit_move(block, TIER_FAST, reason, nbytes)
        return True

    def demote(self, block: int, reason: str = "demote", force: bool = False) -> bool:
        """Write *block* back to its DRAM home.  False if not fast or busy."""
        slot = self._fast_slot.get(block)
        if slot is None:
            return False
        if not force and (
            self._is_busy(block) or self.pins.get(block) == TIER_FAST
        ):
            return False
        offset, nbytes = self._block_span(block)
        data = self.fast_channel.region.read(
            self.fast_channel.base_address + slot * self.block_bytes, nbytes
        )
        self.dram_channel.region.write(
            self.dram_channel.base_address + offset, data
        )
        del self._fast_slot[block]
        heapq.heappush(self._free_slots, slot)
        self.demotions += 1
        self._emit_move(block, TIER_DRAM, reason, nbytes)
        return True

    def demote_all(self, force: bool = True) -> int:
        """Write every fast block back to DRAM (degrade = demote, not drop).

        Used when the fast channel is unhealthy but its server region is
        still reachable from the control plane (breaker open on the fast
        QP, graceful fast-member leave).  Returns blocks demoted.
        """
        moved = 0
        for block in sorted(self._fast_slot):
            if self.demote(block, reason="spill", force=force):
                moved += 1
        return moved

    def abandon_fast(self) -> int:
        """Remap every fast block to DRAM *without* copying.

        The fast member died: its bytes are unreachable, so the DRAM
        home (last write-back) becomes authoritative.  Updates applied
        only to the fast copy since promotion are lost here — that is
        the replicated store's job to repair, and the ``abandoned``
        count keeps the loss visible instead of silent.
        """
        lost = len(self._fast_slot)
        for block in sorted(self._fast_slot):
            slot = self._fast_slot.pop(block)
            heapq.heappush(self._free_slots, slot)
            self.abandoned += 1
            self._emit_move(block, TIER_DRAM, "abandon", 0)
        return lost

    def __repr__(self) -> str:
        return (
            f"<TieredRegionGeometry {self.name} blocks={self.blocks} "
            f"fast={self.fast_used}/{self.fast_capacity}>"
        )
