"""The state-store primitive (§4).

Maintains large arrays of stateful objects — here per-flow packet (or
byte) counters — in remote DRAM via RDMA atomic Fetch-and-Add.

The critical hardware constraint (§4): "Since there is a maximum limit of
outstanding RDMA atomic requests that an RNIC can handle, we design this
primitive to maintain the number of outstanding requests and issue a
Fetch-and-Add request only if there is a room to issue more requests.
Otherwise, it accumulates the counter value and uses the accumulated value
when it can issue a new operation."

The outstanding-request count lives in a data-plane register; the
accumulators are a register-array keyed by counter index.  Batch combining
of k updates per operation (§7's bandwidth-reduction extension) is a
config knob exercised by the ablation benchmarks.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from ..net.packet import Packet
from ..rdma.constants import ATOMIC_OPERAND_BYTES, Opcode
from ..rdma.headers import BthHeader
from ..rdma.memory import TIER_FAST
from ..switches.hashing import FiveTuple
from ..switches.pipeline import PipelineContext
from ..switches.registers import RegisterArray
from ..switches.switch import ProgrammableSwitch
from .channel import RemoteMemoryChannel
from .rocegen import LOST_NAK, LOST_SKIPPED, RetryTimer, RoceRequestGenerator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (tiering uses core)
    from ..tiering.geometry import TieredRegionGeometry

#: Register index of the outstanding-operation count.
_OUTSTANDING = 0
_U64 = 1 << 64
_READ_RESPONSE = Opcode.RDMA_READ_RESPONSE_ONLY


@dataclass
class StateStoreConfig:
    """Geometry and pacing of the remote state store."""

    #: Number of 8-byte counters in the remote region.
    counters: int = 1 << 20
    #: Cap on in-flight Fetch-and-Adds; must not exceed what the RNIC's
    #: atomic engine absorbs (RnicConfig.max_outstanding_atomics).
    max_outstanding: int = 16
    #: Combine at least this many updates per operation (§7 extension;
    #: 1 = issue per packet when there is room).
    batch_size: int = 1
    #: Sampling predicate; None counts every packet.
    sample: Optional[Callable[[Packet], bool]] = None
    #: Value added per packet: "packets" or "bytes".
    count_mode: str = "packets"
    #: §7 reliability extension: track ACK/NAK per operation and
    #: retransmit lost requests with their original PSN.  Exactly-once
    #: semantics come from the RNIC's atomic replay cache: a duplicate
    #: Fetch-and-Add (ours after a lost *response*) is answered from the
    #: cache instead of being applied twice.
    reliable: bool = False
    #: Reliable mode's retry timer period: a stuck window times out every
    #: period and is re-sent after 1, then RETRY_BACKOFF_CAP, periods.
    retry_timeout_ns: float = 100_000.0


class RemoteStateStore:
    """Data-plane component: remote per-flow counters via Fetch-and-Add."""

    def __init__(
        self,
        switch: ProgrammableSwitch,
        channel: Optional[RemoteMemoryChannel] = None,
        config: Optional[StateStoreConfig] = None,
        tiering: Optional["TieredRegionGeometry"] = None,
    ) -> None:
        self.switch = switch
        self._tiering = tiering
        if tiering is not None:
            if channel is None:
                channel = tiering.dram_channel
            elif channel is not tiering.dram_channel:
                raise ValueError(
                    "channel must be the tiering geometry's DRAM home "
                    "(or omitted)"
                )
            if tiering.unit_bytes != ATOMIC_OPERAND_BYTES:
                raise ValueError(
                    f"tiered counters need unit_bytes="
                    f"{ATOMIC_OPERAND_BYTES}, geometry has "
                    f"{tiering.unit_bytes}"
                )
        if channel is None:
            raise ValueError("pass a channel or a tiering= geometry")
        self.channel = channel
        self.config = config if config is not None else StateStoreConfig()
        if tiering is not None and self.config.counters > tiering.units:
            raise ValueError(
                f"{self.config.counters} counters exceed the tiering "
                f"geometry's {tiering.units} units"
            )
        if self.config.count_mode not in ("packets", "bytes"):
            raise ValueError(f"unknown count mode: {self.config.count_mode!r}")
        if self.config.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.config.max_outstanding < 1:
            raise ValueError("max_outstanding must be >= 1")
        needed = self.config.counters * ATOMIC_OPERAND_BYTES
        if needed > channel.length:
            raise ValueError(
                f"{self.config.counters} counters need {needed} B, channel "
                f"has {channel.length} B"
            )
        #: This store's scope in the simulation's metric registry
        #: ("statestore", "statestore#2", ...).
        self.metrics = switch.sim.obs.registry.unique_scope("statestore")
        self._m_sampled = self.metrics.counter("sampled_packets")
        self._m_ops = self.metrics.counter("operations_issued")
        self._m_combined = self.metrics.counter("updates_combined")
        self._m_acks = self.metrics.counter("acks_received")
        self._m_naks = self.metrics.counter("naks_received")
        self._m_value = self.metrics.counter("value_issued")
        self._m_retx = self.metrics.counter("retransmissions")
        self._m_requeued = self.metrics.counter("requeued_after_nak")
        self._m_degraded_updates = self.metrics.counter("degraded_updates")
        self._m_reconcile_reads = self.metrics.counter("reconcile_reads")
        self._m_reconciled_applied = self.metrics.counter("reconciled_applied")
        self._m_reconciled_reissued = self.metrics.counter("reconciled_reissued")
        self._h_op_latency = self.metrics.histogram("op_latency_ns")
        # Each requester tracks this store's operations on its QP: psn ->
        # (index, value, address, block, issued_at).  A retired one records
        # its latency, releases its busy-block hold (a block with operations
        # on the wire must not change tier) and, in reliable mode, commits;
        # reliable mode re-sends lost ones verbatim, to the address recorded
        # at issue time, under their own PSNs (the RNIC's replay cache
        # answers a duplicate without re-applying it).  Tiered stores run
        # one PSN stream per tier: a second requester drives the fast window,
        # on the same retry timer.
        timer = None
        if self.config.reliable:
            timer = RetryTimer(switch.sim, self.config.retry_timeout_ns)
        self.rocegen = RoceRequestGenerator(
            switch, channel, self._on_loss, timer, self._on_response
        )
        self._fastgen: Optional[RoceRequestGenerator] = None
        if tiering is not None:
            self._fastgen = RoceRequestGenerator(
                switch, tiering.fast_channel, self._on_loss, timer, self._on_response
            )
            tiering.busy_check = self._block_busy
        self._gens: List[RoceRequestGenerator] = [self.rocegen]
        if self._fastgen is not None:
            self._gens.append(self._fastgen)
        self._windows = [gen.window for gen in self._gens]
        self._regs = RegisterArray("statestore", 1, width_bits=16)
        self.metrics.gauge("outstanding", fn=lambda: self._regs.read(_OUTSTANDING))
        self.metrics.gauge("pending_value", fn=lambda: sum(self._accumulators.values()))
        self.metrics.gauge("degraded", fn=lambda: int(self._degraded))
        # Pending (not yet issued) accumulated values by counter index.
        # On hardware this is a register array indexed by counter index;
        # FIFO order keeps flushing fair.
        self._accumulators: "OrderedDict[int, int]" = OrderedDict()
        self._busy_blocks: Dict[int, int] = {}
        self._closed = False
        # Degraded mode (DESIGN.md §11): while the channel's breaker is
        # open the store accumulates locally and never drives the wire.
        self._degraded = False
        # Fast-tier partial degrade (DESIGN.md §13): the fast window is
        # out of service but the store keeps running against DRAM.
        self._fast_degraded = False
        # Ops that were in flight when the channel degraded: their fate is
        # unknown (executed with a lost ACK, or never delivered) until the
        # post-recovery reconcile reads the remote counters.
        self._suspended_ops: List[Tuple[int, int]] = []
        # Reliable mode: per-index value definitely applied remotely (every
        # acked op adds here) — the reference point the reconcile compares
        # remote counter values against for exactly-once recovery.
        self._committed: Dict[int, int] = {}
        # Outstanding reconcile READs: (generator, psn) -> counter index.
        self._reconcile_reads: Dict[tuple, int] = {}
        # Suspended value per index awaiting its reconcile READ.
        self._reconcile_value: Dict[int, int] = {}

    # -- addressing ----------------------------------------------------------------

    def key_of(self, packet: Packet) -> FiveTuple:
        """The counter key for *packet* (its 5-tuple)."""
        return FiveTuple.of(packet)

    def index_of(self, flow: FiveTuple) -> int:
        """Counter index for *flow* (``index_of(key_of(packet))`` for a
        packet, the same shape as :meth:`RemoteLookupTable.index_of`)."""
        return flow.hash() % self.config.counters

    def counter_address(self, index: int) -> int:
        """The counter's DRAM-home address (tier-agnostic).

        Tiered stores resolve the *current* serving address per operation
        through :meth:`_locate`; the DRAM home stays valid for probes and
        anything that only needs a reachable address on the home channel.
        """
        return self.channel.base_address + index * ATOMIC_OPERAND_BYTES

    def _locate(
        self, index: int, record: bool = True
    ) -> "Tuple[RoceRequestGenerator, int, Optional[int]]":
        """(generator, address, block) serving *index* right now.

        The tier resolution is the only thing tiering changes on the hot
        path: a fast-resident block rides the fast channel's generator
        (and therefore the RNIC's fast-tier service profile), everything
        else the DRAM home.  ``record`` feeds the access into the
        geometry's per-block counters — the signal placement policies
        promote on.
        """
        if self._tiering is None:
            return self.rocegen, self.counter_address(index), None
        tier, address = self._tiering.resolve(index)
        if record:
            self._tiering.record_access(index, tier)
        gen = self._fastgen if tier == TIER_FAST else self.rocegen
        return gen, address, self._tiering.block_of(index)

    # -- data plane -----------------------------------------------------------------

    def on_packet(self, ctx: PipelineContext, packet: Packet) -> None:
        """Count *packet* (called from the program's ingress/egress).

        On hardware this clones the packet, truncates it, and rewrites the
        clone into a Fetch-and-Add request (§4); the original proceeds
        through the pipeline untouched, which is why this method never
        alters ``ctx``.
        """
        if self.config.sample is not None and not self.config.sample(packet):
            return
        self._m_sampled.value += 1
        value = 1 if self.config.count_mode == "packets" else packet.buffer_len
        self.update(self.key_of(packet).hash() % self.config.counters, value)

    def update(self, index: int, value: int) -> None:
        """Add *value* to counter *index*, respecting the outstanding cap.

        Public so that richer telemetry structures (e.g. the remote
        sketches in :mod:`repro.apps.sketch`) can drive arbitrary counter
        indices through the same pacing and accumulation machinery.
        """
        if self._closed:
            raise RuntimeError("state store is closed")
        config = self.config
        if not 0 <= index < config.counters:
            raise IndexError(f"counter index {index} out of range")
        pending = self._accumulators.get(index, 0) + value
        if self._degraded:
            # Breaker open: the channel is dead, so every update
            # accumulates locally; recovery flushes the backlog.
            self._accumulators[index] = pending
            self._m_degraded_updates.value += 1
            if pending > value:
                self._m_combined.value += 1
            return
        # Batch readiness uses the magnitude so negative (Count Sketch)
        # deltas flush too; a zero net change needs no operation at all.
        if (
            abs(pending) >= config.batch_size
            and self._regs.read(_OUTSTANDING) < config.max_outstanding
        ):
            self._accumulators.pop(index, None)
            self._issue(index, pending)
        else:
            # No room (or batch not full): accumulate locally, flush later.
            self._accumulators[index] = pending
            if pending > value:
                self._m_combined.value += 1

    def _issue(self, index: int, value: int) -> None:
        # Negative deltas (Count Sketch's ±1 updates) ride as two's
        # complement: Fetch-and-Add is modulo 2^64 on both ends.
        gen, address, block = self._locate(index)
        gen.fetch_add(
            address, value % _U64, context=(index, value, address, block, self.switch.sim.now)
        )
        if block is not None:
            self._busy_blocks[block] = self._busy_blocks.get(block, 0) + 1
        self._regs.add(_OUTSTANDING, 1)
        self._m_ops.value += 1
        self._m_value.value += value

    # -- busy-block / latency bookkeeping ------------------------------------

    def _block_busy(self, block: int) -> bool:
        """True while *block* has operations on the wire (must not move)."""
        return self._busy_blocks.get(block, 0) > 0

    def _release_block(self, block: int) -> None:
        count = self._busy_blocks.get(block, 0) - 1
        if count <= 0:
            self._busy_blocks.pop(block, None)
        else:
            self._busy_blocks[block] = count

    def _retire(self, op: tuple) -> None:
        """An operation left the wire executed: record its latency, release
        its busy-block hold, and in reliable mode commit its value."""
        index, value, _address, block, issued = op
        self._h_op_latency.observe(self.switch.sim.now - issued)
        if block is not None:
            self._release_block(block)
        if self.config.reliable:
            self._committed[index] = self._committed.get(index, 0) + value

    def _forget(self, op: tuple) -> None:
        """An operation left the wire with its fate unknown or lost."""
        if op[3] is not None:
            self._release_block(op[3])

    def _drop_window(self, gen: RoceRequestGenerator, suspend: bool = True) -> None:
        """Forget a generator's ops on the wire, parking them for the
        post-recovery reconcile when *suspend* (best-effort mode forgets
        them, as it forgets any loss; so does a closing store)."""
        suspend = suspend and self.config.reliable
        for op in gen.window.values():
            if suspend:
                self._suspended_ops.append((op[0], op[1]))
            self._forget(op)
        gen.window.clear()

    def _on_loss(self, gen: RoceRequestGenerator, lost: List[Tuple[int, Any]], cause: str) -> None:
        """Operations that left *gen*'s window without their own ACK: a later
        ACK proved them executed, or reliable mode re-sends them verbatim
        (one go-back-N per loss event, the whole window per timer round),
        or best-effort mode forgets them — their values are lost."""
        if cause == LOST_SKIPPED:
            for _psn, op in lost:
                self._retire(op)
        elif self.config.reliable:
            counter = self._m_requeued if cause == LOST_NAK else self._m_retx
            for psn, op in lost:
                gen.fetch_add(op[2], op[1] % _U64, psn=psn, context=op)
                counter.value += 1
        else:
            for _psn, op in lost:
                self._forget(op)

    # -- response path ---------------------------------------------------------------

    def _on_response(
        self,
        ctx: PipelineContext,
        packet: Packet,
        opcode: Optional[Opcode],
        is_nak: bool,
        op: Any,
    ) -> None:
        """A response the switch steered to one of this store's QPs."""
        if opcode is _READ_RESPONSE:
            # Reconcile READ after a recovery (or a breaker probe, whose
            # PSN matches nothing and is ignored here — accept_response
            # already reported it as progress).
            bth = packet.require(BthHeader)
            self._complete_reconcile(self.switch.requesters[bth.dest_qp], bth.psn, packet)
        elif opcode is Opcode.ATOMIC_ACKNOWLEDGE or opcode is Opcode.ACKNOWLEDGE:
            if is_nak:
                self._m_naks.value += 1
            else:
                self._m_acks.value += 1
                if op is not None:
                    self._retire(op)
        else:
            return
        # The window may have shrunk by a retirement or a forgotten loss.
        self._regs.write(_OUTSTANDING, sum(map(len, self._windows)))
        self._flush()

    def _flush(self) -> None:
        """Issue accumulated updates while the outstanding window has room.

        Only full batches flush automatically; a partial batch stays local
        (§7's "at the cost of some delay in updates").  Operators drain
        leftovers with :meth:`flush_all`.
        """
        if self._degraded or not self._accumulators:
            return
        batch = self.config.batch_size
        while self._regs.read(_OUTSTANDING) < self.config.max_outstanding:
            for ready, value in self._accumulators.items():
                if abs(value) >= batch:
                    break
            else:
                return
            self._issue(ready, self._accumulators.pop(ready))

    def flush_all(self) -> None:
        """Force-issue every accumulated update (ignores batch_size).

        Values beyond the outstanding window stay pending and drain as
        acknowledgements return; call again (or keep the sim running) to
        complete the drain.  A no-op while degraded: the backlog flushes
        on :meth:`recover` instead.
        """
        if self._degraded:
            return
        while (
            self._accumulators
            and self._regs.read(_OUTSTANDING) < self.config.max_outstanding
        ):
            index, value = self._accumulators.popitem(last=False)
            self._issue(index, value)

    # -- degraded mode & recovery (DESIGN.md §11) --------------------------------

    def degrade(self, channel: Optional[RemoteMemoryChannel] = None) -> None:
        """Enter degraded mode: accumulate locally, stop driving the wire.

        Called by the channel's breaker guard when it opens.  In-flight
        operations are *suspended*, not abandoned: whether each executed
        (ACK lost in the outage) or never arrived is unknowable until
        :meth:`recover` reads the remote counters back.  With the windows
        empty the retry timers stand down — retransmitting into a dead
        channel only burns the health budget the breaker already spent.
        """
        if self._degraded:
            return
        self._degraded = True
        for gen in self._gens:
            self._drop_window(gen)
        self._regs.write(_OUTSTANDING, 0)

    def degrade_fast(self) -> None:
        """Fast tier unhealthy: spill to DRAM and keep serving (§13).

        The demote-not-drop half of degraded mode.  In-flight fast-tier
        operations are suspended, every fast block is written back to its
        DRAM home, and the store keeps issuing — against DRAM only.  In
        reliable mode the suspended values reconcile immediately through
        the healthy DRAM channel: the write-back happens after any
        executed fast op, so the DRAM read sees exactly committed +
        applied and the arithmetic loses nothing.  Best-effort mode
        forgets them, as it forgets any loss.
        """
        if self._tiering is None or self._fast_degraded:
            return
        self._fast_degraded = True
        self._drop_window(self._fastgen)
        self._regs.write(_OUTSTANDING, sum(map(len, self._windows)))
        self._tiering.fast_enabled = False
        self._tiering.demote_all(force=True)
        if self.config.reliable and self._suspended_ops and not self._degraded:
            self._start_reconcile()

    def recover_fast(self) -> None:
        """Re-enable the fast tier after its channel came back."""
        if self._tiering is None or not self._fast_degraded:
            return
        self._fast_degraded = False
        self._tiering.fast_enabled = True

    def probe(self, channel: Optional[RemoteMemoryChannel] = None) -> None:
        """Send one canary READ down the (possibly fresh) QP.

        Rides this store's own request generator, so the response returns
        to this store's response handler and reaches the breaker as progress.
        The READ is deliberately not registered anywhere: an unknown-PSN
        response is ignored by the reconcile path.
        """
        self.rocegen.read(self.counter_address(0), ATOMIC_OPERAND_BYTES)

    def recover(self, channel: Optional[RemoteMemoryChannel] = None) -> None:
        """Leave degraded mode and flush the backlog with zero lost updates.

        Reliable mode first *reconciles* every suspended operation: one
        RDMA READ per touched counter compares the remote value against
        the committed total, deciding exactly how much of the suspended
        value already landed (the QP reconnect discarded the old replay
        cache, so blind re-issue could double-apply).  The backlog —
        degraded-mode accumulators plus whatever the reconcile found
        missing — then drains through the normal Fetch-and-Add window.
        """
        if not self._degraded:
            return
        self._degraded = False
        if self.config.reliable and self._suspended_ops:
            self._start_reconcile()
        else:
            self._suspended_ops = []
            self.flush_all()

    def _start_reconcile(self) -> None:
        suspended: Dict[int, int] = {}
        for index, value in self._suspended_ops:
            suspended[index] = suspended.get(index, 0) + value
        self._suspended_ops = []
        for index in suspended:
            self._reconcile_value[index] = (
                self._reconcile_value.get(index, 0) + suspended[index]
            )
            # Read the counter's *current* serving address — after a
            # fast-tier spill that is the freshly written-back DRAM home.
            gen, address, _block = self._locate(index, record=False)
            request = gen.read(address, ATOMIC_OPERAND_BYTES)
            self._reconcile_reads[(gen, request.require(BthHeader).psn)] = index
            self._m_reconcile_reads.value += 1

    def _complete_reconcile(
        self, gen: RoceRequestGenerator, psn: int, packet: Packet
    ) -> None:
        index = self._reconcile_reads.pop((gen, psn), None)
        if index is None:
            return  # breaker probe or stale READ — nothing to reconcile
        remote = int.from_bytes(packet.payload[:ATOMIC_OPERAND_BYTES], "big")
        committed = self._committed.get(index, 0)
        suspended = self._reconcile_value.pop(index, 0)
        # remote = committed + (whatever fraction of the suspended value
        # executed before the outage).  The clamp keeps a concurrent
        # writer or wrap-around from ever reissuing more than we
        # suspended or crediting more than we observed.
        applied = max(0, min(remote - committed, suspended))
        self._committed[index] = committed + applied
        self._m_reconciled_applied.value += applied
        missing = suspended - applied
        if missing:
            self._m_reconciled_reissued.value += missing
            self._accumulators[index] = (
                self._accumulators.get(index, 0) + missing
            )
        if not self._reconcile_reads:
            self.flush_all()

    def close(self) -> None:
        """Stop driving the channel (its member failed or left the pool).

        Abandons in-flight operations and local accumulators so the
        reliable-mode timers stop retransmitting into a dead channel;
        replication (the cluster layer) is what keeps the data safe.
        """
        self._closed = True
        for gen in self._gens:
            self._drop_window(gen, suspend=False)
        self._accumulators.clear()
        self._suspended_ops = []
        self._reconcile_reads.clear()
        self._reconcile_value.clear()
        self._regs.write(_OUTSTANDING, 0)

    # -- introspection ------------------------------------------------------------------

    @property
    def outstanding(self) -> int:
        return self._regs.read(_OUTSTANDING)

    @property
    def pending_value(self) -> int:
        """Locally accumulated value not yet issued."""
        return sum(self._accumulators.values())

    def unlanded_value(self, index: int) -> int:
        """Value bound for counter *index* not yet landed in remote DRAM.

        Switch-side accumulation, in-flight Fetch-and-Adds, and suspended
        ops awaiting their post-recovery reconcile.  A repair that writes
        an absolute value over this counter must subtract it: these deltas
        will still be applied on top of whatever the repair writes.
        """
        total = self._accumulators.get(index, 0)
        if self.config.reliable:  # best-effort tracks no value in flight
            for window in self._windows:
                for op in window.values():
                    if op[0] == index:
                        total += op[1]
        for op_index, value in self._suspended_ops:
            if op_index == index:
                total += value
        total += self._reconcile_value.get(index, 0)
        return total

    def read_counter_via_control_plane(self, index: int) -> int:
        """Operator-side counter read (estimation algorithms run here, §4)."""
        region, address = self.channel.region, self.counter_address(index)
        if self._tiering is not None:
            tier, address = self._tiering.resolve(index)
            region = self._tiering.channel_for(tier).region
        return int.from_bytes(region.read(address, ATOMIC_OPERAND_BYTES), "big")
