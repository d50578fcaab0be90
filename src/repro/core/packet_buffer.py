"""The remote packet buffer primitive (§4).

Extends one egress queue's capacity into ring buffers in server DRAM:

* **Store** — when the protected egress queue exceeds a high watermark the
  primitive diverts arriving packets into the ring with RDMA WRITE, one
  full-sized Ethernet frame per ring entry.  Once diverting starts, *all*
  subsequent packets for that queue divert until the ring drains, so
  packets are never reordered (§4: "until all packets in remote buffer are
  read, the following new packets must also be written to the remote
  buffer and read out in order").
* **Load** — when the local queue drains to a low watermark the primitive
  issues RDMA READs for the head entries; each READ response is
  decapsulated and the original packet re-enters the egress queue, and the
  response also triggers the next READ while entries remain (§4's
  response-triggered chaining).

**Multiple servers.**  §2.1 buffers bursts "in one or multiple servers": a
line-rate N-to-1 incast overflows at up to (N-1)x the link rate, far more
than one server link absorbs.  The primitive therefore accepts a list of
channels and stripes ring entries round-robin over the *surviving*
channels.  Within a channel RC ordering keeps READ responses in issue
order, but responses interleave *across* channels, so completed entries
pass through a small reorder stage keyed by ring pointer before
re-entering the egress queue — preserving the paper's no-reordering
guarantee.

**Server failure (§7 robustness).**  With ``failover_strikes`` set, a
channel whose reads stall through that many consecutive go-back-N
recoveries is declared dead: its unread entries are abandoned (clean
losses, in order), new stores re-stripe over the survivors, and with no
survivors left the switch degrades gracefully to plain drop-tail.

Ring state (write/read/load pointers, mode flag) lives in data-plane
register arrays, exactly as the P4 prototype keeps it, and is accessed the
way a pipeline stage would: each pass — egress-hook store, dequeue, READ
response, load, release — reads a register at most once and writes it at
most once, before any call that can re-enter the primitive.
"""

from __future__ import annotations

import struct
from array import array
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..net.headers import HeaderError, Ipv4Header
from ..net.packet import Packet
from ..rdma.constants import Opcode
from ..rdma.packets import MAX_READ_BYTES, MAX_WRITE_BYTES
from ..sim.units import kib, mib
from ..switches.pipeline import PipelineContext
from ..switches.registers import RegisterArray
from ..switches.switch import ProgrammableSwitch
from ..switches.traffic_manager import HookVerdict, PortQueue
from .channel import RemoteMemoryChannel
from .rocegen import RetryTimer, RoceRequestGenerator

#: Register indices for the ring state.
_WRITE_PTR, _READ_PTR, _NEXT_LOAD_PTR, _BUFFERING = range(4)
#: States of one ring slot (``RemotePacketBuffer._state``): free; holding
#: an entry whose WRITE has not left the switch; flushed (its READ may be
#: issued); holding an entry whose WRITE the switch refused (a loss).  A
#: refused entry waits for the load pass like any other: parked in the
#: reorder stage at once, the release pass could retire it ahead of the
#: load pointer, which would then sweep a freed slot.
_FREE, _WAITING, _FLUSHED, _REFUSED = range(4)
#: Slot columns start this long, then double with the occupancy high-water
#: mark, never beyond the ring's capacity.
_MIN_SLOTS = 16
_PASS, _CONSUMED = HookVerdict.PASS, HookVerdict.CONSUMED
_READ_RESPONSE = Opcode.RDMA_READ_RESPONSE_ONLY
_STAMP = struct.Struct("!Q")
#: The largest entry one WRITE can store and one READ response can return.
_MAX_ENTRY_BYTES = min(MAX_WRITE_BYTES, MAX_READ_BYTES)

#: Each ring entry is prefixed with its write pointer so a reader can tell
#: a fresh entry from stale bytes left by a lost RDMA WRITE (§7: "an RDMA
#: packet drop would lead to dropping the original packet" — the stamp
#: turns would-be duplication into that clean loss).
ENTRY_SEQ_BYTES = 8


@dataclass
class PacketBufferConfig:
    """Tuning of the remote packet buffer primitive."""

    #: Ring entry size; §4 allocates one full-sized Ethernet frame each
    #: (plus the sequence stamp).
    entry_bytes: int = 1600 + ENTRY_SEQ_BYTES
    #: Start diverting when the protected queue depth exceeds this.
    high_watermark_bytes: int = mib(8)
    #: Start loading back when the queue depth falls to or below this.
    low_watermark_bytes: int = kib(64)
    #: READ pipelining depth per channel (each response triggers the next
    #: READ; a small window keeps the return links busy).
    max_outstanding_reads: int = 4
    #: Request ACKs for WRITEs (reverse-path bandwidth vs. §7 reliability).
    ack_writes: bool = False
    #: Retry timer period of each read QP: a round with READs outstanding
    #: and none answered restarts the read chain (go-back-N).  None leaves
    #: a stuck chain to NAKs alone (the paper's best-effort mode).
    read_timeout_ns: Optional[float] = None
    #: When True, loading never starts automatically; the experiment calls
    #: :meth:`RemotePacketBuffer.start_draining` (§5 "we manually start the
    #: two steps respectively" for the store/load microbenchmark).
    manual_load: bool = False
    #: §7 robustness: consecutive stalled recoveries on one channel before
    #: it is declared failed and excluded (its unread entries are lost,
    #: new stores re-stripe over the survivors).  None disables failover.
    failover_strikes: Optional[int] = None
    #: Co-design with end-to-end congestion control (§2.1): once this many
    #: entries sit unread in the remote rings, diverted ECT packets are
    #: CE-marked so ECN-reactive senders slow down — the remote buffer
    #: masks local queue depth from normal ECN marking, so *persistent*
    #: congestion must be signalled from ring occupancy instead.  None
    #: disables ring-occupancy marking.
    ecn_ring_threshold_entries: Optional[int] = None


def _same_region(read: RemoteMemoryChannel, write: RemoteMemoryChannel) -> bool:
    return (
        read.rkey == write.rkey
        and read.server is write.server
        and read.base_address == write.base_address
    )


class RemotePacketBuffer:
    """Data-plane component protecting one egress queue with remote memory."""

    def __init__(
        self,
        switch: ProgrammableSwitch,
        channels: Union[RemoteMemoryChannel, Sequence[RemoteMemoryChannel]],
        protected_port: int,
        config: Optional[PacketBufferConfig] = None,
        read_channels: Optional[Sequence[RemoteMemoryChannel]] = None,
    ) -> None:
        """``read_channels`` (optional, one per write channel, sharing its
        region) carry the READ stream on dedicated queue pairs.  Use them
        whenever the traffic manager may reorder loads ahead of stores
        (e.g. READ prioritization): RC is in-order per QP, so reordering
        within one QP NAK-storms."""
        if isinstance(channels, RemoteMemoryChannel):
            channels = [channels]
        if not channels:
            raise ValueError("need at least one remote memory channel")
        for channel in channels:
            if protected_port == channel.server_port:
                raise ValueError(
                    "the protected port cannot be a memory-server port"
                )
        self.switch = switch
        self.channels = list(channels)
        self.protected_port = protected_port
        self.config = config if config is not None else PacketBufferConfig()
        if not ENTRY_SEQ_BYTES < self.config.entry_bytes <= _MAX_ENTRY_BYTES:
            raise ValueError(
                f"entry_bytes={self.config.entry_bytes}: an entry is the "
                f"{ENTRY_SEQ_BYTES} B stamp plus a frame, and must fit one RDMA "
                f"WRITE and one READ response ({_MAX_ENTRY_BYTES} B)"
            )
        if self.config.max_outstanding_reads < 1:
            raise ValueError("max_outstanding_reads must be >= 1")
        #: This buffer's scope in the simulation's metric registry
        #: ("pktbuf[<port>]", suffixed on collision).
        self.metrics = switch.sim.obs.registry.unique_scope(
            f"pktbuf[{protected_port}]"
        )
        self._m_stored_packets = self.metrics.counter("stored_packets")
        self._m_stored_bytes = self.metrics.counter("stored_bytes")
        self._m_loaded_packets = self.metrics.counter("loaded_packets")
        self._m_loaded_bytes = self.metrics.counter("loaded_bytes")
        self._m_ring_full_drops = self.metrics.counter("ring_full_drops")
        self._m_oversize_drops = self.metrics.counter("oversize_drops")
        self._m_episodes = self.metrics.counter("buffering_episodes")
        self._m_lost_in_transit = self.metrics.counter("lost_in_transit")
        self._m_read_recoveries = self.metrics.counter("read_recoveries")
        self._m_reorder_peak = self.metrics.gauge("reorder_peak")
        self._m_channels_failed = self.metrics.counter("channels_failed")
        self._m_lost_to_failover = self.metrics.counter("lost_to_failover")
        self._m_ecn_marked = self.metrics.counter("ecn_marked")
        self._m_degraded_passthrough = self.metrics.counter(
            "degraded_passthrough"
        )
        self.metrics.gauge("stored_entries", fn=lambda: self.stored_entries)
        # Degraded mode (DESIGN.md §11): channels whose breaker is open.
        # While any are degraded the buffer stops diverting (new packets
        # pass straight through) and the load path stands down; recovery
        # drains the stranded ring contents in pointer order.
        self._degraded_channels: set = set()
        self.metrics.gauge(
            "degraded_channels", fn=lambda: len(self._degraded_channels)
        )
        # Each read QP's requester tracks its READs in flight: psn -> ring
        # pointer.  A response whose PSN is no longer tracked is stale (from
        # a chain that has since been restarted).
        self.rocegens = [self._requester(channel) for channel in self.channels]
        if read_channels is not None:
            read_channels = list(read_channels)
            if len(read_channels) != len(self.channels):
                raise ValueError("need one read channel per write channel")
            if not all(map(_same_region, read_channels, self.channels)):
                raise ValueError(
                    "read channels must share their write channel's region"
                )
            self.read_channels = read_channels
            self.read_rocegens = [self._requester(channel) for channel in read_channels]
        else:
            self.read_channels = self.channels
            self.read_rocegens = self.rocegens
        self._windows = [gen.window for gen in self.read_rocegens]
        self.entries_per_channel = min(
            channel.length // self.config.entry_bytes for channel in self.channels
        )
        if self.entries_per_channel <= 0:
            raise ValueError(
                f"smallest channel holds no {self.config.entry_bytes} B entries"
            )
        self.capacity_entries = self.entries_per_channel * len(self.channels)
        # Ring state in data-plane registers (48-bit: monotonically
        # increasing pointers, slot = ptr % capacity).
        self._regs = RegisterArray(f"pktbuf[{protected_port}]", 4, width_bits=48)
        self._manual_drain_started = False
        # Cross-channel reorder stage: completed entries by ring pointer,
        # at most one per unreleased entry (bounded by the occupancy).
        self._reorder: Dict[int, Optional[Packet]] = {}
        # One fixed-width record per ring slot, alive from store to
        # release, in columns indexed by ``pointer % _slots``: the entry's
        # channel and remote address, fixed at store time (on hardware: an
        # epoch register plus pointer arithmetic, reconfigured by the
        # control plane on failover), and its slot state (see _store).
        # ``_meta`` is simulation-only: the packet's metadata, which on the
        # wire the frame itself would carry.  The columns grow with the
        # occupancy high-water mark and never beyond ``capacity_entries``.
        self._slots = 0
        self._channel_of = array("H")
        self._address_of = array("Q")
        self._state = bytearray()
        self._meta: List[Optional[dict]] = []
        # WRITE_PTR - READ_PTR, mirrored on the host so a pass can test
        # for an empty ring without reading both registers; it always
        # equals sum(_channel_unread).
        self._occupancy = 0
        # Stripe targets, recomputed at every change of a channel's health.
        self._targets: List[int] = list(range(len(self.channels)))
        self._rr_cursor = 0
        self._channel_slot_counter = [0] * len(self.channels)
        self._channel_unread = [0] * len(self.channels)
        # §7 robustness: failure detection via consecutive stalled
        # recoveries per channel.
        self._channel_strikes = [0] * len(self.channels)
        self._failed_channels: set = set()
        self._loading = False  # reentrancy guard for the load loop
        self._queue: PortQueue = switch.port_queue(protected_port)
        # Plug into the traffic manager.
        if switch.tm.egress_hook is not None:
            raise RuntimeError("switch TM already has an egress hook")
        switch.tm.egress_hook = self._egress_hook
        switch.tm.dequeue_listeners.append(self._on_dequeue)

    def _requester(self, channel: RemoteMemoryChannel) -> RoceRequestGenerator:
        period = self.config.read_timeout_ns
        timer = None if period is None else RetryTimer(self.switch.sim, period)
        return RoceRequestGenerator(
            self.switch, channel, self._on_read_loss, timer, self._on_response
        )

    # -- ring geometry -------------------------------------------------------------

    @property
    def stored_entries(self) -> int:
        return self._regs.read(_WRITE_PTR) - self._regs.read(_READ_PTR)

    @property
    def is_buffering(self) -> bool:
        return bool(self._regs.read(_BUFFERING))

    @property
    def alive_channels(self) -> List[int]:
        """Stripe targets: neither failed nor degraded."""
        return self._targets

    def _retarget(self) -> None:
        """Recompute the stripe targets; every change of a channel's health
        ends here (``_fail_channel``, ``degrade``, ``recover``)."""
        out = self._failed_channels | self._degraded_channels
        self._targets = [i for i in range(len(self.channels)) if i not in out]

    # -- store path ---------------------------------------------------------------

    def _egress_hook(self, port: int, packet: Packet, queue: PortQueue) -> HookVerdict:
        if port != self.protected_port:
            return _PASS
        regs = self._regs
        if self._degraded_channels:
            # Breaker open: stop diverting — a store into a dead channel
            # strands the packet.  Passing through trades order for
            # delivery; the trade-off is documented in DESIGN.md §11.
            if regs.read(_BUFFERING):
                self._m_degraded_passthrough.value += 1
            return _PASS
        if not regs.read(_BUFFERING):
            if (
                queue.depth_bytes + packet.buffer_len
                <= self.config.high_watermark_bytes
            ):
                return _PASS
            # Queue built past the watermark: enter buffering mode.
            regs.write(_BUFFERING, 1)
            self._m_episodes.value += 1
        self._store(packet, queue)
        return _CONSUMED

    def _store(self, packet: Packet, queue: PortQueue) -> None:
        config = self.config
        regs = self._regs
        write_ptr = regs.read(_WRITE_PTR)
        threshold = config.ecn_ring_threshold_entries
        if threshold is not None and write_ptr - regs.read(_READ_PTR) >= threshold:
            ip = packet.find(Ipv4Header)
            if ip is not None and ip.ecn in (1, 2):
                ip.ecn = 3  # CE: the ring, not the port queue, is hot
                self._m_ecn_marked.value += 1
        frame = packet.pack()
        if len(frame) > config.entry_bytes - ENTRY_SEQ_BYTES:
            self._m_oversize_drops.value += 1
            return
        # Round-robin over the surviving channels, skipping full rings.
        targets = self._targets
        unread = self._channel_unread
        for _ in targets:
            channel_idx = targets[self._rr_cursor % len(targets)]
            self._rr_cursor += 1
            if unread[channel_idx] < self.entries_per_channel:
                break
        else:
            # Remote rings exhausted (or no channel left) — §2.1 argues
            # O(10 GB) makes this rare; when it happens the packet drops
            # like any buffer drop.
            self._m_ring_full_drops.value += 1
            return
        slot = self._channel_slot_counter[channel_idx] % self.entries_per_channel
        self._channel_slot_counter[channel_idx] += 1
        address = (
            self.channels[channel_idx].base_address + slot * config.entry_bytes
        )
        # The entry is on the books before its WRITE is handed over: an
        # idle server port serializes synchronously, and the dequeue pass
        # that re-enters from there must see a ring that holds it.
        if self._occupancy == self._slots:
            self._grow(write_ptr)
        index = write_ptr % self._slots
        self._channel_of[index] = channel_idx
        self._address_of[index] = address
        self._meta[index] = dict(packet.meta)
        self._state[index] = _WAITING
        self._occupancy += 1
        unread[channel_idx] += 1
        regs.write(_WRITE_PTR, write_ptr + 1)
        self._m_stored_packets.value += 1
        self._m_stored_bytes.value += len(frame)
        # Loads must never outrun stores *inside the switch*: a READ that
        # jumps the server-port queue (e.g. under read prioritization)
        # would fetch the slot before its WRITE left the box.  The tag
        # lets the TM dequeue listener mark the entry flushed.
        if self.rocegens[channel_idx].write(
            address,
            _STAMP.pack(write_ptr) + frame,
            ack_request=config.ack_writes,
            meta={"pktbuf_write_ptr": write_ptr},
        ) is None:
            # The server port's queue refused the WRITE: it will never be
            # dequeued, so the frame is lost here and now.  The load pass
            # retires the entry without a READ.
            self._state[index] = _REFUSED
            self._m_lost_in_transit.value += 1
        # If the local queue already drained below the low watermark the
        # dequeue trigger will never fire again — kick loading from here.
        self._maybe_start_loading(queue)

    def _grow(self, write_ptr: int) -> None:
        """Double the slot columns, capped at the ring's capacity, and
        re-place the live entries ``[write_ptr - occupancy, write_ptr)``."""
        old = self._slots
        slots = min(max(2 * old, _MIN_SLOTS), self.capacity_entries)
        channel_of = array("H", bytes(2 * slots))
        address_of = array("Q", bytes(8 * slots))
        state, meta = bytearray(slots), [None] * slots
        for pointer in range(write_ptr - self._occupancy, write_ptr):
            i, j = pointer % old, pointer % slots
            channel_of[j] = self._channel_of[i]
            address_of[j] = self._address_of[i]
            state[j] = self._state[i]
            meta[j] = self._meta[i]
        self._slots = slots
        self._channel_of, self._address_of, self._state, self._meta = (
            channel_of, address_of, state, meta
        )

    # -- load path ------------------------------------------------------------------

    def _on_dequeue(self, port: int, packet: Packet, queue: PortQueue) -> None:
        flushed_ptr = packet.meta.get("pktbuf_write_ptr")
        if flushed_ptr is not None:
            # This entry's WRITE is on the wire; its READ may now be issued.
            # (No entry is released before its WRITE leaves: the load pass
            # stops at a waiting one.)
            self._state[flushed_ptr % self._slots] = _FLUSHED
            if flushed_ptr == self._regs.read(_NEXT_LOAD_PTR):
                self._maybe_start_loading(self._queue)
        elif port == self.protected_port:
            self._maybe_start_loading(queue)

    def start_draining(self) -> None:
        """Manually begin loading stored packets back (§5 microbenchmark)."""
        self._manual_drain_started = True
        self._maybe_start_loading(self._queue)

    def _maybe_start_loading(self, queue: PortQueue) -> None:
        """The load pass: issue READs for the next entries in pointer order
        while credit lasts, then release whatever became releasable."""
        config = self.config
        if (
            self._loading
            or self._degraded_channels  # stands down until the breaker re-closes
            or (config.manual_load and not self._manual_drain_started)
            or queue.depth_bytes > config.low_watermark_bytes
        ):
            return
        credit = config.max_outstanding_reads * (len(self._targets) or 1) - sum(
            map(len, self._windows)
        )
        reorder = self._reorder
        occupancy = self._occupancy
        if credit <= 0 and occupancy and not reorder:
            return  # nothing to issue, to release, or to end
        regs = self._regs
        if not regs.read(_BUFFERING):
            return
        if credit > 0 and occupancy:
            slots, state = self._slots, self._state
            load_ptr = next_load = regs.read(_NEXT_LOAD_PTR)
            write_ptr = regs.read(_WRITE_PTR)
            # The guard keeps every re-entrant dequeue out of the loop, so
            # the pointer is written back once, when the loop is done.
            self._loading = True
            try:
                while credit > 0 and load_ptr < write_ptr:
                    index = load_ptr % slots
                    slot_state = state[index]
                    if slot_state == _WAITING:
                        break  # this entry's WRITE hasn't left the switch yet
                    pointer = load_ptr
                    load_ptr += 1
                    if pointer in reorder:
                        # Completed before a go-back-N recovery; no wire work.
                        continue
                    if slot_state == _REFUSED:
                        reorder[pointer] = None  # counted lost at the refusal
                        continue
                    channel_idx = self._channel_of[index]
                    if channel_idx in self._failed_channels:
                        reorder[pointer] = None
                        self._m_lost_to_failover.value += 1
                        continue
                    # §4: "each load operation fetches a single entire entry
                    # regardless of the original packet size".
                    self.read_rocegens[channel_idx].read(
                        self._address_of[index], config.entry_bytes, pointer
                    )
                    credit -= 1
            finally:
                self._loading = False
                if load_ptr != next_load:
                    regs.write(_NEXT_LOAD_PTR, load_ptr)
        # Entries marked lost (failed channel) or kept across a recovery
        # may already be releasable without any wire round trip, and an
        # episode that stored nothing ends here.
        if reorder or not occupancy:
            self._drain_reorder()

    # -- loss recovery (§7 reliability extension) ---------------------------------

    def _on_read_loss(self, gen: RoceRequestGenerator, lost: List[Tuple[int, Any]], cause: str) -> None:
        """READs that left a read QP's window unanswered: go-back-N, the
        read chain restarts from the committed pointer.

        Completed entries already parked in the reorder stage are kept;
        every READ in flight is abandoned (their responses become stale),
        and the channel takes a strike toward failover (§7 robustness).
        """
        if self._degraded_channels:
            # The breaker already judged the channel; recovery restarts
            # the chain explicitly, so keep out of it.
            return
        idx = self.read_rocegens.index(gen)
        strikes = self.config.failover_strikes
        if strikes is not None and idx not in self._failed_channels:
            self._channel_strikes[idx] += 1
            if self._channel_strikes[idx] >= strikes:
                self._fail_channel(idx)
        self._m_read_recoveries.value += 1
        self._restart_reads()

    def _restart_reads(self) -> None:
        """Go-back-N: abandon every READ in flight, reload from the
        committed read pointer."""
        for window in self._windows:
            window.clear()
        self._regs.write(_NEXT_LOAD_PTR, self._regs.read(_READ_PTR))
        self._maybe_start_loading(self._queue)

    def _fail_channel(self, idx: int) -> None:
        """Declare channel *idx* dead: exclude it from striping; entries
        still waiting on it are abandoned as the reads reach them."""
        self._failed_channels.add(idx)
        self._retarget()
        self._windows[idx].clear()
        self._m_channels_failed.value += 1

    # -- degraded mode & recovery (DESIGN.md §11) --------------------------------

    def _channel_index(self, channel: Optional[RemoteMemoryChannel]) -> int:
        if channel is None:
            if len(self.channels) == 1:
                return 0
            raise ValueError("multiple channels; pass the affected one")
        for channels in (self.channels, self.read_channels):
            for i, ch in enumerate(channels):
                if ch is channel:
                    return i
        raise ValueError(f"channel {channel.name!r} is not striped here")

    def degrade(self, channel: Optional[RemoteMemoryChannel] = None) -> None:
        """Enter degraded mode for *channel*: stop diverting, park the ring.

        Unlike failover, nothing is written off: the stranded entries stay
        accounted against their slots and :meth:`recover` drains them via
        RDMA READ once the breaker re-closes.  In-flight READs are
        abandoned without striking (the breaker already consumed that
        evidence).
        """
        idx = self._channel_index(channel)
        if idx in self._degraded_channels:
            return
        self._degraded_channels.add(idx)
        self._retarget()
        self._windows[idx].clear()

    def probe(self, channel: Optional[RemoteMemoryChannel] = None) -> None:
        """Send one canary READ of the ring's first stamp word.

        Rides the channel's read QP, untracked, so the response reaches
        the breaker as progress and the response handler discards it.
        """
        idx = self._channel_index(channel)
        self.read_rocegens[idx].read(
            self.channels[idx].base_address, ENTRY_SEQ_BYTES
        )

    def recover(self, channel: Optional[RemoteMemoryChannel] = None) -> None:
        """Leave degraded mode; drain stranded ring contents in order.

        Once the last degraded channel recovers, the read chain restarts
        from the committed read pointer — the same go-back-N restart a
        lost READ causes — so every entry stranded during the outage is
        fetched via RDMA READ and released through the reorder stage in
        ring-pointer order (zero dropped buffered packets, order
        preserved among themselves).
        """
        idx = self._channel_index(channel)
        self._degraded_channels.discard(idx)
        self._retarget()
        if self._degraded_channels:
            return
        if self._occupancy or self._reorder:
            self._restart_reads()
            self._drain_reorder()
        elif self.is_buffering:
            self._regs.write(_BUFFERING, 0)

    # -- response handling -----------------------------------------------------------

    def _on_response(
        self,
        ctx: PipelineContext,
        packet: Packet,
        opcode: Optional[Opcode],
        is_nak: bool,
        pointer: Any,
    ) -> None:
        """A response the switch steered to one of this buffer's QPs.

        A READ response the requester paired with its ring *pointer* loads
        that entry, from the channel the pointer's slot was striped to.  A
        NAK that cost READs in flight restarted the read chain through
        _on_read_loss; lost WRITEs surface later as stale entry stamps.
        """
        if opcode is _READ_RESPONSE and pointer is not None:
            self._complete_load(
                self._channel_of[pointer % self._slots], pointer, packet.payload
            )

    def _complete_load(self, channel_idx: int, pointer: int, entry: bytes) -> None:
        """The response pass: park the fetched entry in the reorder stage,
        release in pointer order, chain the next READ."""
        self._channel_strikes[channel_idx] = 0  # the channel is alive
        index = pointer % self._slots
        original = None
        try:
            if _STAMP.unpack_from(entry)[0] == pointer:
                original = Packet.parse(entry, ENTRY_SEQ_BYTES)
                original.meta = self._meta[index]
        except HeaderError:
            pass  # corrupted beyond decoding, in the ring or on the wire
        if original is None:
            # Stale stamp (the WRITE for this slot was lost on the wire) or
            # an undecodable frame: the original packet is gone — the clean
            # loss best-effort semantics prescribe (§7).
            self._m_lost_in_transit.value += 1
        reorder = self._reorder
        reorder[pointer] = original
        if len(reorder) > self._m_reorder_peak.value:
            self._m_reorder_peak.set(len(reorder))
        self._drain_reorder()
        if self._occupancy:
            # §4: the received READ response triggers the next READ.
            self._maybe_start_loading(self._queue)

    def _drain_reorder(self) -> None:
        """The release pass: move consecutive completed entries into the
        egress queue.

        Pure release: never re-enters the load loop (callers decide
        whether to chain the next READ), so release and load cannot
        mutually recurse.  Both registers are written before the port is
        kicked, which can re-enter through the dequeue listener.
        """
        regs = self._regs
        reorder = self._reorder
        queue = self._queue
        read_ptr = committed = regs.read(_READ_PTR)
        released = False
        while read_ptr in reorder:
            original = reorder.pop(read_ptr)
            # The ring slot is reusable once its entry is retired.
            index = read_ptr % self._slots
            self._channel_unread[self._channel_of[index]] -= 1
            self._state[index] = _FREE
            self._meta[index] = None
            read_ptr += 1
            if original is not None:
                self._m_loaded_packets.value += 1
                self._m_loaded_bytes.value += original.buffer_len
                # Re-inject into the protected egress queue, bypassing the
                # hook so the loaded packet is not diverted again.
                queue.enqueue_direct(original)
                released = True
        if read_ptr != committed:
            regs.write(_READ_PTR, read_ptr)
            self._occupancy -= read_ptr - committed
        if not self._occupancy and not reorder:
            # Rings fully drained: leave buffering mode (order preserved).
            regs.write(_BUFFERING, 0)
        if released:
            self.switch.port_interface(self.protected_port).kick()
