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

Ring state (write/read pointers, mode flag) lives in data-plane register
arrays, exactly as the P4 prototype keeps it.
"""

from __future__ import annotations

import struct
from collections import deque
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Deque,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..net.headers import Ipv4Header
from ..net.packet import Packet
from ..rdma.constants import Opcode
from ..rdma.headers import BthHeader
from ..sim.units import kib, mib
from ..switches.pipeline import PipelineContext
from ..switches.registers import RegisterArray
from ..switches.switch import ProgrammableSwitch
from ..switches.traffic_manager import HookVerdict, PortQueue
from .channel import RemoteMemoryChannel
from .rocegen import ResponseSteering, RoceRequestGenerator

if TYPE_CHECKING:  # cluster imports core; break the cycle for typing
    from ..cluster.pool import MemoryPool, PoolMember

#: Register indices for the ring state.
_WRITE_PTR, _READ_PTR, _NEXT_LOAD_PTR, _BUFFERING = range(4)

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
    #: Recovery timer for lost READs/responses: if no load progress within
    #: this window while reads are outstanding, restart the read chain
    #: (go-back-N).  None disables recovery (the paper's best-effort mode).
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


@dataclass
class PacketBufferStats:
    stored_packets: int = 0
    stored_bytes: int = 0
    loaded_packets: int = 0
    loaded_bytes: int = 0
    ring_full_drops: int = 0
    oversize_drops: int = 0
    buffering_episodes: int = 0
    #: Entries whose stamp mismatched (their WRITE was lost in transit).
    lost_in_transit: int = 0
    #: Go-back-N read-chain recoveries.
    read_recoveries: int = 0
    #: Peak entries parked in the cross-channel reorder stage.
    reorder_peak: int = 0
    #: Channels declared failed (server/link death, §7 robustness).
    channels_failed: int = 0
    #: Entries abandoned because their channel failed before they were read.
    lost_to_failover: int = 0
    #: Diverted packets CE-marked because the ring crossed its ECN threshold.
    ecn_marked: int = 0


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
        self.rocegens = [
            RoceRequestGenerator(switch, channel) for channel in self.channels
        ]
        if read_channels is not None:
            read_channels = list(read_channels)
            if len(read_channels) != len(self.channels):
                raise ValueError("need one read channel per write channel")
            for write_ch, read_ch in zip(self.channels, read_channels):
                if (
                    read_ch.rkey != write_ch.rkey
                    or read_ch.server is not write_ch.server
                    or read_ch.base_address != write_ch.base_address
                ):
                    raise ValueError(
                        "read channels must share their write channel's region"
                    )
            self.read_channels = read_channels
            self.read_rocegens = [
                RoceRequestGenerator(switch, channel)
                for channel in read_channels
            ]
        else:
            self.read_channels = self.channels
            self.read_rocegens = self.rocegens
        self._steering = ResponseSteering(self._owned_channels)
        self._steering.refresh()
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
        self._outstanding_reads = 0
        self._watchdog_armed = False
        self._watchdog_snapshot = 0
        self._manual_drain_started = False
        # Per-channel FIFO of (ring pointer, PSN) for in-flight READs.
        # Responses must match their channel's head; anything else is a
        # stale response from a recovered chain.
        self._inflight: List[Deque[Tuple[int, int]]] = [
            deque() for _ in self.channels
        ]
        # Cross-channel reorder stage: completed entries by ring pointer.
        self._reorder: Dict[int, Optional[Packet]] = {}
        # Simulation bookkeeping: per-slot packet metadata survives the
        # store/load round trip (on the wire the full frame carries it).
        self._meta_by_index: Dict[int, dict] = {}
        # Striping state.  Each entry's channel and remote address are
        # recorded at store time (on hardware: an epoch register plus the
        # same pointer arithmetic, reconfigured by the control plane on
        # failover; here the mapping is explicit).
        self._entry_channel: Dict[int, int] = {}
        self._entry_address: Dict[int, int] = {}
        self._rr_cursor = 0
        self._channel_slot_counter = [0] * len(self.channels)
        self._channel_unread = [0] * len(self.channels)
        # §7 robustness: failure detection via consecutive stalled
        # recoveries per channel.
        self._channel_strikes = [0] * len(self.channels)
        self._failed_channels: set = set()
        # Gracefully leaving channels: excluded from striping but still
        # read until their unread entries drain (pool membership).
        self._draining_channels: set = set()
        # Pool mode (see from_pool): membership and health govern
        # failover instead of the private failover_strikes counter.
        self.pool: Optional["MemoryPool"] = None
        self._member_channel: Dict[str, int] = {}
        self._bytes_per_member = 0
        self.drain_poll_ns = 10_000.0
        self.drain_timeout_ns = 1_000_000.0
        # Entries whose WRITE request has left the switch (see _store).
        self._flushed: set = set()
        self._loading = False  # reentrancy guard for the load loop
        # Plug into the traffic manager.
        if switch.tm.egress_hook is not None:
            raise RuntimeError("switch TM already has an egress hook")
        switch.tm.egress_hook = self._egress_hook
        switch.tm.dequeue_listeners.append(self._on_dequeue)

    @property
    def tiers(self) -> List[str]:
        """Memory tier of each ring's backing channel (DESIGN.md §13).

        A buffer whose rings were placed with
        ``TieredMemoryPool.place_channel(..., tier="fast")`` stores and
        loads bursts with the RNIC's fast-tier service profile — the
        whole-object static pin the tiering design gives packet buffers
        (their access pattern is a ring sweep: block-granular promotion
        would thrash, so the ring is pinned as a unit).
        """
        return [channel.tier for channel in self.channels]

    @property
    def stats(self) -> PacketBufferStats:
        """Legacy stats shim: a snapshot of this buffer's metrics."""
        return PacketBufferStats(
            stored_packets=self._m_stored_packets.value,
            stored_bytes=self._m_stored_bytes.value,
            loaded_packets=self._m_loaded_packets.value,
            loaded_bytes=self._m_loaded_bytes.value,
            ring_full_drops=self._m_ring_full_drops.value,
            oversize_drops=self._m_oversize_drops.value,
            buffering_episodes=self._m_episodes.value,
            lost_in_transit=self._m_lost_in_transit.value,
            read_recoveries=self._m_read_recoveries.value,
            reorder_peak=self._m_reorder_peak.value,
            channels_failed=self._m_channels_failed.value,
            lost_to_failover=self._m_lost_to_failover.value,
            ecn_marked=self._m_ecn_marked.value,
        )

    # -- pool mode (cluster subsystem) ---------------------------------------------

    @classmethod
    def from_pool(
        cls,
        switch: ProgrammableSwitch,
        pool: "MemoryPool",
        protected_port: int,
        bytes_per_member: int,
        config: Optional[PacketBufferConfig] = None,
        separate_read_qps: bool = True,
    ) -> "RemotePacketBuffer":
        """Build a buffer striped over every alive pool member.

        The pool takes over the roles the constructor wires statically:
        members that join mid-run become stripe targets
        (:meth:`add_channel`), members the health monitor declares dead
        are failed over exactly as ``failover_strikes`` would, and
        graceful leaves drain their unread entries before the channels
        close.  ``bytes_per_member`` fixes an equal ring per server.
        """
        members = pool.alive_members
        if not members:
            raise ValueError("pool has no alive members")
        channels: List[RemoteMemoryChannel] = []
        read_channels: List[RemoteMemoryChannel] = []
        for member in members:
            channel = pool.open_channel(
                member, bytes_per_member, name=f"pktbuf:{member.name}"
            )
            channels.append(channel)
            if separate_read_qps:
                read_channels.append(
                    pool.open_channel(
                        member,
                        bytes_per_member,
                        name=f"pktbuf-read:{member.name}",
                        share_region_with=channel,
                    )
                )
        buffer = cls(
            switch,
            channels,
            protected_port,
            config=config,
            read_channels=read_channels if separate_read_qps else None,
        )
        buffer.pool = pool
        buffer._bytes_per_member = bytes_per_member
        buffer._member_channel = {
            member.name: idx for idx, member in enumerate(members)
        }
        for member in members:
            pool.watch(
                member, buffer.read_rocegens[buffer._member_channel[member.name]]
            )
        pool.listeners.append(buffer)
        return buffer

    def add_channel(
        self,
        channel: RemoteMemoryChannel,
        read_channel: Optional[RemoteMemoryChannel] = None,
    ) -> int:
        """Enroll another stripe target mid-run; returns its index.

        The new ring must hold at least as many entries as the existing
        ones (striping keeps slot geometry uniform across channels).
        """
        if channel.length // self.config.entry_bytes < self.entries_per_channel:
            raise ValueError(
                f"channel {channel.name!r} holds fewer than "
                f"{self.entries_per_channel} entries"
            )
        separate = self.read_channels is not self.channels
        if separate:
            if read_channel is None:
                raise ValueError(
                    "buffer uses separate read QPs; pass read_channel"
                )
            if (
                read_channel.rkey != channel.rkey
                or read_channel.server is not channel.server
                or read_channel.base_address != channel.base_address
            ):
                raise ValueError(
                    "read channel must share the write channel's region"
                )
        index = len(self.channels)
        self.channels.append(channel)
        self.rocegens.append(RoceRequestGenerator(self.switch, channel))
        if separate:
            self.read_channels.append(read_channel)
            self.read_rocegens.append(
                RoceRequestGenerator(self.switch, read_channel)
            )
        self._inflight.append(deque())
        self._channel_slot_counter.append(0)
        self._channel_unread.append(0)
        self._channel_strikes.append(0)
        self.capacity_entries = self.entries_per_channel * len(self.channels)
        self._steering.refresh()
        return index

    def on_member_join(self, member: "PoolMember") -> None:
        channel = self.pool.open_channel(
            member, self._bytes_per_member, name=f"pktbuf:{member.name}"
        )
        read_channel = None
        if self.read_channels is not self.channels:
            read_channel = self.pool.open_channel(
                member,
                self._bytes_per_member,
                name=f"pktbuf-read:{member.name}",
                share_region_with=channel,
            )
        index = self.add_channel(channel, read_channel)
        self._member_channel[member.name] = index
        self.pool.watch(member, self.read_rocegens[index])

    def on_member_leave(self, member: "PoolMember", graceful: bool) -> None:
        index = self._member_channel.pop(member.name, None)
        if index is None:
            return
        if not graceful:
            self._abandon_channel(index)
            return
        # Stop striping to the leaver but keep reading its ring; hold its
        # channels open until the unread entries drain out.
        self._draining_channels.add(index)
        self.pool.hold_for_drain(member)
        self._drain_channel(
            member, index, deadline=self.switch.sim.now + self.drain_timeout_ns
        )

    def _abandon_channel(self, index: int) -> None:
        """Fail a channel outside the recovery path (member death)."""
        if index in self._failed_channels:
            return
        self._outstanding_reads = max(
            0, self._outstanding_reads - len(self._inflight[index])
        )
        self._fail_channel(index)
        # Entries stranded on the dead channel resolve as clean losses as
        # the read pointer sweeps them; kick the sweep now.
        self._maybe_start_loading(self.switch.port_queue(self.protected_port))

    def _drain_channel(
        self, member: "PoolMember", index: int, deadline: float
    ) -> None:
        if self._channel_unread[index] == 0 and not self._inflight[index]:
            self.pool.release_drain(member)
            return
        if self.switch.sim.now >= deadline:
            self._abandon_channel(index)
            self.pool.release_drain(member)
            return
        self.switch.sim.schedule(
            self.drain_poll_ns, self._drain_channel, member, index, deadline
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
        """Stripe targets: not failed, not draining out of the pool."""
        return [
            i for i in range(len(self.channels))
            if i not in self._failed_channels
            and i not in self._draining_channels
            and i not in self._degraded_channels
        ]

    def _assign_channel(self) -> Optional[int]:
        """Round-robin the next store over surviving channels.

        Returns None when no channel can take the entry (all failed, or
        every survivor's ring is full).
        """
        alive = self.alive_channels
        for _ in range(len(alive)):
            idx = alive[self._rr_cursor % len(alive)]
            self._rr_cursor += 1
            if self._channel_unread[idx] < self.entries_per_channel:
                return idx
        return None

    # -- store path ---------------------------------------------------------------

    def _egress_hook(
        self, port: int, packet: Packet, queue: PortQueue
    ) -> HookVerdict:
        if port != self.protected_port:
            return HookVerdict.PASS
        if self._degraded_channels:
            # Breaker open: stop diverting — a store into a dead channel
            # strands the packet.  Passing through trades order for
            # delivery; the trade-off is documented in DESIGN.md §11.
            if self.is_buffering:
                self._m_degraded_passthrough.inc()
            return HookVerdict.PASS
        if not self.is_buffering:
            if (
                queue.depth_bytes + packet.buffer_len
                <= self.config.high_watermark_bytes
            ):
                return HookVerdict.PASS
            # Queue built past the watermark: enter buffering mode.
            self._regs.write(_BUFFERING, 1)
            self._m_episodes.inc()
        self._store(packet, queue)
        return HookVerdict.CONSUMED

    def _store(self, packet: Packet, queue: PortQueue) -> None:
        threshold = self.config.ecn_ring_threshold_entries
        if threshold is not None and self.stored_entries >= threshold:
            ip = packet.find(Ipv4Header)
            if ip is not None and ip.ecn in (1, 2):
                ip.ecn = 3  # CE: the ring, not the port queue, is hot
                self._m_ecn_marked.inc()
        frame = packet.pack()
        if len(frame) > self.config.entry_bytes - ENTRY_SEQ_BYTES:
            self._m_oversize_drops.inc()
            return
        channel_idx = self._assign_channel()
        if channel_idx is None:
            # Remote rings exhausted — §2.1 argues O(10 GB) makes this
            # rare; when it happens the packet drops like any buffer drop.
            self._m_ring_full_drops.inc()
            return
        write_ptr = self._regs.read(_WRITE_PTR)
        slot = (
            self._channel_slot_counter[channel_idx] % self.entries_per_channel
        )
        self._channel_slot_counter[channel_idx] += 1
        address = (
            self.channels[channel_idx].base_address
            + slot * self.config.entry_bytes
        )
        entry = struct.pack("!Q", write_ptr) + frame
        # Loads must never outrun stores *inside the switch*: a READ that
        # jumps the server-port queue (e.g. under read prioritization)
        # would fetch the slot before its WRITE left the box.  The tag
        # lets the TM dequeue listener mark the entry flushed.
        self.rocegens[channel_idx].write(
            address,
            entry,
            ack_request=self.config.ack_writes,
            meta={"pktbuf_write_ptr": write_ptr},
        )
        self._entry_channel[write_ptr] = channel_idx
        self._entry_address[write_ptr] = address
        self._channel_unread[channel_idx] += 1
        self._meta_by_index[write_ptr] = dict(packet.meta)
        self._regs.write(_WRITE_PTR, write_ptr + 1)
        self._m_stored_packets.inc()
        self._m_stored_bytes.inc(len(frame))
        # If the local queue already drained below the low watermark the
        # dequeue trigger will never fire again — kick loading from here.
        self._maybe_start_loading(queue)

    # -- load path ------------------------------------------------------------------

    def _on_dequeue(self, port: int, packet: Packet, queue: PortQueue) -> None:
        flushed_ptr = packet.meta.get("pktbuf_write_ptr")
        if flushed_ptr is not None:
            # This entry's WRITE is on the wire; its READ may now be issued.
            self._flushed.add(flushed_ptr)
            if flushed_ptr == self._regs.read(_NEXT_LOAD_PTR):
                self._maybe_start_loading(
                    self.switch.port_queue(self.protected_port)
                )
            return
        if port != self.protected_port:
            return
        self._maybe_start_loading(queue)

    def start_draining(self) -> None:
        """Manually begin loading stored packets back (§5 microbenchmark)."""
        self._manual_drain_started = True
        self._maybe_start_loading(self.switch.port_queue(self.protected_port))

    def _maybe_start_loading(self, queue: PortQueue) -> None:
        if self._loading:
            return
        if self._degraded_channels:
            return  # load path stands down until the breaker re-closes
        if not self.is_buffering:
            return
        if self.config.manual_load and not self._manual_drain_started:
            return
        if queue.depth_bytes > self.config.low_watermark_bytes:
            return
        self._loading = True
        try:
            budget = self.config.max_outstanding_reads * max(
                1, len(self.alive_channels)
            )
            while (
                self._outstanding_reads < budget and self._unread_entries() > 0
            ):
                if not self._issue_read():
                    break  # next entry's WRITE hasn't left the switch yet
        finally:
            self._loading = False
        # Entries marked lost (failed channel) or kept across a recovery
        # may already be releasable without any wire round trip.
        self._drain_reorder()

    def _unread_entries(self) -> int:
        return self._regs.read(_WRITE_PTR) - self._regs.read(_NEXT_LOAD_PTR)

    def _issue_read(self) -> bool:
        """Issue (or resolve) the next READ in pointer order.

        Returns False when the load loop must stop because the entry's
        WRITE has not been transmitted yet; True otherwise (issued,
        already completed, or skipped as lost on a failed channel).
        """
        load_ptr = self._regs.read(_NEXT_LOAD_PTR)
        if load_ptr not in self._flushed:
            return False
        channel_idx = self._entry_channel[load_ptr]
        self._regs.write(_NEXT_LOAD_PTR, load_ptr + 1)
        if load_ptr in self._reorder:
            # Already completed before a go-back-N recovery; no wire work.
            return True
        if channel_idx in self._failed_channels:
            self._reorder[load_ptr] = None
            self._m_lost_to_failover.inc()
            return True
        # §4: "each load operation fetches a single entire entry regardless
        # of the original packet size".
        request = self.read_rocegens[channel_idx].read(
            self._entry_address[load_ptr], self.config.entry_bytes
        )
        psn = request.require(BthHeader).psn
        self._inflight[channel_idx].append((load_ptr, psn))
        self._outstanding_reads += 1
        self._arm_watchdog()
        return True

    # -- loss recovery (optional, §7 reliability extension) ----------------------

    def _arm_watchdog(self) -> None:
        if self.config.read_timeout_ns is None or self._watchdog_armed:
            return
        self._watchdog_armed = True
        self._watchdog_snapshot = self._regs.read(_READ_PTR)
        self.switch.sim.schedule(self.config.read_timeout_ns, self._watchdog)

    def _watchdog(self) -> None:
        self._watchdog_armed = False
        if self._degraded_channels:
            # The breaker already judged the channel; recovery restarts
            # the chain explicitly, so keep the watchdog out of it.
            return
        if self._outstanding_reads == 0:
            return
        if self._regs.read(_READ_PTR) != self._watchdog_snapshot:
            # Progress was made; keep watching.
            self._arm_watchdog()
            return
        # No READ completed for a full window: assume the chain is lost and
        # go back to the last committed read pointer.
        self._recover_reads()

    def _recover_reads(self) -> None:
        """Go-back-N: restart the read chain from the committed pointer.

        Completed entries already parked in the reorder stage are kept;
        only in-flight reads are abandoned.  Channels that were stalling
        accumulate a strike toward failover (§7 robustness).
        """
        self._m_read_recoveries.inc()
        self._outstanding_reads = 0
        for idx, inflight in enumerate(self._inflight):
            if inflight:
                self._strike_channel(idx)
            inflight.clear()
        self._regs.write(_NEXT_LOAD_PTR, self._regs.read(_READ_PTR))
        self._maybe_start_loading(self.switch.port_queue(self.protected_port))

    def _strike_channel(self, idx: int) -> None:
        if idx in self._failed_channels:
            return
        # Surface the stall as the uniform channel health signal whether
        # or not anything is watching (pool monitor, tests, dashboards).
        self.read_rocegens[idx].record_strike()
        if self.pool is not None:
            # Pool mode: the health monitor turns strikes into a member
            # down verdict and calls back into on_member_leave — the
            # private counter below would double-judge the same evidence.
            return
        if self.config.failover_strikes is None:
            return
        self._channel_strikes[idx] += 1
        if self._channel_strikes[idx] >= self.config.failover_strikes:
            self._fail_channel(idx)

    def _fail_channel(self, idx: int) -> None:
        """Declare channel *idx* dead: exclude it from striping; entries
        still waiting on it are abandoned as the reads reach them."""
        self._failed_channels.add(idx)
        self._draining_channels.discard(idx)
        self._inflight[idx].clear()
        self._m_channels_failed.inc()

    # -- degraded mode & recovery (DESIGN.md §11) --------------------------------

    def _channel_index(self, channel: Optional[RemoteMemoryChannel]) -> int:
        if channel is None:
            if len(self.channels) == 1:
                return 0
            raise ValueError("multiple channels; pass the affected one")
        for i, ch in enumerate(self.channels):
            if ch is channel:
                return i
        for i, ch in enumerate(self.read_channels):
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
        self._outstanding_reads = max(
            0, self._outstanding_reads - len(self._inflight[idx])
        )
        self._inflight[idx].clear()

    def probe(self, channel: Optional[RemoteMemoryChannel] = None) -> None:
        """Send one canary READ of the ring's first stamp word.

        Rides the channel's read QP so the response flows back through
        :meth:`try_handle`; with the in-flight queue empty the head-PSN
        match fails and :meth:`_complete_load` discards it as stale —
        after the generator reported it as progress to the breaker.
        """
        idx = self._channel_index(channel)
        self.read_rocegens[idx].read(
            self.channels[idx].base_address, ENTRY_SEQ_BYTES
        )

    def recover(self, channel: Optional[RemoteMemoryChannel] = None) -> None:
        """Leave degraded mode; drain stranded ring contents in order.

        Once the last degraded channel recovers, the read chain restarts
        from the committed read pointer — the same go-back-N restart the
        watchdog uses — so every entry stranded during the outage is
        fetched via RDMA READ and released through the reorder stage in
        ring-pointer order (zero dropped buffered packets, order
        preserved among themselves).
        """
        idx = self._channel_index(channel)
        self._degraded_channels.discard(idx)
        if self._degraded_channels:
            return
        if self.stored_entries > 0 or self._reorder:
            self._outstanding_reads = 0
            for inflight in self._inflight:
                inflight.clear()
            self._regs.write(_NEXT_LOAD_PTR, self._regs.read(_READ_PTR))
            self._maybe_start_loading(
                self.switch.port_queue(self.protected_port)
            )
            self._drain_reorder()
        elif self.is_buffering:
            self._regs.write(_BUFFERING, 0)

    # -- response handling -----------------------------------------------------------

    def try_handle(self, ctx: PipelineContext, packet: Packet) -> bool:
        """Consume RoCE responses belonging to this primitive's channels.

        The switch program calls this first in ``on_ingress``; returns True
        when the packet was a response this primitive handled.
        """
        owner = self._steering.owner_of(packet)
        if owner is None:
            return False
        channel_idx, is_read_qp = owner
        rocegen = (
            self.read_rocegens[channel_idx]
            if is_read_qp
            else self.rocegens[channel_idx]
        )
        opcode = rocegen.classify_response(packet)
        ctx.drop()  # the response itself never leaves the switch
        if rocegen.is_nak(packet):
            # A request was lost: resynchronize that QP's PSN stream.  The
            # read chain needs a go-back-N restart only when the loss hit
            # the read QP with reads in flight; lost WRITEs surface later
            # as stale entry stamps and must not thrash the load path.
            rocegen.maybe_resync(packet)
            if is_read_qp and self._inflight[channel_idx]:
                self._recover_reads()
            return True
        if opcode == Opcode.RDMA_READ_RESPONSE_ONLY:
            self._complete_load(channel_idx, packet)
        return True

    def _owned_channels(
        self,
    ) -> Iterator[Tuple[RemoteMemoryChannel, Tuple[int, bool]]]:
        """Every channel of ours, with (channel index, is-the-read-QP)."""
        if self.read_channels is not self.channels:
            for i, channel in enumerate(self.read_channels):
                yield channel, (i, True)
        for i, channel in enumerate(self.channels):
            yield channel, (i, False)

    def _complete_load(self, channel_idx: int, response: Packet) -> None:
        psn = response.require(BthHeader).psn
        inflight = self._inflight[channel_idx]
        if not inflight or inflight[0][1] != psn:
            # Stale response from a chain that has since been recovered.
            return
        pointer, _ = inflight.popleft()
        self._outstanding_reads = max(0, self._outstanding_reads - 1)
        self._channel_strikes[channel_idx] = 0  # the channel is alive
        if pointer < self._regs.read(_READ_PTR):
            # A pre-recovery duplicate of an already-released entry.
            return
        entry = response.payload
        (stamp,) = struct.unpack("!Q", entry[:ENTRY_SEQ_BYTES])
        if stamp == pointer:
            original = Packet.parse(entry[ENTRY_SEQ_BYTES:])
            original.meta.update(self._meta_by_index.get(pointer, {}))
            self._reorder[pointer] = original
        else:
            # Stale stamp: the WRITE for this slot was lost on the wire, so
            # the original packet is gone (best-effort semantics, §7).
            self._reorder[pointer] = None
            self._m_lost_in_transit.inc()
        if len(self._reorder) > self._m_reorder_peak.value:
            self._m_reorder_peak.set(len(self._reorder))
        self._drain_reorder()
        if self.stored_entries > 0:
            # §4: the received READ response triggers the next READ.
            self._maybe_start_loading(
                self.switch.port_queue(self.protected_port)
            )

    def _drain_reorder(self) -> None:
        """Move consecutive completed entries into the egress queue.

        Pure release: never re-enters the load loop (callers decide
        whether to chain the next READ), so release and load cannot
        mutually recurse.
        """
        queue = self.switch.port_queue(self.protected_port)
        released = False
        while True:
            read_ptr = self._regs.read(_READ_PTR)
            if read_ptr not in self._reorder:
                break
            original = self._reorder.pop(read_ptr)
            self._meta_by_index.pop(read_ptr, None)
            self._flushed.discard(read_ptr)
            channel_idx = self._entry_channel.pop(read_ptr, None)
            self._entry_address.pop(read_ptr, None)
            if channel_idx is not None:
                # The ring slot is reusable once its entry is retired.
                self._channel_unread[channel_idx] -= 1
            self._regs.write(_READ_PTR, read_ptr + 1)
            if original is not None:
                self._m_loaded_packets.inc()
                self._m_loaded_bytes.inc(original.buffer_len)
                # Re-inject into the protected egress queue, bypassing the
                # hook so the loaded packet is not diverted again.
                queue.enqueue_direct(original)
                released = True
        if released:
            self.switch.port_interface(self.protected_port).kick()
        if self.stored_entries == 0 and not self._reorder:
            # Rings fully drained: leave buffering mode (order preserved).
            self._regs.write(_BUFFERING, 0)
