"""The packet buffer's data plane before it was budgeted (PR 23)."""

from __future__ import annotations

import struct
from typing import Dict, List, Optional

from repro.core.channel import RemoteMemoryChannel
from repro.core.packet_buffer import ENTRY_SEQ_BYTES, RemotePacketBuffer
from repro.net.headers import Ipv4Header
from repro.net.packet import Packet
from repro.rdma.constants import Opcode
from repro.rdma.headers import BthHeader
from repro.switches.pipeline import PipelineContext
from repro.switches.traffic_manager import HookVerdict, PortQueue

from .packet import reference_parse

_WRITE_PTR, _READ_PTR, _NEXT_LOAD_PTR, _BUFFERING = range(4)


class ReferencePacketBuffer(RemotePacketBuffer):
    """Four parallel per-entry containers, a register read wherever a
    pointer is wanted (22 reads and 3 writes per buffered frame), the
    stripe targets rebuilt per use, the drained frame sliced then parsed —
    every data-plane method as it stood, over the live class's control
    plane, with the three liveness fixes the live class took later: a
    refused WRITE is a loss at send time, a sequence-error NAK restarts a
    shared QP's read chain (once per loss event), and a dead member's
    in-flight entries are written off."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._meta_by_index: Dict[int, dict] = {}
        self._entry_channel: Dict[int, int] = {}
        self._entry_address: Dict[int, int] = {}
        self._flushed: set = set()
        self._refused: set = set()

    @property
    def stored_entries(self) -> int:
        return self._regs.read(_WRITE_PTR) - self._regs.read(_READ_PTR)

    @property
    def is_buffering(self) -> bool:
        return bool(self._regs.read(_BUFFERING))

    @property
    def alive_channels(self) -> List[int]:
        return [
            i for i in range(len(self.channels))
            if i not in self._failed_channels
            and i not in self._draining_channels
            and i not in self._degraded_channels
        ]

    def _assign_channel(self) -> Optional[int]:
        alive = self.alive_channels
        for _ in range(len(alive)):
            idx = alive[self._rr_cursor % len(alive)]
            self._rr_cursor += 1
            if self._channel_unread[idx] < self.entries_per_channel:
                return idx
        return None

    def _egress_hook(
        self, port: int, packet: Packet, queue: PortQueue
    ) -> HookVerdict:
        if port != self.protected_port:
            return HookVerdict.PASS
        if self._degraded_channels:
            if self.is_buffering:
                self._m_degraded_passthrough.inc()
            return HookVerdict.PASS
        if not self.is_buffering:
            if (
                queue.depth_bytes + packet.buffer_len
                <= self.config.high_watermark_bytes
            ):
                return HookVerdict.PASS
            self._regs.write(_BUFFERING, 1)
            self._m_episodes.inc()
        self._store(packet, queue)
        return HookVerdict.CONSUMED

    def _store(self, packet: Packet, queue: PortQueue) -> None:
        threshold = self.config.ecn_ring_threshold_entries
        if threshold is not None and self.stored_entries >= threshold:
            ip = packet.find(Ipv4Header)
            if ip is not None and ip.ecn in (1, 2):
                ip.ecn = 3
                self._m_ecn_marked.inc()
        frame = packet.pack()
        if len(frame) > self.config.entry_bytes - ENTRY_SEQ_BYTES:
            self._m_oversize_drops.inc()
            return
        channel_idx = self._assign_channel()
        if channel_idx is None:
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
        if self.rocegens[channel_idx].write(
            address,
            entry,
            ack_request=self.config.ack_writes,
            meta={"pktbuf_write_ptr": write_ptr},
        ) is None:
            self._refused.add(write_ptr)
            self._flushed.add(write_ptr)
            self._m_lost_in_transit.inc()
        self._entry_channel[write_ptr] = channel_idx
        self._entry_address[write_ptr] = address
        self._channel_unread[channel_idx] += 1
        self._meta_by_index[write_ptr] = dict(packet.meta)
        self._regs.write(_WRITE_PTR, write_ptr + 1)
        self._m_stored_packets.inc()
        self._m_stored_bytes.inc(len(frame))
        self._maybe_start_loading(queue)

    def _on_dequeue(self, port: int, packet: Packet, queue: PortQueue) -> None:
        flushed_ptr = packet.meta.get("pktbuf_write_ptr")
        if flushed_ptr is not None:
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
        self._manual_drain_started = True
        self._maybe_start_loading(self.switch.port_queue(self.protected_port))

    def _maybe_start_loading(self, queue: PortQueue) -> None:
        if self._loading:
            return
        if self._degraded_channels:
            return
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
        self._drain_reorder()

    def _unread_entries(self) -> int:
        return self._regs.read(_WRITE_PTR) - self._regs.read(_NEXT_LOAD_PTR)

    def _issue_read(self) -> bool:
        load_ptr = self._regs.read(_NEXT_LOAD_PTR)
        if load_ptr not in self._flushed:
            return False
        channel_idx = self._entry_channel[load_ptr]
        self._regs.write(_NEXT_LOAD_PTR, load_ptr + 1)
        if load_ptr in self._reorder:
            return True
        if load_ptr in self._refused:
            self._reorder[load_ptr] = None
            return True
        if channel_idx in self._failed_channels:
            self._reorder[load_ptr] = None
            self._m_lost_to_failover.inc()
            return True
        request = self.read_rocegens[channel_idx].read(
            self._entry_address[load_ptr], self.config.entry_bytes
        )
        psn = request.require(BthHeader).psn
        self._inflight[channel_idx].append((load_ptr, psn))
        self._outstanding_reads += 1
        self._arm_watchdog()
        return True

    def _arm_watchdog(self) -> None:
        if self.config.read_timeout_ns is None or self._watchdog_armed:
            return
        self._watchdog_armed = True
        self._watchdog_snapshot = self._regs.read(_READ_PTR)
        self.switch.sim.schedule(self.config.read_timeout_ns, self._watchdog)

    def _watchdog(self) -> None:
        self._watchdog_armed = False
        if self._degraded_channels:
            return
        if self._outstanding_reads == 0:
            return
        if self._regs.read(_READ_PTR) != self._watchdog_snapshot:
            self._arm_watchdog()
            return
        self._recover_reads()

    def _recover_reads(self) -> None:
        self._m_read_recoveries.inc()
        self._outstanding_reads = 0
        for idx, inflight in enumerate(self._inflight):
            if inflight:
                self._strike_channel(idx)
            inflight.clear()
        self._regs.write(_NEXT_LOAD_PTR, self._regs.read(_READ_PTR))
        self._maybe_start_loading(self.switch.port_queue(self.protected_port))

    def _fail_channel(self, idx: int) -> None:
        self._failed_channels.add(idx)
        self._draining_channels.discard(idx)
        self._inflight[idx].clear()
        self._m_channels_failed.inc()

    def _abandon_channel(self, index: int) -> None:
        if index in self._failed_channels:
            return
        self._outstanding_reads = max(
            0, self._outstanding_reads - len(self._inflight[index])
        )
        for pointer, _ in self._inflight[index]:
            self._reorder[pointer] = None
            self._m_lost_to_failover.inc()
        self._fail_channel(index)
        self._maybe_start_loading(self.switch.port_queue(self.protected_port))

    def degrade(self, channel: Optional[RemoteMemoryChannel] = None) -> None:
        idx = self._channel_index(channel)
        if idx in self._degraded_channels:
            return
        self._degraded_channels.add(idx)
        self._outstanding_reads = max(
            0, self._outstanding_reads - len(self._inflight[idx])
        )
        self._inflight[idx].clear()

    def recover(self, channel: Optional[RemoteMemoryChannel] = None) -> None:
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

    def try_handle(self, ctx: PipelineContext, packet: Packet) -> bool:
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
        ctx.drop()
        if rocegen.is_nak(packet):
            if not rocegen.fresh_nak(packet.require(BthHeader).psn):
                return True
            resynced = rocegen.maybe_resync(packet)
            shared = self.read_channels is self.channels
            if self._inflight[channel_idx] and (is_read_qp or (resynced and shared)):
                self._recover_reads()
            return True
        if opcode == Opcode.RDMA_READ_RESPONSE_ONLY:
            self._complete_load(channel_idx, packet)
        return True

    def _complete_load(self, channel_idx: int, response: Packet) -> None:
        psn = response.require(BthHeader).psn
        inflight = self._inflight[channel_idx]
        if not inflight or inflight[0][1] != psn:
            return
        pointer, _ = inflight.popleft()
        self._outstanding_reads = max(0, self._outstanding_reads - 1)
        self._channel_strikes[channel_idx] = 0
        if pointer < self._regs.read(_READ_PTR):
            return
        entry = response.payload
        (stamp,) = struct.unpack("!Q", entry[:ENTRY_SEQ_BYTES])
        if stamp == pointer:
            original = reference_parse(entry[ENTRY_SEQ_BYTES:])
            original.meta.update(self._meta_by_index.get(pointer, {}))
            self._reorder[pointer] = original
        else:
            self._reorder[pointer] = None
            self._m_lost_in_transit.inc()
        if len(self._reorder) > self._m_reorder_peak.value:
            self._m_reorder_peak.set(len(self._reorder))
        self._drain_reorder()
        if self.stored_entries > 0:
            self._maybe_start_loading(
                self.switch.port_queue(self.protected_port)
            )

    def _drain_reorder(self) -> None:
        queue = self.switch.port_queue(self.protected_port)
        released = False
        while True:
            read_ptr = self._regs.read(_READ_PTR)
            if read_ptr not in self._reorder:
                break
            original = self._reorder.pop(read_ptr)
            self._meta_by_index.pop(read_ptr, None)
            self._flushed.discard(read_ptr)
            self._refused.discard(read_ptr)
            channel_idx = self._entry_channel.pop(read_ptr, None)
            self._entry_address.pop(read_ptr, None)
            if channel_idx is not None:
                self._channel_unread[channel_idx] -= 1
            self._regs.write(_READ_PTR, read_ptr + 1)
            if original is not None:
                self._m_loaded_packets.inc()
                self._m_loaded_bytes.inc(original.buffer_len)
                queue.enqueue_direct(original)
                released = True
        if released:
            self.switch.port_interface(self.protected_port).kick()
        if self.stored_entries == 0 and not self._reorder:
            self._regs.write(_BUFFERING, 0)
