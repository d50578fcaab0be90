"""The traffic manager's admission before the hop path was budgeted (PR 18)."""

from __future__ import annotations

from repro.net.headers import Ipv4Header
from repro.rdma.headers import BthHeader
from repro.switches.traffic_manager import HookVerdict


class ReferencePortQueue:
    """The helper-chain admission this PR replaced, transcribed: one method
    per decision, list-plus-head FIFOs, ``max()`` peaks."""

    def __init__(self, tm, port=0):
        self.tm = tm
        self.port = port
        self._queue, self._head = [], 0
        self._rdma_queue, self._rdma_head = [], 0
        self._depth_bytes = 0
        self.enqueued_packets = self.dropped_packets = self.dropped_bytes = 0
        self.rdma_policer_drops = self.ecn_marked = self.peak_depth_bytes = 0
        self._cap_tokens = float(tm.config.rdma_cap_burst_bytes)
        self._cap_refilled_at = 0.0

    @property
    def depth_bytes(self):
        return self._depth_bytes

    def _classifies_rdma(self):
        return self.tm.config.rdma_priority or self.tm.config.rdma_rate_cap_bps is not None

    def _consult_hook(self, packet):
        if self.tm.egress_hook is None:
            return HookVerdict.PASS
        return self.tm.egress_hook(self.port, packet, self)

    def admits(self, packet, is_rdma=False):
        size = packet.buffer_len
        pool = self.tm.config.buffer_bytes
        if self.tm.config.rdma_priority and not is_rdma:
            pool -= self.tm.config.rdma_reserved_bytes
        if self.tm.used_bytes + size > pool:
            return False
        limit = self.tm.config.per_queue_limit_bytes
        if limit is not None and self._depth_bytes + size > limit:
            return False
        return True

    def _police_rdma(self, packet):
        cap = self.tm.config.rdma_rate_cap_bps
        if cap is None:
            return True
        now = self.tm.clock()
        elapsed = max(0.0, now - self._cap_refilled_at)
        self._cap_refilled_at = now
        self._cap_tokens = min(
            self.tm.config.rdma_cap_burst_bytes, self._cap_tokens + elapsed * cap / 8e9
        )
        size = packet.buffer_len
        if self._cap_tokens < size:
            return False
        self._cap_tokens -= size
        return True

    def offer(self, packet):
        if self._consult_hook(packet) is HookVerdict.CONSUMED:
            return True
        if not self._classifies_rdma():
            is_rdma = False
        elif self.tm.config.priority_classifier is not None:
            is_rdma = self.tm.config.priority_classifier(packet)
        else:
            is_rdma = packet.find(BthHeader) is not None
        if is_rdma and not self._police_rdma(packet):
            self.rdma_policer_drops += 1
            self.tm.total_dropped_packets += 1
            self.tm.total_dropped_bytes += packet.buffer_len
            return False
        if not self.admits(packet, is_rdma=is_rdma):
            self.dropped_packets += 1
            self.dropped_bytes += packet.buffer_len
            self.tm.total_dropped_packets += 1
            self.tm.total_dropped_bytes += packet.buffer_len
            return False
        self._maybe_mark_ecn(packet)
        self.enqueue_direct(packet, is_rdma=is_rdma)
        return True

    def _maybe_mark_ecn(self, packet):
        threshold = self.tm.config.ecn_threshold_bytes
        if threshold is None or self._depth_bytes < threshold:
            return
        ip = packet.find(Ipv4Header)
        if ip is not None and ip.ecn in (1, 2):
            ip.ecn = 3
            self.ecn_marked += 1

    def enqueue_direct(self, packet, is_rdma=False):
        size = packet.buffer_len
        if is_rdma and self.tm.config.rdma_priority:
            self._rdma_queue.append(packet)
        else:
            self._queue.append(packet)
        self._depth_bytes += size
        self.tm.used_bytes += size
        self.tm.peak_used_bytes = max(self.tm.peak_used_bytes, self.tm.used_bytes)
        self.peak_depth_bytes = max(self.peak_depth_bytes, self._depth_bytes)
        self.enqueued_packets += 1

    def poll(self):
        if self._rdma_head < len(self._rdma_queue):
            packet = self._rdma_queue[self._rdma_head]
            self._rdma_head += 1
        elif self._head < len(self._queue):
            packet = self._queue[self._head]
            self._head += 1
        else:
            return None
        self._depth_bytes -= packet.buffer_len
        self.tm.used_bytes -= packet.buffer_len
        for listener in self.tm.dequeue_listeners:
            listener(self.port, packet, self)
        return packet

    def __len__(self):
        return len(self._queue) - self._head + len(self._rdma_queue) - self._rdma_head
