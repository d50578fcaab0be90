"""The traffic manager: shared packet buffer and per-port egress queues.

This is where the paper's problem lives.  Data-center switch ASICs carry
O(10 MB) of on-chip packet buffer shared across all port queues (§2.1 uses
12 MB); when an incast fills it, the drop-tail TM discards packets.

The TM exposes the two hooks the remote packet-buffer primitive needs:

* an **egress hook** consulted before every enqueue — the primitive can
  *divert* the packet to remote memory instead of queueing it locally;
* **dequeue listeners** fired as the port serializer drains — the
  primitive watches for the local queue to empty so it can start READing
  packets back (§4).
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional

from ..net.headers import Ipv4Header
from ..net.packet import Packet
from ..rdma.headers import BthHeader
from ..sim.units import mib


class HookVerdict(enum.Enum):
    """What an egress hook decided about a packet."""

    PASS = "pass"          # proceed with normal enqueue (may still drop)
    CONSUMED = "consumed"  # the hook took ownership (e.g. diverted to remote)


EgressHook = Callable[[int, Packet, "PortQueue"], HookVerdict]
DequeueListener = Callable[[int, Packet, "PortQueue"], None]


@dataclass
class TrafficManagerConfig:
    """Buffer geometry and scheduling of the modelled ASIC."""

    #: Shared packet-buffer pool (the paper's example ToR has 12 MB).
    buffer_bytes: int = mib(12)
    #: Optional static per-queue cap within the shared pool.
    per_queue_limit_bytes: Optional[int] = None
    #: §7 option: serve RDMA packets at strict priority and reserve buffer
    #: headroom for them "so that they are less likely to be dropped".
    rdma_priority: bool = False
    #: Buffer bytes only RDMA packets may use (with rdma_priority).
    rdma_reserved_bytes: int = 0
    #: §7 option: token-bucket policer on RDMA traffic per port, "a
    #: bandwidth cap to prevent RDMA packets taking too much bandwidth".
    #: None disables the cap.
    rdma_rate_cap_bps: Optional[float] = None
    #: Token-bucket burst allowance for the RDMA cap.
    rdma_cap_burst_bytes: int = 32 * 1024
    #: ECN marking threshold (DCTCP-style step marking): ECT packets
    #: enqueued while the port queue is at or above this depth get CE.
    #: §2.1 relies on this for *persistent* congestion ("end-to-end
    #: congestion control based on ECN ... should have slowed traffic").
    #: None disables marking.
    ecn_threshold_bytes: Optional[int] = None
    #: Which packets ride the strict-priority class when rdma_priority is
    #: on.  Defaults to "any RoCE packet"; override to something finer —
    #: e.g. READ requests only, so the packet buffer's load path never
    #: queues behind megabytes of its own store traffic.
    priority_classifier: Optional[Callable[[Packet], bool]] = None


class PortQueue:
    """One port's egress FIFO, drawing from the TM's shared byte pool.

    Duck-type compatible with :class:`repro.net.queues.TxQueue` so an
    :class:`~repro.net.node.Interface` can serve directly from it.

    Admission is one straight line per packet.  Every optional feature —
    egress hook, RDMA classification, rate cap, per-queue limit, ECN
    threshold, dequeue listeners — costs one attribute test when it is
    off, read from the live config so a mid-run change takes effect.
    """

    def __init__(self, tm: "TrafficManager", port: int) -> None:
        self.tm = tm
        self.port = port
        self._queue: Deque[Packet] = deque()
        # Strict-priority class for RDMA packets (rdma_priority mode).
        self._rdma_queue: Deque[Packet] = deque()
        #: Bytes held; a plain attribute, as the serializer reads it at
        #: every frame start.
        self.depth_bytes = 0
        self.enqueued_packets = 0
        self.dropped_packets = 0
        self.dropped_bytes = 0
        self.rdma_policer_drops = 0
        self.ecn_marked = 0
        self.peak_depth_bytes = 0
        # Token bucket for the RDMA rate cap.
        self._cap_tokens = float(tm.config.rdma_cap_burst_bytes)
        self._cap_refilled_at = 0.0

    # -- TxQueue protocol -------------------------------------------------------

    def offer(self, packet: Packet) -> bool:
        """TM admission: egress hook first, then shared-pool drop-tail."""
        tm = self.tm
        hook = tm.egress_hook
        if hook is not None and hook(self.port, packet, self) is HookVerdict.CONSUMED:
            return True  # the hook owns the packet now; not a drop
        config = tm.config
        size = packet.buffer_len
        pool = config.buffer_bytes
        is_rdma = False
        if config.rdma_priority or config.rdma_rate_cap_bps is not None:
            # Classify RDMA traffic the way the pipeline would (BTH present).
            classifier = config.priority_classifier
            if classifier is not None:
                is_rdma = classifier(packet)
            else:
                is_rdma = packet.find(BthHeader) is not None
            if is_rdma:
                if config.rdma_rate_cap_bps is not None and not self._police_rdma(size):
                    self.rdma_policer_drops += 1
                    tm.total_dropped_packets += 1
                    tm.total_dropped_bytes += size
                    return False
            elif config.rdma_priority:
                # Reserved headroom is off limits to non-RDMA traffic.
                pool -= config.rdma_reserved_bytes
        limit = config.per_queue_limit_bytes
        if tm.used_bytes + size > pool or (
            limit is not None and self.depth_bytes + size > limit
        ):
            self.dropped_packets += 1
            self.dropped_bytes += size
            tm.total_dropped_packets += 1
            tm.total_dropped_bytes += size
            return False
        threshold = config.ecn_threshold_bytes
        if threshold is not None and self.depth_bytes >= threshold:
            # DCTCP-style step marking: CE when the queue is hot.
            ip = packet.find(Ipv4Header)
            if ip is not None and ip.ecn in (1, 2):  # ECT(1) / ECT(0)
                ip.ecn = 3  # CE
                self.ecn_marked += 1
        self.enqueue_direct(packet, is_rdma)
        return True

    def _police_rdma(self, size: int) -> bool:
        """Token-bucket policer for the §7 RDMA bandwidth cap."""
        config = self.tm.config
        now = self.tm.clock()
        elapsed = max(0.0, now - self._cap_refilled_at)
        self._cap_refilled_at = now
        self._cap_tokens = min(
            config.rdma_cap_burst_bytes,
            self._cap_tokens + elapsed * config.rdma_rate_cap_bps / 8e9,
        )
        if self._cap_tokens < size:
            return False
        self._cap_tokens -= size
        return True

    def enqueue_direct(self, packet: Packet, is_rdma: bool = False) -> None:
        """Enqueue bypassing the egress hook (used by the hook itself when
        re-injecting packets loaded back from remote memory)."""
        tm = self.tm
        size = packet.buffer_len
        if is_rdma and tm.config.rdma_priority:
            self._rdma_queue.append(packet)
        else:
            self._queue.append(packet)
        self.depth_bytes = depth = self.depth_bytes + size
        tm.used_bytes = used = tm.used_bytes + size
        if used > tm.peak_used_bytes:
            tm.peak_used_bytes = used
        if depth > self.peak_depth_bytes:
            self.peak_depth_bytes = depth
        self.enqueued_packets += 1

    def poll(self) -> Optional[Packet]:
        if self._rdma_queue:
            packet = self._rdma_queue.popleft()
        elif self._queue:
            packet = self._queue.popleft()
        else:
            return None
        tm = self.tm
        size = packet.buffer_len
        self.depth_bytes -= size
        tm.used_bytes -= size
        if tm.dequeue_listeners:
            for listener in tm.dequeue_listeners:
                listener(self.port, packet, self)
        return packet

    def peek(self) -> Optional[Packet]:
        if self._rdma_queue:
            return self._rdma_queue[0]
        return self._queue[0] if self._queue else None

    # -- introspection --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._queue) + len(self._rdma_queue)

    def __bool__(self) -> bool:
        return True

    def __repr__(self) -> str:
        return f"<PortQueue port={self.port} {len(self)}p/{self.depth_bytes}B>"


class TrafficManager:
    """Shared-buffer manager across all port queues of one switch."""

    def __init__(self, config: Optional[TrafficManagerConfig] = None) -> None:
        self.config = config if config is not None else TrafficManagerConfig()
        self.used_bytes = 0
        self.peak_used_bytes = 0
        self.total_dropped_packets = 0
        self.total_dropped_bytes = 0
        self.queues: Dict[int, PortQueue] = {}
        self.egress_hook: Optional[EgressHook] = None
        self.dequeue_listeners: List[DequeueListener] = []
        #: Clock source; the owning switch installs its simulator clock
        #: (needed only by the RDMA rate-cap policer).
        self.clock: Callable[[], float] = lambda: 0.0

    def queue_for(self, port: int) -> PortQueue:
        if port not in self.queues:
            self.queues[port] = PortQueue(self, port)
        return self.queues[port]

    def __repr__(self) -> str:
        return (
            f"<TrafficManager {self.used_bytes}/{self.config.buffer_bytes}B "
            f"drops={self.total_dropped_packets}>"
        )
