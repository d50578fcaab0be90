"""Flow-level workloads: Zipf-popular flows over many endpoints.

The bare-metal lookup-table (§2.2) and telemetry (§2.3) scenarios need
traffic spread over far more flows than switch SRAM can hold, with the
skewed popularity real data centers show.  :class:`ZipfFlowWorkload`
generates a packet stream over F distinct 5-tuples whose popularity
follows Zipf(alpha).
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from typing import Dict, List

from ..hosts.server import Host
from ..net.packet import Packet
from ..sim.simulator import Simulator
from ..sim.units import SEC
from .factory import stamp_ports, udp_between


class ZipfSampler:
    """Sample flow ranks 0..n-1 with probability ∝ 1/(rank+1)^alpha."""

    def __init__(self, n: int, alpha: float, rng: random.Random) -> None:
        if n <= 0:
            raise ValueError(f"need at least one item, got {n}")
        if alpha < 0:
            raise ValueError(f"alpha must be non-negative, got {alpha}")
        self.n = n
        self.alpha = alpha
        self._rng = rng
        weights = [1.0 / (rank + 1) ** alpha for rank in range(n)]
        total = 0.0
        self._cdf: List[float] = []
        for weight in weights:
            total += weight
            self._cdf.append(total)
        self._total = total

    def sample(self) -> int:
        point = self._rng.random() * self._total
        return bisect.bisect_left(self._cdf, point)


@dataclass
class FlowKey:
    """Identifies one generated flow (maps to UDP port pair)."""

    rank: int
    src_port: int
    dst_port: int


class ZipfFlowWorkload:
    """Paced packet stream over Zipf-popular flows between two hosts.

    Flows are distinguished by UDP port pairs, which is enough to make
    their 5-tuples (and hence remote table/counter indices) distinct.
    """

    BASE_PORT = 1024

    def __init__(
        self,
        sim: Simulator,
        src: Host,
        dst: Host,
        flows: int,
        alpha: float = 1.0,
        packet_size: int = 256,
        rate_bps: float = 10e9,
        count: int = 10_000,
        seed: int = 0,
    ) -> None:
        self.sim = sim
        self.src = src
        self.dst = dst
        self.flows = flows
        self.packet_size = packet_size
        self.count = count
        self._rng = random.Random(seed)
        self._sampler = ZipfSampler(flows, alpha, self._rng)
        self._sent = 0
        self.sent_by_rank: Dict[int, int] = {}
        self.packets_sent = 0
        self._template = udp_between(src, dst, packet_size)
        self._interval_ns = self._template.wire_len * 8 * SEC / rate_bps
        self.on_done = None

    def flow_key(self, rank: int) -> FlowKey:
        """Deterministic flow → port-pair mapping (16k ranks per dst port)."""
        return FlowKey(
            rank=rank,
            src_port=self.BASE_PORT + rank % 60_000,
            dst_port=self.BASE_PORT + rank // 60_000,
        )

    def packet_for(self, rank: int) -> Packet:
        key = self.flow_key(rank)
        packet = stamp_ports(self._template, key.src_port, key.dst_port)
        packet.meta["flow_rank"] = rank
        packet.meta["sent_at"] = self.sim.now
        return packet

    def start(self, at_ns: float = 0.0) -> None:
        self.sim.schedule_at(max(at_ns, self.sim.now), self._tick)

    def _tick(self) -> None:
        if self._sent >= self.count:
            if self.on_done is not None:
                self.on_done()
            return
        rank = self._sampler.sample()
        self.src.send(self.packet_for(rank))
        self.sent_by_rank[rank] = self.sent_by_rank.get(rank, 0) + 1
        self.packets_sent += 1
        self._sent += 1
        self.sim.schedule(self._interval_ns, self._tick)

    def distinct_flows_sent(self) -> int:
        return len(self.sent_by_rank)

    def heavy_hitters(self, threshold: int) -> Dict[int, int]:
        """Ground-truth flows with at least *threshold* packets."""
        return {
            rank: count
            for rank, count in self.sent_by_rank.items()
            if count >= threshold
        }
