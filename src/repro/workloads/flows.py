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
from array import array
from collections import Counter
from itertools import islice, repeat, starmap
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional

from ..hosts.server import Host
from ..net.packet import Packet
from ..sim.simulator import Simulator
from ..sim.units import SEC
from .factory import stamp_ports, udp_between


def rank_array(population: int, ranks: Iterable[int] = ()) -> array:
    """*ranks*, all below *population*, four bytes each (eight past 2³²)."""
    return array("I" if population <= 1 << 32 else "Q", ranks)


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

    def samples(self, count: int) -> array:
        """What *count* calls of :meth:`sample` return, four bytes a rank."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        return rank_array(self.n, starmap(self.sample, repeat((), count)))


class FlowKey(NamedTuple):
    """Identifies one generated flow (maps to UDP port pair)."""

    rank: int
    src_port: int
    dst_port: int


class ZipfPacketSource:
    """Packets over rank-numbered flows between two hosts, one per tick.

    What :class:`ZipfFlowWorkload` and
    :class:`~repro.workloads.zipf.OpenLoopZipfTraffic` share: the rank →
    UDP port pair mapping (which is enough to make 5-tuples, and hence
    remote table/counter indices, distinct), the packet stamped from one
    template and the self-re-arming tick over a rank schedule fixed up
    front (so the population is inspectable pre-run).  The schedule and a
    cursor into it are a source's whole state: what has been sent is the
    schedule's prefix, and the per-rank ledger is counted from it when
    asked for.  A subclass supplies ``schedule`` (the ``count`` ranks to
    send, in order, four bytes each: :func:`rank_array`),
    ``_mean_gap_ns`` and ``_arrival_rng`` (``None`` for a fixed gap, else
    exponential gaps).
    """

    BASE_PORT = 1024
    #: Port-space fan-out: ranks per dst port.
    PORT_SPAN = 60_000

    schedule: array
    count: int
    _mean_gap_ns: float
    _arrival_rng: Optional[random.Random] = None

    def __init__(self, sim: Simulator, src: Host, dst: Host, packet_size: int) -> None:
        self.sim = sim
        self.src = src
        self.dst = dst
        self.packet_size = packet_size
        self.on_done: Optional[Callable[[], None]] = None
        self._cursor = 0
        self._template = udp_between(src, dst, packet_size)

    @property
    def packets_sent(self) -> int:
        return self._cursor

    @property
    def sent_by_rank(self) -> Counter[int]:
        """Packets sent per rank, in first-send order.

        Counted from the schedule's sent prefix on each access and returned
        as a new ``Counter``: read it once, not once per rank.  A rank not
        sent yet counts 0."""
        return Counter(islice(self.schedule, self._cursor))

    def distinct_ranks(self) -> List[int]:
        """Sorted ranks that will actually appear, for pre-installation."""
        return sorted(set(self.schedule))

    def flow_key(self, rank: int) -> FlowKey:
        """Deterministic flow → port-pair mapping (60k ranks per dst port)."""
        base, span = self.BASE_PORT, self.PORT_SPAN
        return FlowKey(rank, base + rank % span, base + rank // span)

    def packet_for(self, rank: int) -> Packet:
        packet = stamp_ports(
            self._template,
            self.BASE_PORT + rank % self.PORT_SPAN,
            self.BASE_PORT + rank // self.PORT_SPAN,
        )
        meta = packet.meta
        meta["flow_rank"] = rank
        meta["sent_at"] = self.sim.now
        return packet

    def start(self, at_ns: float = 0.0) -> None:
        self.sim.schedule_at(max(at_ns, self.sim.now), self._tick)

    def _tick(self) -> None:
        cursor = self._cursor
        if cursor >= self.count:
            if self.on_done is not None:
                self.on_done()
            return
        self._cursor = cursor + 1
        self.src.send(self.packet_for(self.schedule[cursor]))
        gap = self._mean_gap_ns
        if self._arrival_rng is not None:
            gap *= self._arrival_rng.expovariate(1.0)
        self.sim.post(gap, self._tick)

    def distinct_flows_sent(self) -> int:
        return len(set(islice(self.schedule, self._cursor)))

    def heavy_hitters(self, threshold: int) -> Dict[int, int]:
        """Ground-truth flows with at least *threshold* packets."""
        return {
            rank: count
            for rank, count in self.sent_by_rank.items()
            if count >= threshold
        }


class ZipfFlowWorkload(ZipfPacketSource):
    """Paced packet stream over Zipf-popular flows between two hosts."""

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
        if not rate_bps > 0:
            raise ValueError(f"rate must be positive, got {rate_bps}")
        super().__init__(sim, src, dst, packet_size)
        self.flows = flows
        self.count = count
        self.schedule = ZipfSampler(flows, alpha, random.Random(seed)).samples(count)
        self._mean_gap_ns = self._template.wire_len * 8 * SEC / rate_bps
