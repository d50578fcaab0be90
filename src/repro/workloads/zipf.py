"""Million-flow Zipf workloads: O(1) sampling + open-loop arrivals.

The lookup-table scale runs need traffic over 1–10 M distinct flows with
the heavy-tailed popularity real data centers show.  The original
:class:`~repro.workloads.flows.ZipfSampler` builds an O(n) CDF — fine
for thousands of flows, unusable at millions — so this module provides:

* :class:`ZipfGenerator` — rejection-inversion sampling after Hörmann &
  Derflinger ("Rejection-inversion to generate variates from monotone
  discrete distributions", the algorithm behind Apache Commons'
  ``ZipfRejectionInversionSampler``): **O(1) memory and ~O(1) time per
  sample** at any population size, deterministic under a seeded
  ``random.Random``.

* :class:`OpenLoopZipfTraffic` — an open-loop arrival process over a
  Zipf flow population: packets arrive on a schedule (seeded Poisson or
  fixed pacing) that does **not** react to the system under test, the
  arrival model §5-style saturation measurements need.  The rank
  sequence is precomputed from its own derived stream, so experiments
  can install table entries for exactly the flows that will appear
  before the first packet is sent.

Flows map to UDP port pairs through the
:class:`~repro.workloads.flows.ZipfPacketSource` it shares with
:class:`~repro.workloads.flows.ZipfFlowWorkload` (rank → ``src_port``,
``dst_port``), so 5-tuples stay distinct across the whole population.
"""

from __future__ import annotations

import math
import random
from array import array
from itertools import repeat, starmap

from ..hosts.server import Host
from ..sim.rng import SeedSequence
from ..sim.simulator import Simulator
from ..sim.units import SEC
from .flows import ZipfPacketSource, rank_array


class ZipfGenerator:
    """Sample ranks 0..n-1 with P(rank) ∝ 1/(rank+1)^alpha in O(1).

    Rejection-inversion: invert the integral of the continuous envelope
    ``h(x) = x^-alpha`` and reject the (rare) overshoots.  No tables, no
    setup cost proportional to *n* — the properties that let a single
    run sweep 10 M-flow populations.  ``alpha = 0`` degenerates to
    uniform sampling.
    """

    def __init__(self, n: int, alpha: float, rng: random.Random) -> None:
        if n <= 0:
            raise ValueError(f"need at least one item, got {n}")
        if alpha < 0:
            raise ValueError(f"alpha must be non-negative, got {alpha}")
        self.n = n
        self.alpha = alpha
        self._rng = rng
        if alpha > 0:
            self._h_x1 = self._h_integral(1.5) - 1.0
            self._h_n = self._h_integral(n + 0.5)
            self._s = 2.0 - self._h_integral_inverse(
                self._h_integral(2.5) - self._h(2.0)
            )

    # H(x) = ∫ h, via the numerically stable helpers below.
    def _h_integral(self, x: float) -> float:
        log_x = math.log(x)
        return _helper2((1.0 - self.alpha) * log_x) * log_x

    def _h(self, x: float) -> float:
        return math.exp(-self.alpha * math.log(x))

    def _h_integral_inverse(self, x: float) -> float:
        t = x * (1.0 - self.alpha)
        if t < -1.0:
            t = -1.0  # guard the log1p singularity at the distribution head
        return math.exp(_helper1(t) * x)

    def sample(self) -> int:
        """One Zipf variate (0-based rank), consuming rng.random() draws."""
        if self.alpha == 0.0:
            return self._rng.randrange(self.n)
        while True:
            u = self._h_n + self._rng.random() * (self._h_x1 - self._h_n)
            x = self._h_integral_inverse(u)
            k = int(x + 0.5)
            if k < 1:
                k = 1
            elif k > self.n:
                k = self.n
            if k - x <= self._s or u >= self._h_integral(k + 0.5) - self._h(k):
                return k - 1

    def samples(self, count: int) -> array:
        """The ranks *count* calls of :meth:`sample` return, four bytes a
        rank, leaving the rng in the state those calls would."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        return rank_array(self.n, starmap(self.sample, repeat((), count)))


def _helper1(x: float) -> float:
    """log1p(x) / x, stable near zero."""
    if abs(x) > 1e-8:
        return math.log1p(x) / x
    return 1.0 - x * (0.5 - x * (1.0 / 3.0 - 0.25 * x))


def _helper2(x: float) -> float:
    """expm1(x) / x, stable near zero."""
    if abs(x) > 1e-8:
        return math.expm1(x) / x
    return 1.0 + x * 0.5 * (1.0 + x * (1.0 / 3.0) * (1.0 + 0.25 * x))


class OpenLoopZipfTraffic(ZipfPacketSource):
    """Open-loop packet arrivals over a seeded Zipf flow population.

    Arrivals follow their own clock — seeded Poisson (``arrival=
    "poisson"``, the default) or deterministic pacing (``"paced"``) at
    ``rate_pps`` — regardless of how the switch or the remote table are
    coping, which is what makes measured miss throughput an *offered
    load* number rather than a closed-loop artifact.

    Determinism: the rank sequence and the arrival jitter come from
    independent streams derived from ``seed`` (via
    :class:`~repro.sim.rng.SeedSequence`), so the *same flows in the
    same order* appear whatever the arrival model, and experiments can
    call :meth:`distinct_ranks` before starting to pre-install exactly
    the flows the run will offer.
    """

    def __init__(
        self,
        sim: Simulator,
        src: Host,
        dst: Host,
        flows: int,
        alpha: float = 1.0,
        packet_size: int = 128,
        rate_pps: float = 1e6,
        count: int = 10_000,
        seed: int = 0,
        arrival: str = "poisson",
    ) -> None:
        if flows > self.PORT_SPAN * self.PORT_SPAN:
            raise ValueError(f"flow population too large: {flows}")
        if arrival not in ("poisson", "paced"):
            raise ValueError(f"unknown arrival process: {arrival!r}")
        if not rate_pps > 0:
            raise ValueError(f"rate must be positive, got {rate_pps}")
        super().__init__(sim, src, dst, packet_size)
        self.flows = flows
        self.alpha = alpha
        self.rate_pps = rate_pps
        self.count = count
        self.arrival = arrival
        seeds = SeedSequence(seed)
        if arrival == "poisson":
            self._arrival_rng = seeds.stream("zipf.arrivals")
        self._mean_gap_ns = SEC / rate_pps
        # The rank schedule is fixed up front: sampling is O(1) per
        # packet, so even million-packet schedules build in well under a
        # second, and the population becomes inspectable pre-run.
        generator = ZipfGenerator(flows, alpha, seeds.stream("zipf.ranks"))
        self.schedule = generator.samples(count)
