"""Tests for the million-flow Zipf workload subsystem (repro.workloads.zipf).

ZipfGenerator is the O(1) rejection-inversion sampler; it must be
deterministic under a seeded rng, validate its parameters, degenerate to
uniform at alpha=0, and actually produce a heavy-tailed distribution.
OpenLoopZipfTraffic must offer the *same flows in the same order*
whatever the arrival model, and deliver packets end to end on the sim.
A schedule is drawn in one call and kept four bytes a rank; that draw
must equal the per-call one rank for rank and draw for draw, and a
source keeps nothing per packet it sends: its ledger is derived from the
schedule's sent prefix.
"""

import hashlib
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.programs import StaticL2Program
from repro.testbed import build_testbed
from repro.workloads.flows import ZipfSampler
from repro.workloads.zipf import OpenLoopZipfTraffic, ZipfGenerator

from .budgets import (
    SCHEDULE_BYTES_PER_PACKET,
    SOURCE_BYTES_PER_SENT_PACKET,
    byte_budget,
    retained,
)


def _forwarding_testbed():
    tb = build_testbed(n_hosts=2)
    program = StaticL2Program()
    for host, port in zip(tb.hosts, tb.host_ports):
        program.install(host.eth.mac, port)
    tb.switch.bind_program(program)
    return tb


class TestZipfGenerator:
    def test_rejects_bad_population(self):
        with pytest.raises(ValueError):
            ZipfGenerator(0, 1.0, random.Random(1))

    def test_rejects_negative_alpha(self):
        with pytest.raises(ValueError):
            ZipfGenerator(10, -0.5, random.Random(1))

    def test_seed_determinism(self):
        a = ZipfGenerator(1_000_000, 1.0, random.Random(42))
        b = ZipfGenerator(1_000_000, 1.0, random.Random(42))
        assert [a.sample() for _ in range(2000)] == [
            b.sample() for _ in range(2000)
        ]

    def test_samples_stay_in_range(self):
        gen = ZipfGenerator(100, 1.2, random.Random(7))
        samples = [gen.sample() for _ in range(5000)]
        assert min(samples) >= 0
        assert max(samples) < 100

    def test_alpha_zero_is_uniform(self):
        gen = ZipfGenerator(10, 0.0, random.Random(3))
        counts = [0] * 10
        for _ in range(10_000):
            counts[gen.sample()] += 1
        # Uniform: every rank near 1000; nothing Zipf-skewed.
        assert max(counts) < 2 * min(counts)

    def test_distribution_is_heavy_tailed(self):
        """At alpha=1 the rank-0 share must dwarf the deep tail and the
        empirical head frequencies must be close to 1/(r+1)/H_n."""
        n = 100_000
        gen = ZipfGenerator(n, 1.0, random.Random(11))
        counts = {}
        draws = 50_000
        for _ in range(draws):
            r = gen.sample()
            counts[r] = counts.get(r, 0) + 1
        h_n = sum(1.0 / (r + 1) for r in range(n))
        for rank in range(3):
            expected = draws / ((rank + 1) * h_n)
            assert counts.get(rank, 0) == pytest.approx(expected, rel=0.25)
        # Rank 0 alone beats the combined mass of ranks >= 1000.
        deep_tail = sum(c for r, c in counts.items() if r >= 1000)
        assert counts[0] > deep_tail / 5

    def test_ten_million_flow_population_is_cheap(self):
        """O(1) setup and sampling: a 10M-rank generator works instantly
        (the table-based sampler would need a 10M-entry CDF)."""
        gen = ZipfGenerator(10_000_000, 1.0, random.Random(5))
        samples = [gen.sample() for _ in range(1000)]
        assert all(0 <= s < 10_000_000 for s in samples)
        assert len(set(samples)) > 100  # not degenerate


class TestOpenLoopZipfTraffic:
    def _traffic(self, tb, **kw):
        defaults = dict(
            flows=10_000, alpha=1.0, rate_pps=1e6, count=500, seed=9
        )
        defaults.update(kw)
        return OpenLoopZipfTraffic(
            tb.sim, tb.hosts[0], tb.hosts[1], **defaults
        )

    def test_validates_parameters(self):
        tb = build_testbed(n_hosts=2)
        with pytest.raises(ValueError):
            self._traffic(tb, arrival="bursty")
        with pytest.raises(ValueError):
            self._traffic(tb, rate_pps=0)
        with pytest.raises(ValueError):
            self._traffic(tb, rate_pps=float("nan"))
        with pytest.raises(ValueError):
            self._traffic(tb, flows=60_000 * 60_000 + 1)

    def test_rejects_a_negative_count(self):
        """It used to build an empty schedule and send nothing."""
        tb = build_testbed(n_hosts=2)
        with pytest.raises(ValueError):
            self._traffic(tb, count=-1)

    def test_schedule_deterministic_across_arrival_models(self):
        """The rank stream is independent of the arrival-jitter stream:
        poisson and paced runs offer the same flows in the same order."""
        tb = build_testbed(n_hosts=2)
        poisson = self._traffic(tb, arrival="poisson")
        paced = self._traffic(tb, arrival="paced")
        assert poisson.schedule == paced.schedule
        assert poisson.distinct_ranks() == paced.distinct_ranks()

    def test_schedule_deterministic_under_seed(self):
        tb = build_testbed(n_hosts=2)
        assert (
            self._traffic(tb, seed=4).schedule
            == self._traffic(tb, seed=4).schedule
        )
        assert (
            self._traffic(tb, seed=4).schedule
            != self._traffic(tb, seed=5).schedule
        )

    def test_flow_key_mapping_is_injective(self):
        tb = build_testbed(n_hosts=2)
        traffic = self._traffic(tb)
        span = OpenLoopZipfTraffic.PORT_SPAN
        keys = {
            (k.src_port, k.dst_port)
            for k in (
                traffic.flow_key(r)
                for r in (0, 1, span - 1, span, span + 1, 2 * span)
            )
        }
        assert len(keys) == 6
        assert traffic.flow_key(0).src_port == OpenLoopZipfTraffic.BASE_PORT

    def test_open_loop_delivery_on_sim(self):
        """All scheduled packets are sent and per-rank accounting matches
        the precomputed schedule exactly."""
        tb = _forwarding_testbed()
        traffic = self._traffic(tb, count=300)
        done = []
        traffic.on_done = lambda: done.append(tb.sim.now)
        traffic.start()
        tb.sim.run()
        assert traffic.packets_sent == 300
        assert done, "on_done never fired"
        sent_by_rank = traffic.sent_by_rank
        assert sum(sent_by_rank.values()) == 300
        assert traffic.distinct_flows_sent() == len(set(traffic.schedule))
        heavy = traffic.heavy_hitters(3)
        assert all(sent_by_rank[r] >= 3 for r in heavy)

    def test_paced_arrivals_are_evenly_spaced(self):
        tb = _forwarding_testbed()
        traffic = self._traffic(tb, arrival="paced", count=50, rate_pps=1e6)
        stamps = []
        original = traffic.packet_for

        def recording(rank):
            stamps.append(tb.sim.now)
            return original(rank)

        traffic.packet_for = recording
        traffic.start()
        tb.sim.run()
        gaps = {
            round(b - a, 3) for a, b in zip(stamps, stamps[1:])
        }
        assert gaps == {1000.0}  # 1 Mpps -> 1000 ns between packets

    def test_the_ledger_is_the_sent_prefix_of_the_schedule(self):
        """Cut mid-run: ``sent_by_rank`` equals a count kept tick by tick, in
        first-send order, and ``packets_sent`` is the cursor."""
        tb = _forwarding_testbed()
        traffic = self._traffic(tb, flows=50, count=400)
        ledger = {}
        original = traffic.packet_for

        def counting(rank):
            ledger[rank] = ledger.get(rank, 0) + 1
            return original(rank)

        traffic.packet_for = counting
        traffic.start()
        tb.sim.run(until_ns=150_000.0)
        sent = sum(ledger.values())
        assert 0 < sent < 400
        assert traffic.packets_sent == traffic._cursor == sent
        assert list(traffic.sent_by_rank.items()) == list(ledger.items())
        assert traffic.distinct_flows_sent() == len(ledger)
        assert traffic.heavy_hitters(5) == {r: c for r, c in ledger.items() if c >= 5}


# -- samples() is the per-call draw ----------------------------------------------------------

def _populations(max_k, *more):
    """1, 60 000, *more* and 2ᵏ−1, 2ᵏ, 2ᵏ+1 for k ≤ *max_k*."""
    return st.one_of(
        st.sampled_from([1, 60_000, *more]),
        st.builds(lambda k, d: (1 << k) + d, st.integers(1, max_k), st.sampled_from([-1, 0, 1])),
    )


def _same_draws(make, n, alpha, count, seed):
    """``samples(count)`` against *count* ``sample()`` calls from one seed:
    the same ranks, and the rng left in the same state."""
    per_call, bulk = random.Random(seed), random.Random(seed)
    one = make(n, alpha, per_call)
    expected = [one.sample() for _ in range(count)]
    ranks = make(n, alpha, bulk).samples(count)
    assert ranks.tolist() == expected
    assert bulk.getstate() == per_call.getstate()
    assert ranks.itemsize == (4 if n <= 1 << 32 else 8)


@settings(max_examples=120, deadline=None)
@given(
    n=_populations(33, 1_000_000),
    alpha=st.sampled_from([0.0, 0.5, 1.0, 1.3]),
    count=st.integers(0, 3000),
    seed=st.integers(0, 2**32 - 1),
)
def test_the_generators_bulk_draw_is_its_per_call_draw(n, alpha, count, seed):
    _same_draws(ZipfGenerator, n, alpha, count, seed)


@settings(max_examples=60, deadline=None)
@given(
    n=_populations(15),  # the sampler's CDF is O(n)
    alpha=st.sampled_from([0.0, 0.5, 1.0, 1.3]),
    count=st.integers(0, 3000),
    seed=st.integers(0, 2**32 - 1),
)
def test_the_cdf_samplers_bulk_draw_is_its_per_call_draw(n, alpha, count, seed):
    _same_draws(ZipfSampler, n, alpha, count, seed)


@pytest.mark.parametrize("make", [ZipfGenerator, ZipfSampler])
def test_a_bulk_draw_rejects_a_negative_count(make):
    with pytest.raises(ValueError):
        make(10, 1.0, random.Random(1)).samples(-1)


#: SHA-256 of ``l2_forward``'s schedule (seed 42, 187 500 uniform ranks over
#: 4 096 flows) as little-endian u32s, as the per-call draw made it.
L2_FORWARD_SCHEDULE_SHA256 = "53e7a6cd4be1968d018deb37ba4f327455971943d2419f700023e41c7c5136df"


def test_the_l2_forward_schedule_is_frozen():
    tb = build_testbed(n_hosts=2, with_memory_server=False, seed=42)
    traffic = OpenLoopZipfTraffic(
        tb.sim, tb.hosts[0], tb.hosts[1], flows=4096, alpha=0.0, packet_size=64,
        count=187_500, seed=42, arrival="paced",
    )
    packed = struct.pack(f"<{traffic.count}I", *traffic.schedule)
    assert hashlib.sha256(packed).hexdigest() == L2_FORWARD_SCHEDULE_SHA256


# -- bytes, not calls ------------------------------------------------------------------------

def _schedule_bytes_per_packet(count=20_000):
    tb = build_testbed(n_hosts=2, with_memory_server=False, seed=1)

    def build(n):
        return lambda: OpenLoopZipfTraffic(
            tb.sim, tb.hosts[0], tb.hosts[1], flows=4096, alpha=0.0, count=n, seed=1
        )

    # What a build leaves traced depends on how often the constructors have
    # run in this process (blocks of the source object and of the header
    # constructors' temporaries come and go; the interpreter's adaptive
    # specialisation settling is the likely cause).  In a fresh process the
    # first three measurements read 4.2008, 4.2004 and 4.2008 B, then
    # 4.2012 for good; after eight warm-up rounds the first one reads 4.2012.
    for _ in range(8):
        build(100)()
        build(0)()
    _, empty = retained(build(0))
    _, full = retained(build(count))
    return (full - empty) / count


def _bytes_kept_by_a_run(count):
    tb = _forwarding_testbed()
    traffic = OpenLoopZipfTraffic(
        tb.sim, tb.hosts[0], tb.hosts[1], flows=1_000_000, alpha=0.0, count=count, seed=1,
    )
    traffic.start()
    _, kept = retained(tb.sim.run)
    assert traffic.packets_sent == count
    return kept


def _bytes_per_sent_packet(few=1_000, many=3_000):
    """What a run keeps per packet beyond a shorter run's constant residue."""
    return (_bytes_kept_by_a_run(many) - _bytes_kept_by_a_run(few)) / (many - few)


@byte_budget
def test_a_scheduled_packet_costs_four_bytes():
    measured = _schedule_bytes_per_packet()
    assert measured == _schedule_bytes_per_packet(), "the counts must repeat exactly"
    assert measured <= SCHEDULE_BYTES_PER_PACKET, f"{measured:.2f} bytes per scheduled packet"


@byte_budget
def test_a_source_keeps_nothing_per_sent_packet():
    _bytes_kept_by_a_run(10)  # the first run's lazy set-up is not the source's
    measured = _bytes_per_sent_packet()
    assert measured == _bytes_per_sent_packet(), "the counts must repeat exactly"
    assert measured <= SOURCE_BYTES_PER_SENT_PACKET, f"{measured:.2f} bytes per sent packet"
