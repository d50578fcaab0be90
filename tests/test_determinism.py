"""Whole-system determinism: identical seeds give identical experiments.

DESIGN.md lists deterministic event ordering as an invariant; these tests
check it end to end, through the RDMA stack, primitives and workloads.
The event-trace tests pin down the kernel-level guarantee directly (exact
firing order, including FIFO tie-breaks and cancellations), so a fast-path
regression in the simulator shows up here before it scrambles a figure.
The seed-42 chaos run's wire trace is pinned by its SHA-256.
"""

import hashlib
import random

from repro.experiments.baremetal import run_baremetal
from repro.experiments.fig3b import run_fig3b_point
from repro.experiments.incast import run_incast
from repro.experiments.kv_cache import run_kv_cache
from repro.sim.simulator import Simulator


def _random_workload_trace(seed: int, n: int = 400):
    """Drive a simulator with a seeded random event mix; return the trace."""
    rng = random.Random(seed)
    sim = Simulator()
    trace = []
    cancellable = []

    def fire(tag):
        trace.append((sim.now, tag))
        for _ in range(rng.randrange(3)):
            delay = rng.choice([0.0, 1.0, 1.0, 2.5, 10.0])
            child = sim.schedule(delay, fire, f"{tag}.{len(trace)}")
            if rng.random() < 0.3:
                cancellable.append(child)
        if cancellable and rng.random() < 0.4:
            cancellable.pop(rng.randrange(len(cancellable))).cancel()

    for i in range(8):
        sim.schedule(float(i % 3), fire, f"root{i}")
    sim.run(max_events=n)
    return trace, sim.now, sim.events_processed


def test_event_trace_deterministic():
    """Identical seeds produce byte-identical event traces."""
    assert _random_workload_trace(7) == _random_workload_trace(7)
    assert _random_workload_trace(8) == _random_workload_trace(8)


def test_event_trace_fifo_at_equal_times():
    """Events scheduled for the same instant fire in scheduling order."""
    sim = Simulator()
    order = []
    for i in range(50):
        sim.schedule(5.0, order.append, i)
    sim.run()
    assert order == list(range(50))


def test_run_in_slices_matches_run_to_completion():
    """Draining via deadlines slice by slice equals one uninterrupted run."""
    full, full_now, full_count = _random_workload_trace(11, n=300)

    rng = random.Random(11)
    sim = Simulator()
    trace = []
    cancellable = []

    def fire(tag):
        trace.append((sim.now, tag))
        for _ in range(rng.randrange(3)):
            delay = rng.choice([0.0, 1.0, 1.0, 2.5, 10.0])
            child = sim.schedule(delay, fire, f"{tag}.{len(trace)}")
            if rng.random() < 0.3:
                cancellable.append(child)
        if cancellable and rng.random() < 0.4:
            cancellable.pop(rng.randrange(len(cancellable))).cancel()

    for i in range(8):
        sim.schedule(float(i % 3), fire, f"root{i}")
    while sim.active_events and len(trace) < 300:
        sim.run(until_ns=sim.now + 1.0, max_events=300 - len(trace))
    assert trace == full
    assert sim.events_processed == full_count


def test_fig3b_point_deterministic():
    a = run_fig3b_point(256, packets=800)
    b = run_fig3b_point(256, packets=800)
    assert a == b


def test_incast_deterministic():
    a = run_incast("remote_buffer", scale=0.02, n_memory_servers=2)
    b = run_incast("remote_buffer", scale=0.02, n_memory_servers=2)
    assert a == b


def test_chaos_run_is_pinned_and_repeats():
    """Seed-42 chaos run — IidLoss on the server link, then the blackout →
    degrade → reconnect scenario: its wire trace hashes to the pin, and a
    second run gives identical results and a field-identical metric
    snapshot."""
    from repro.experiments.chaos import run_chaos_point, run_chaos_recovery
    from repro.obs import Observability
    from repro.obs.trace import WireTrace

    def run():
        obs = Observability(trace=WireTrace())
        with obs.activate():
            point = run_chaos_point(
                loss_rate=0.05, packets=300, flows=8, counters=64, seed=42
            )
            recovery = run_chaos_recovery(seed=42)
        return (
            point,
            recovery,
            obs.trace.to_jsonl(),
            obs.registry.snapshot(),
        )

    first = run()
    # Re-pinned when the switch's requester took over loss recovery: the
    # reliable store now answers each loss event with one go-back-N and a
    # stuck window with a whole-window re-send, so this lossy run's wire
    # trace changed.
    assert hashlib.sha256(first[2].encode()).hexdigest() == (
        "9f7631437e46ed0aa157774fa0c8825d3263b993f4d7d471e5aadf1afcc9e9ae"
    )
    assert run() == first
    assert len(first[3]) > 0


def test_baremetal_deterministic_per_seed():
    a = run_baremetal("remote", vips=500, packets=400, seed=3)
    b = run_baremetal("remote", vips=500, packets=400, seed=3)
    assert a == b


def test_baremetal_seed_changes_draws():
    """Different seeds draw different VIP sequences (the aggregate metrics
    can coincide — per-packet service times don't depend on which VIP —
    so the check is at the sampler level)."""
    from repro.sim.rng import SeedSequence
    from repro.workloads.flows import ZipfSampler

    a = ZipfSampler(500, 1.1, SeedSequence(0).stream("baremetal-3"))
    b = ZipfSampler(500, 1.1, SeedSequence(0).stream("baremetal-4"))
    assert [a.sample() for _ in range(50)] != [b.sample() for _ in range(50)]


def test_kv_cache_deterministic():
    a = run_kv_cache("sram+remote", keys=300, queries=200)
    b = run_kv_cache("sram+remote", keys=300, queries=200)
    assert a == b
