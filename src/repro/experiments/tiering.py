"""Tiered-memory placement study: what a bounded fast tier buys the store.

The RDCA observation (PAPERS.md): the external-memory server's cache
hierarchy can serve the hot last mile far faster than DRAM — its atomic
engine cycles at tens of Mops instead of the PCIe/DRAM-bound ~2.4 Mops.
The question for the switch data plane is *placement*: which blocks of a
counter array deserve the small fast window?

:func:`run_tiering_point` answers it end to end on the simulated
testbed.  One run drives a bursty open-loop Zipf workload (1 M-flow
population, counter index = Zipf rank) through a tiered
:class:`~repro.core.state_store.RemoteStateStore` whose fast window is a
small fraction of the working set, under one placement policy:

* ``dram``      — all-DRAM baseline (static policy, no pins: nothing
  ever promotes; the fast window sits reserved but empty);
* ``static``    — operator pins the Zipf head up front (knows the
  popularity ranking a priori);
* ``frequency`` — access counts with seeded hysteresis learn the hot
  set online (the headline policy);
* ``watermark`` — occupancy-driven: fill while cold, drain when hot.

The workload is deliberately **bursty** (back-to-back bursts separated
by quiet gaps): a block with in-flight RDMA ops refuses to move by
design, so online promotion needs instants where the hot blocks have
quiesced — exactly what real traffic's on/off structure provides.  The
in-burst offered rate exceeds the DRAM atomic engine's service rate, so
the all-DRAM baseline queues at the NIC while the tiered runs serve the
Zipf head from the fast profile.

Every point also proves the safety story: exact per-counter totals
(zero lost updates) and a fast-occupancy peak that never exceeded the
configured bound, read from the ``tiering.*`` metrics.
:func:`run_tiering_chaos_point` repeats the frequency run with an RNIC
blackout landing mid-promotion on one member of a K=2 replicated pool —
demote-not-drop plus the replica max rule keeps every update.

Every run is seeded: same seed ⇒ same Zipf draws, same burst schedule,
same promotions, same numbers.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple

from ..apps.programs import CountingProgram
from ..cluster.replicated_store import ReplicatedStateStore
from ..core.state_store import (
    ATOMIC_OPERAND_BYTES,
    RemoteStateStore,
    StateStoreConfig,
)
from ..faults.injectors import RnicBlackout
from ..faults.plan import FaultPlan
from ..rdma.memory import TIER_FAST
from ..rdma.rnic import TierProfile
from ..sim.units import usec
from ..tiering.pool import TieredMemoryPool
from ..workloads.zipf import ZipfGenerator
from ..testbed import build_testbed
from . import Experiment

#: Placement policies compared by the sweep, in presentation order.
#: ``dram`` is the all-DRAM baseline every speedup is quoted against.
TIERING_POLICIES = ("dram", "static", "frequency", "watermark")

#: Zipf skew for the headline runs (≈ real DC flow popularity).
DEFAULT_ALPHA = 1.0

#: Fast window as a fraction of the working set (the acceptance bar:
#: 5 % of the counter array's blocks).
FAST_FRACTION = 0.05

#: Service profile of the fast tier: the RDCA cache-resident numbers —
#: no PCIe/DRAM round trip on READs, and a Fetch-and-Add engine that
#: cycles at cache speed instead of the 2.4 Mops DRAM path.
FAST_PROFILE = TierProfile(read_latency_ns=60.0, atomic_rate_ops=40e6)


def zipf_burst_schedule(
    flows: int,
    counters: int,
    updates: int,
    alpha: float = DEFAULT_ALPHA,
    seed: int = 42,
    gap_ns: float = 400.0,
    burst_ops: int = 200,
    quiet_ns: float = 20_000.0,
    start_ns: float = 1_000.0,
) -> List[Tuple[float, int]]:
    """A seeded bursty Zipf update schedule: [(t_ns, counter index), ...].

    Counter index = Zipf rank mod *counters*, so popularity concentrates
    in the low blocks.  Ops arrive in back-to-back bursts of *burst_ops*
    spaced *gap_ns* apart, with *quiet_ns* of silence between bursts —
    the quiescent instants online promotion needs (busy blocks never
    move) and the on/off structure of real packet trains.
    """
    rng = random.Random(seed)
    zipf = ZipfGenerator(flows, alpha, rng)
    timed = []
    t = start_ns
    for n in range(updates):
        if n and n % burst_ops == 0:
            t += quiet_ns
        timed.append((t, zipf.sample() % counters))
        t += gap_ns
    return timed


def _drive(tb, store, timed) -> Dict[int, int]:
    """Schedule every update; return the exact per-counter totals owed."""
    expected: Dict[int, int] = {}
    for t_ns, index in timed:
        tb.sim.schedule(t_ns, store.update, index, 1)
        expected[index] = expected.get(index, 0) + 1
    return expected


def _build_counting_testbed(**testbed_kwargs):
    tb = build_testbed(n_hosts=2, **testbed_kwargs)
    tb.bind(CountingProgram())
    return tb


def run_tiering_point(
    policy: str,
    flows: int = 1_000_000,
    counters: int = 1 << 12,
    updates: int = 20_000,
    alpha: float = DEFAULT_ALPHA,
    seed: int = 42,
    fast_fraction: float = FAST_FRACTION,
    units_per_block: int = 64,
    gap_ns: float = 400.0,
    burst_ops: int = 200,
    quiet_ns: float = 20_000.0,
    tick_ns: float = 15_000.0,
    warmup_fraction: float = 0.3,
) -> dict:
    """Mean/p99 FAA latency + safety checks for one placement policy.

    The latency mean is **post-warmup** (the first *warmup_fraction* of
    the schedule is the learning window for online policies); the
    zero-lost and occupancy-bound checks cover the whole run including
    warmup and the final flush.
    """
    if policy not in TIERING_POLICIES:
        raise ValueError(f"unknown tiering policy {policy!r}")
    tb = _build_counting_testbed()
    # The fast tier exists because the server's RNIC serves it faster:
    # install the per-tier service profile on the member's NIC.
    tb.memory_server.rnic.config.tier_profiles = {TIER_FAST: FAST_PROFILE}

    total_blocks = (counters + units_per_block - 1) // units_per_block
    fast_blocks = max(1, int(round(fast_fraction * total_blocks)))
    block_bytes = units_per_block * ATOMIC_OPERAND_BYTES
    pool = TieredMemoryPool(
        tb.controller,
        # "dram" is the static policy with no pins: nothing ever promotes.
        policy="static" if policy == "dram" else policy,
        policy_seed=seed,
        fast_capacity_bytes=fast_blocks * block_bytes,
        tick_ns=tick_ns,
        seed=seed,
    )
    member = pool.add_server(tb.memory_server, tb.server_port)
    geometry = pool.tier_object(
        "counters",
        ATOMIC_OPERAND_BYTES,
        counters,
        units_per_block=units_per_block,
        member=member,
        fast_blocks=fast_blocks,
    )
    if policy == "static":
        # The operator knows the Zipf head a priori: pin it fast up front.
        for block in range(fast_blocks):
            geometry.pin(block, TIER_FAST)
    store = RemoteStateStore(
        tb.switch,
        config=StateStoreConfig(counters=counters, reliable=True),
        tiering=geometry,
    )
    tb.switch.program.use_state_store(store)

    timed = zipf_burst_schedule(
        flows,
        counters,
        updates,
        alpha=alpha,
        seed=seed,
        gap_ns=gap_ns,
        burst_ops=burst_ops,
        quiet_ns=quiet_ns,
    )
    expected = _drive(tb, store, timed)

    # Snapshot the latency histogram at the warmup boundary so the mean
    # reflects steady state, not the learning window.
    latency = store.metrics.histogram("op_latency_ns")
    mark: Dict[str, float] = {}
    boundary_ns = timed[int(warmup_fraction * len(timed))][0]
    tb.sim.schedule(
        boundary_ns,
        lambda: mark.update(count=latency.count, total=latency.total),
    )

    tb.sim.run()
    store.flush_all()
    tb.sim.run()

    lost = sum(
        abs(store.read_counter_via_control_plane(index) - value)
        for index, value in expected.items()
    )
    snap = tb.sim.obs.registry.snapshot()
    scope = pool.metrics.name
    fast_hits = snap.get(f"{scope}.tier[fast].hits", 0)
    dram_hits = snap.get(f"{scope}.tier[dram].hits", 0)
    served = fast_hits + dram_hits
    steady_count = latency.count - mark.get("count", 0)
    steady_total = latency.total - mark.get("total", 0)
    peak = snap.get(f"{scope}.tier[fast].occupancy_peak", 0)
    return {
        "policy": policy,
        "flows": flows,
        "counters": counters,
        "fast_blocks": fast_blocks,
        "total_blocks": total_blocks,
        "fast_capacity_bytes": pool.fast_capacity_bytes,
        "fast_occupancy_peak": peak,
        # Did fast occupancy ever exceed the configured budget?
        "occupancy_bounded": peak <= pool.fast_capacity_bytes,
        # Post-warmup mean issue→ACK FAA latency; whole-run p99 (log2-bucket
        # estimate).
        "mean_latency_ns": round(steady_total / steady_count if steady_count else 0.0, 1),
        "p99_latency_ns": round(latency.percentile(0.99), 1),
        "fast_hit_fraction": round(fast_hits / served if served else 0.0, 4),
        "promotions": snap.get(f"{scope}.tier[fast].promotions", 0),
        "demotions": snap.get(f"{scope}.tier[dram].demotions", 0),
        "lost_updates": lost,
    }


def run_tiering_sweep(
    policies: Sequence[str] = TIERING_POLICIES, **dims
) -> Dict[str, dict]:
    """All policies over the identical seeded workload (fresh testbeds);
    the frequency row also carries its speedup over all-DRAM."""
    record = {f"tiering_{policy}": run_tiering_point(policy, **dims) for policy in policies}
    dram, frequency = record["tiering_dram"], record["tiering_frequency"]
    frequency["speedup_vs_dram"] = round(
        dram["mean_latency_ns"] / frequency["mean_latency_ns"], 3
    )
    return record


def run_tiering_chaos_point(
    flows: int = 1_000_000,
    counters: int = 1 << 10,
    updates: int = 6_000,
    alpha: float = DEFAULT_ALPHA,
    seed: int = 42,
    units_per_block: int = 64,
    fast_blocks: int = 2,
    tick_ns: float = 10_000.0,
) -> dict:
    """Blackout mid-promotion on a K=2 replica set: zero lost updates.

    Both members host a tiered replica of the counter array; an RNIC
    blackout lands on member 0 while the frequency policy is actively
    promoting the Zipf head.  Reliable retransmission rides out a short
    outage; if the monitor declares the member dead instead, the pool
    abandons its fast blocks (DRAM stays authoritative) and the K=2
    replica max rule still returns every update.
    """
    tb = _build_counting_testbed(n_memory_servers=2)
    for server in tb.memory_servers:
        server.rnic.config.tier_profiles = {TIER_FAST: FAST_PROFILE}
    block_bytes = units_per_block * ATOMIC_OPERAND_BYTES
    pool = TieredMemoryPool(
        tb.controller,
        policy="frequency",
        policy_seed=seed,
        # Budget for one fast window per replica.
        fast_capacity_bytes=2 * fast_blocks * block_bytes,
        tick_ns=tick_ns,
        seed=seed,
        fail_after=3,
    )
    for server, port in zip(tb.memory_servers, tb.server_ports):
        pool.add_server(server, port)

    config = StateStoreConfig(
        counters=counters, reliable=True, retry_timeout_ns=usec(30)
    )

    def tiered_store(member):
        geometry = pool.tier_object(
            f"counters:{member.name}",
            ATOMIC_OPERAND_BYTES,
            counters,
            units_per_block=units_per_block,
            member=member,
            fast_blocks=fast_blocks,
        )
        return RemoteStateStore(tb.switch, config=config, tiering=geometry)

    rep = ReplicatedStateStore(
        tb.switch,
        pool,
        config=config,
        replication=2,
        store_factory=tiered_store,
    )
    tb.switch.program.use_state_store(rep)

    timed = zipf_burst_schedule(
        flows, counters, updates, alpha=alpha, seed=seed
    )
    expected = _drive(tb, rep, timed)

    # Black out member 0's RNIC from a quarter of the way in, for a
    # third of the remaining schedule: promotions are underway (the
    # first ticks have fired) and updates keep arriving throughout.
    blackout_at = timed[len(timed) // 4][0]
    blackout_ns = (timed[-1][0] - blackout_at) / 3.0
    plan = FaultPlan(seed=seed)
    plan.at(
        blackout_at,
        plan.on_rnic(tb.memory_servers[0].rnic, name="fastbox"),
        RnicBlackout(),
        duration_ns=blackout_ns,
    )
    plan.install(tb.sim)

    tb.sim.run()
    rep.flush_all()
    tb.sim.run()
    if len(rep.stores) < 2:
        rep.reconcile()
    lost = sum(
        abs(rep.read_counter(index) - value)
        for index, value in expected.items()
    )
    snap = tb.sim.obs.registry.snapshot()
    scope = pool.metrics.name
    unreplicated = rep.cluster_stats.updates_unreplicated
    return {
        "flows": flows,
        "updates": updates,
        "blackout_ns": blackout_ns,
        "members_alive": len(rep.stores),
        "promotions": snap.get(f"{scope}.tier[fast].promotions", 0),
        "abandoned_blocks": snap.get(f"{scope}.blocks_abandoned", 0),
        "lost_updates": lost,
        "updates_unreplicated": unreplicated,
        "zero_lost": lost == 0 and unreplicated == 0,
    }


def _checks(record) -> dict:
    sweep = [r for r in record.values() if "policy" in r]
    chaos = record["tiering_chaos_blackout"]
    return {
        "zero lost updates under every policy": all(
            r["lost_updates"] == 0 for r in sweep
        ),
        "fast occupancy never exceeds its budget": all(
            r["fast_occupancy_peak"] <= r["fast_capacity_bytes"] for r in sweep
        ),
        "all-DRAM never hits the fast tier": (
            record["tiering_dram"]["fast_hit_fraction"] == 0.0
        ),
        "frequency >= 1.5x faster than all-DRAM": (
            record["tiering_frequency"]["speedup_vs_dram"] >= 1.5
        ),
        "a blackout mid-promotion loses nothing": (
            chaos["lost_updates"] == 0 and chaos["updates_unreplicated"] == 0
        ),
        "promotions were underway at the blackout": chaos["promotions"] > 0,
    }


EXPERIMENT = Experiment(
    name="tiering",
    run=lambda sweep, chaos: {
        **run_tiering_sweep(**sweep),
        "tiering_chaos_blackout": run_tiering_chaos_point(**chaos),
    },
    checks=_checks,
    quick={
        "sweep": dict(flows=100_000, counters=1 << 11, updates=4_000, seed=42),
        "chaos": dict(flows=100_000, counters=1 << 10, updates=3_000, seed=42),
    },
    full={
        "sweep": dict(flows=1_000_000, counters=1 << 12, updates=20_000, seed=42),
        "chaos": dict(flows=1_000_000, counters=1 << 10, updates=6_000, seed=42),
    },
)
