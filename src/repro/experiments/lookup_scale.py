"""EMOMA-scale lookup study: million-flow Zipf traffic over the cuckoo table.

Three questions, answered end to end on the simulated testbed:

* **Does the cuckoo layout really resolve every miss in one READ?**
  With ``layout="cuckoo"`` the data plane picks the single bucket pair
  to fetch from the choice filter (repro.cuckoo); a correct run issues
  exactly one RDMA READ per remote lookup — zero bounce-retries — which
  every row's ``one_read`` field records straight from the RoCE counters.

* **How do the SRAM cache policies compare under a heavy-tailed
  population?**  :func:`run_policy_point` drives an open-loop Zipf
  trace (1 M+ flows) through each policy and cache size, reporting the
  cache hit rate and the 99th-percentile bounce latency — the
  policy-comparison curves behind ``BENCH_lookup.json``.

* **Does miss throughput scale with the memory pool?**
  :func:`run_lookup_scaleout` shards the cuckoo table over N servers
  (cache disabled, so every packet is a genuine miss) and offers an
  open-loop load at each pool's lossless ceiling, reporting sustained
  misses/s — the §5 methodology applied to the EMOMA layout.

Every run is seeded: same seed ⇒ same flow population, same arrival
jitter, same cuckoo layout, same numbers.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..apps.programs import RemoteLookupProgram
from ..cluster.pool import MemoryPool
from ..cluster.sharded_lookup import ShardedLookupTable
from ..core.lookup_table import (
    ACTION_SET_DSCP,
    LookupTableConfig,
    RemoteAction,
    RemoteLookupTable,
)
from ..switches.hashing import FiveTuple
from ..switches.traffic_manager import TrafficManagerConfig
from ..workloads.zipf import OpenLoopZipfTraffic
from ..testbed import build_testbed
from . import Experiment
from .scaleout import OFFERED_PER_SERVER_MLPS, RING_SEED, RING_VNODES, mega_per_sec

#: Policies compared by the study, in presentation order.
POLICIES = ("fifo", "lru", "lfu", "pin")

#: Default cache sizes for the hit-rate curve (flows).
CACHE_SIZES = (256, 1024, 4096)

#: Zipf skew for the headline runs (≈ real DC flow popularity).
DEFAULT_ALPHA = 1.0


def _install_zipf_flows(table, tb, traffic) -> List[FiveTuple]:
    """Install a DSCP action for every flow the schedule will offer."""
    flows = []
    src_ip = tb.hosts[0].eth.ip.value
    dst_ip = tb.hosts[1].eth.ip.value
    for rank in traffic.distinct_ranks():
        key = traffic.flow_key(rank)
        flow = FiveTuple(
            src_ip=src_ip,
            dst_ip=dst_ip,
            protocol=17,
            src_port=key.src_port,
            dst_port=key.dst_port,
        )
        table.install(flow, RemoteAction(ACTION_SET_DSCP, rank % 64))
        flows.append(flow)
    return flows


def _bounce_retries(tables, remote_lookups: int) -> int:
    """READs beyond the first per miss (must be zero for cuckoo).

    Read through each generator's own (uniquified) metric scope — a
    shared registry across runs renames colliding ``roce[...]`` scopes,
    so looking the counter up by channel name would read a stale run.
    """
    return sum(table.rocegen.metrics["reads_issued"] for table in tables) - remote_lookups


def run_policy_point(
    policy: str,
    cache_entries: int,
    population: int = 1_000_000,
    count: int = 20_000,
    alpha: float = DEFAULT_ALPHA,
    seed: int = 3,
    entries: int = 1 << 14,
    rate_pps: float = 2e6,
) -> dict:
    """Hit rate + p99 bounce latency for one policy at one cache size."""
    tb = build_testbed(n_hosts=2)
    program = tb.bind(RemoteLookupProgram())

    config = LookupTableConfig(
        entries=entries,
        cache_entries=cache_entries,
        layout="cuckoo",
        hash_seed=seed,
        policy=policy,
        policy_seed=seed,
    )
    channel = tb.controller.open_channel(
        tb.memory_server, tb.server_port, config.region_bytes
    )
    table = RemoteLookupTable(tb.switch, channel, config=config)
    program.use_lookup_table(table)
    tb.controller.install_hash_seeds(table, seed)

    traffic = OpenLoopZipfTraffic(
        tb.sim,
        tb.hosts[0],
        tb.hosts[1],
        flows=population,
        alpha=alpha,
        rate_pps=rate_pps,
        count=count,
        seed=seed,
    )
    flows = _install_zipf_flows(table, tb, traffic)
    traffic.start()
    tb.sim.run()

    metrics = table.metrics
    if metrics["remote_lookups"] == 0:
        raise RuntimeError("lookup-scale: no remote lookups; setup broken")
    remote_lookups = metrics["remote_lookups"]
    retries = _bounce_retries([table], remote_lookups)
    return {
        "policy": policy,
        "cache_entries": cache_entries,
        "population": population,
        "distinct_flows": len(flows),
        "hit_rate": round(metrics["hit_rate"], 4),
        "p99_bounce_ns": round(metrics.histogram("remote_latency_ns").percentile(0.99), 1),
        "pins": metrics["cache.pins"] if table.cache is not None else 0,
        "remote_lookups": remote_lookups,
        "reads_issued": remote_lookups + retries,
        "bounce_retries": retries,
        "one_read": remote_lookups > 0 and retries == 0,
        "packets": traffic.packets_sent,
    }


def run_policy_curve(
    policies: Sequence[str] = POLICIES,
    cache_sizes: Sequence[int] = CACHE_SIZES,
    population: int = 1_000_000,
    count: int = 20_000,
    alpha: float = DEFAULT_ALPHA,
    seed: int = 3,
    entries: int = 1 << 14,
) -> Dict[str, dict]:
    """The full policy × cache-size grid (one fresh testbed per point)."""
    return {
        f"policy_{policy}_{cache}": run_policy_point(
            policy,
            cache,
            population=population,
            count=count,
            alpha=alpha,
            seed=seed,
            entries=entries,
        )
        for policy in policies
        for cache in cache_sizes
    }


def run_lookup_scaleout_point(
    servers: int,
    population: int = 1_000_000,
    count: int = 20_000,
    alpha: float = DEFAULT_ALPHA,
    seed: int = 3,
    entries: int = 1 << 14,
    offered_per_server_mlps: float = OFFERED_PER_SERVER_MLPS,
) -> dict:
    """Sustained miss throughput with the cuckoo table sharded N ways.

    Cache disabled: every packet is a remote miss, so completed misses
    over the run's duration is the sustained miss rate.  The offered
    rate scales with the pool (each configuration runs at its own
    lossless ceiling), matching :mod:`repro.experiments.scaleout`.
    """
    tb = build_testbed(
        n_hosts=2,
        n_memory_servers=servers,
        tm_config=TrafficManagerConfig(),
    )
    pool = MemoryPool(tb.controller, vnodes=RING_VNODES, seed=RING_SEED)
    for server, port in zip(tb.memory_servers, tb.server_ports):
        pool.add_server(server, port)

    program = tb.bind(RemoteLookupProgram())

    config = LookupTableConfig(
        entries=entries,
        cache_entries=0,
        layout="cuckoo",
        hash_seed=seed,
    )
    table = ShardedLookupTable(tb.switch, pool, config=config)
    program.use_lookup_table(table)
    tb.controller.install_hash_seeds(table, seed)

    traffic = OpenLoopZipfTraffic(
        tb.sim,
        tb.hosts[0],
        tb.hosts[1],
        flows=population,
        alpha=alpha,
        rate_pps=offered_per_server_mlps * 1e6 * servers,
        count=count,
        seed=seed,
    )
    flows = _install_zipf_flows(table, tb, traffic)
    traffic.start()
    tb.sim.run()

    remote_lookups = table.total("remote_lookups")
    if remote_lookups == 0:
        raise RuntimeError("lookup-scale: no remote lookups; setup broken")
    completed = (
        table.total("remote_hits")
        + table.total("fingerprint_mismatches")
        + table.total("remote_invalid")
    )
    # Aggregate p99 across shards: merge the per-shard histograms by
    # taking the worst shard's estimate (log2 buckets make a true merge
    # equivalent for the tail we care about).
    p99 = max(
        shard.metrics.histogram("remote_latency_ns").percentile(0.99)
        for shard in table.shards.values()
    )
    retries = _bounce_retries(table.shards.values(), remote_lookups)
    duration_ms = tb.sim.now / 1e6
    return {
        "servers": servers,
        "population": population,
        "offered_mlps": offered_per_server_mlps * servers,
        "mmisses_per_sec": round(mega_per_sec(completed, duration_ms), 3),
        "lookups_lost": table.lookups_lost,
        "p99_bounce_ns": round(p99, 1),
        "bounce_retries": retries,
        "one_read": remote_lookups > 0 and retries == 0,
        "misses_completed": completed,
        "duration_ms": duration_ms,
    }


def run_lookup_scale(
    server_counts: Sequence[int] = (1, 2, 4),
    policies: Sequence[str] = POLICIES,
    cache_sizes: Sequence[int] = CACHE_SIZES,
    population: int = 1_000_000,
    count: int = 20_000,
    alpha: float = DEFAULT_ALPHA,
    seed: int = 3,
    entries: int = 1 << 14,
) -> Dict[str, dict]:
    """The whole study: policy curves plus the miss-throughput sweep; the
    largest pool's row also carries its speedup over the first."""
    record = run_policy_curve(
        policies=policies,
        cache_sizes=cache_sizes,
        population=population,
        count=count,
        alpha=alpha,
        seed=seed,
        entries=entries,
    )
    rows = [
        run_lookup_scaleout_point(
            n,
            population=population,
            count=count,
            alpha=alpha,
            seed=seed,
            entries=entries,
        )
        for n in server_counts
    ]
    rates = [mega_per_sec(r["misses_completed"], r["duration_ms"]) for r in rows]
    rows[-1]["speedup_vs_1_server"] = round(rates[-1] / rates[0], 3)
    record.update((f"scaleout_{r['servers']}_servers", r) for r in rows)
    return record


def _checks(record) -> dict:
    hit = {
        (r["policy"], r["cache_entries"]): r["hit_rate"]
        for name, r in record.items()
        if name.startswith("policy_")
    }
    sweep = [r for name, r in record.items() if name.startswith("scaleout_")]
    return {
        "one READ per miss in every run": all(r["one_read"] for r in record.values()),
        "zero bounce-retry READs": all(
            r["bounce_retries"] == 0 for r in record.values()
        ),
        "LRU and LFU beat FIFO at every cache size": all(
            hit["lru", cache] > rate and hit["lfu", cache] > rate
            for (policy, cache), rate in hit.items()
            if policy == "fifo"
        ),
        "lossless at every pool size": all(r["lookups_lost"] == 0 for r in sweep),
        ">= 3x sustained misses at 4 servers": (
            record["scaleout_4_servers"]["speedup_vs_1_server"] >= 3.0
        ),
    }


EXPERIMENT = Experiment(
    name="lookup-scale", run=run_lookup_scale, checks=_checks,
    quick=dict(cache_sizes=(128, 256), population=100_000, count=3_000, entries=1 << 12),
    full=dict(population=1_000_000, count=20_000, entries=1 << 14),
)
