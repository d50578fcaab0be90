"""Lookup at EMOMA scale: cuckoo one-READ misses over million-flow Zipf.

Regenerates the headline numbers of the cuckoo/cache/Zipf subsystem:

* every remote miss under ``layout="cuckoo"`` completes in **exactly one
  RDMA READ** — zero bounce-retry READs, asserted from the RoCE
  counters of every run;
* the SRAM cache-policy curves (FIFO/LRU/LFU/pin) over a heavy-tailed
  1 M-flow population, hit rate and p99 bounce latency per cache size;
* sustained remote-miss throughput scales with the memory pool
  (1 → 2 → 4 servers, each driven at its own lossless ceiling).

Run directly (``python benchmarks/bench_lookup_scale.py``) this module
runs the same study and writes a machine-readable ``BENCH_lookup.json``
results record (simulated numbers only); ``--quick`` shrinks the
population to 100 k flows for the CI lookup-smoke job.
"""

import argparse
import json
import sys

from repro.experiments.lookup_scale import (
    CACHE_SIZES,
    POLICIES,
    format_lookup_scaleout,
    format_policy_curve,
    run_lookup_scaleout_point,
    run_policy_point,
)

#: Full-scale geometry: a 1 M-flow Zipf population (the acceptance bar)
#: offered over 20 k packets into a 16 k-slot cuckoo table.
FULL = dict(population=1_000_000, count=20_000, entries=1 << 14, seed=3)
#: CI smoke geometry: 100 k flows at the same fixed seed.
QUICK = dict(population=100_000, count=3_000, entries=1 << 12, seed=3)


def test_policy_curve_and_one_read(benchmark, paper_report):
    points = benchmark.pedantic(
        lambda: [
            run_policy_point(policy, 256, **QUICK) for policy in POLICIES
        ],
        rounds=1,
        iterations=1,
    )
    paper_report(format_policy_curve(points))

    by_policy = {p.policy: p for p in points}
    benchmark.extra_info["hit_rates"] = {
        p.policy: round(p.hit_rate, 3) for p in points
    }

    # Acceptance: the one-READ invariant holds for every policy run, and
    # recency/frequency-aware policies beat FIFO on a Zipf population.
    for p in points:
        assert p.one_read.holds, (p.policy, p.one_read)
    assert by_policy["lru"].hit_rate > by_policy["fifo"].hit_rate
    assert by_policy["lfu"].hit_rate > by_policy["fifo"].hit_rate


def test_scaleout_sustained_misses(benchmark, paper_report):
    rows = benchmark.pedantic(
        lambda: [
            run_lookup_scaleout_point(n, **QUICK) for n in (1, 2, 4)
        ],
        rounds=1,
        iterations=1,
    )
    paper_report(format_lookup_scaleout(rows))

    by_servers = {r.servers: r for r in rows}
    speedup = by_servers[4].mmisses_per_sec / by_servers[1].mmisses_per_sec
    benchmark.extra_info["speedup_4_servers"] = round(speedup, 2)

    # Acceptance: lossless at every pool size, zero bounce-retry READs,
    # and >= 3x sustained miss throughput at 4 servers.
    assert all(r.lookups_lost == 0 for r in rows)
    assert all(r.one_read.holds for r in rows)
    assert speedup >= 3.0


# -- standalone results-record harness --------------------------------------


def collect_records(quick: bool = False):
    """Run the study; returns ({name: simulated results}, curve, scaleout)."""
    scale = QUICK if quick else FULL
    cache_sizes = (128, 256) if quick else CACHE_SIZES

    records = {}
    curve = []
    for policy in POLICIES:
        for cache in cache_sizes:
            point = run_policy_point(policy, cache, **scale)
            records[f"policy_{policy}_{cache}"] = dict(
                policy=policy,
                cache_entries=cache,
                population=point.population,
                distinct_flows=point.distinct_flows,
                hit_rate=round(point.hit_rate, 4),
                p99_bounce_ns=round(point.p99_bounce_ns, 1),
                pins=point.pins,
                remote_lookups=point.one_read.remote_lookups,
                reads_issued=point.one_read.reads_issued,
                bounce_retries=point.one_read.bounce_retries,
                one_read=point.one_read.holds,
            )
            curve.append(point)

    scaleout = []
    for servers in (1, 2, 4):
        row = run_lookup_scaleout_point(servers, **scale)
        records[f"scaleout_{servers}_servers"] = dict(
            servers=servers,
            population=row.population,
            offered_mlps=row.offered_mlps,
            mmisses_per_sec=round(row.mmisses_per_sec, 3),
            lookups_lost=row.lookups_lost,
            p99_bounce_ns=round(row.p99_bounce_ns, 1),
            bounce_retries=row.one_read.bounce_retries,
            one_read=row.one_read.holds,
        )
        scaleout.append(row)
    speedup = scaleout[-1].mmisses_per_sec / scaleout[0].mmisses_per_sec
    records["scaleout_4_servers"]["speedup_vs_1_server"] = round(speedup, 3)
    return records, curve, scaleout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=(
            "Benchmark the EMOMA-scale lookup subsystem; emit a JSON "
            "results record."
        )
    )
    parser.add_argument(
        "--output", default="BENCH_lookup.json", help="results record path"
    )
    parser.add_argument(
        "--label", default="bench_lookup", help="label stored in the record"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="100k-flow population (CI smoke)",
    )
    parser.add_argument(
        "--metrics",
        metavar="PATH",
        default=None,
        help="write the run's metric registry to PATH (repro-metrics/v1)",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="record the RDMA wire timeline and write JSONL to PATH",
    )
    args = parser.parse_args(argv)

    from repro.obs import Observability
    from repro.obs.trace import WireTrace

    obs = Observability(trace=WireTrace() if args.trace else None)
    with obs.activate():
        records, curve, scaleout = collect_records(quick=args.quick)
    with open(args.output, "w") as handle:
        json.dump({"label": args.label, "results": records}, handle, indent=2)
        handle.write("\n")

    print(format_policy_curve(curve))
    print()
    print(format_lookup_scaleout(scaleout))
    retries = sum(r["bounce_retries"] for r in records.values())
    speedup = records["scaleout_4_servers"]["speedup_vs_1_server"]
    print(f"\nbounce-retry READs across all runs: {retries}")
    print(f"4-server sustained-miss speedup: {speedup:.2f}x")
    if retries != 0:
        print("FAIL: the cuckoo one-READ invariant is violated")
        return 1
    print(f"wrote {args.output}")
    if args.metrics:
        from repro.analysis.reporting import write_metrics_json

        write_metrics_json(args.metrics, obs.registry, label=args.label)
        print(f"wrote {args.metrics} ({len(obs.registry)} metrics)")
    if args.trace:
        obs.trace.write_jsonl(args.trace)
        print(f"wrote {args.trace} ({len(obs.trace)} events)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
