"""Tiered memory at scale: placement policies over million-flow Zipf FAA.

Regenerates the headline numbers of the tiered-memory subsystem
(DESIGN.md §13):

* the **placement-policy sweep** — all-DRAM baseline vs static pins vs
  online frequency vs occupancy watermarks, same seeded bursty Zipf
  workload, mean/p99 Fetch-and-Add latency per policy.  The acceptance
  bar: the frequency policy cuts mean FAA latency by **>= 1.5x** with a
  fast window of just 5 % of the working set's blocks;
* the **safety story** — every run proves exact per-counter totals
  (zero lost updates) and a fast-occupancy peak that never exceeded the
  configured budget, read from the ``tiering.*`` metrics;
* the **chaos variant** — an RNIC blackout lands mid-promotion on one
  member of a K=2 replicated pool; demote-not-drop plus the replica max
  rule still returns every update.

Run directly (``python benchmarks/bench_tiering.py``) this module runs
the same study and writes a machine-readable ``BENCH_tiering.json``
results record (simulated numbers only); ``--quick`` shrinks the
population to 100 k flows for the CI tiering-smoke job.
"""

import argparse
import json
import sys

from repro.experiments.tiering import (
    TIERING_POLICIES,
    format_tiering_chaos,
    format_tiering_sweep,
    run_tiering_chaos_point,
    run_tiering_point,
)

#: Full-scale geometry: a 1 M-flow Zipf population (the acceptance bar)
#: over a 4 k-counter working set; the fast window is 3 of 64 blocks.
FULL = dict(flows=1_000_000, counters=1 << 12, updates=20_000, seed=42)
#: CI smoke geometry: 100 k flows at the same fixed seed (fast = 2/32).
QUICK = dict(flows=100_000, counters=1 << 11, updates=4_000, seed=42)
#: Chaos-variant geometry (K=2 replication doubles every operation).
CHAOS_FULL = dict(flows=1_000_000, counters=1 << 10, updates=6_000, seed=42)
CHAOS_QUICK = dict(flows=100_000, counters=1 << 10, updates=3_000, seed=42)

#: The acceptance bar: frequency placement vs the all-DRAM baseline.
SPEEDUP_BAR = 1.5


def _check_sweep(points) -> float:
    """Shared acceptance gates; returns the frequency-vs-DRAM speedup."""
    by_policy = {p.policy: p for p in points}
    for p in points:
        assert p.lost_updates == 0, (p.policy, p.lost_updates)
        assert p.occupancy_bounded, (
            p.policy,
            p.fast_occupancy_peak,
            p.fast_capacity_bytes,
        )
    # The baseline must not touch the fast tier at all.
    assert by_policy["dram"].fast_hit_fraction == 0.0
    speedup = (
        by_policy["dram"].mean_latency_ns
        / by_policy["frequency"].mean_latency_ns
    )
    assert speedup >= SPEEDUP_BAR, f"frequency speedup {speedup:.2f}x"
    return speedup


def test_placement_policy_sweep(benchmark, paper_report):
    points = benchmark.pedantic(
        lambda: [run_tiering_point(policy, **QUICK) for policy in TIERING_POLICIES],
        rounds=1,
        iterations=1,
    )
    paper_report(format_tiering_sweep(points))

    speedup = _check_sweep(points)
    benchmark.extra_info["frequency_speedup"] = round(speedup, 2)
    benchmark.extra_info["mean_latency_ns"] = {
        p.policy: round(p.mean_latency_ns, 1) for p in points
    }


def test_chaos_blackout_zero_lost(benchmark, paper_report):
    point = benchmark.pedantic(
        lambda: run_tiering_chaos_point(**CHAOS_QUICK),
        rounds=1,
        iterations=1,
    )
    paper_report(format_tiering_chaos(point))
    benchmark.extra_info["members_alive"] = point.members_alive
    benchmark.extra_info["promotions"] = point.promotions

    # Acceptance: the blackout lost nothing, and promotions were
    # actually underway when it landed (otherwise the test is vacuous).
    assert point.zero_lost, point
    assert point.promotions > 0


# -- standalone results-record harness --------------------------------------


def collect_records(quick: bool = False):
    """Run the study; returns ({name: simulated results}, points, chaos)."""
    scale = QUICK if quick else FULL
    chaos_scale = CHAOS_QUICK if quick else CHAOS_FULL

    records = {}
    points = []
    for policy in TIERING_POLICIES:
        point = run_tiering_point(policy, **scale)
        records[f"tiering_{policy}"] = dict(
            policy=policy,
            flows=point.flows,
            counters=point.counters,
            fast_blocks=point.fast_blocks,
            total_blocks=point.total_blocks,
            fast_capacity_bytes=point.fast_capacity_bytes,
            fast_occupancy_peak=point.fast_occupancy_peak,
            occupancy_bounded=point.occupancy_bounded,
            mean_latency_ns=round(point.mean_latency_ns, 1),
            p99_latency_ns=round(point.p99_latency_ns, 1),
            fast_hit_fraction=round(point.fast_hit_fraction, 4),
            promotions=point.promotions,
            demotions=point.demotions,
            lost_updates=point.lost_updates,
        )
        points.append(point)
    by_policy = {p.policy: p for p in points}
    speedup = (
        by_policy["dram"].mean_latency_ns
        / by_policy["frequency"].mean_latency_ns
    )
    records["tiering_frequency"]["speedup_vs_dram"] = round(speedup, 3)

    chaos = run_tiering_chaos_point(**chaos_scale)
    records["tiering_chaos_blackout"] = dict(
        flows=chaos.flows,
        updates=chaos.updates,
        blackout_ns=chaos.blackout_ns,
        members_alive=chaos.members_alive,
        promotions=chaos.promotions,
        abandoned_blocks=chaos.abandoned_blocks,
        lost_updates=chaos.lost_updates,
        updates_unreplicated=chaos.updates_unreplicated,
        zero_lost=chaos.zero_lost,
    )
    return records, points, chaos


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=(
            "Benchmark the tiered-memory placement policies; emit a JSON "
            "results record."
        )
    )
    parser.add_argument(
        "--output", default="BENCH_tiering.json", help="results record path"
    )
    parser.add_argument(
        "--label", default="bench_tiering", help="label stored in the record"
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
        records, points, chaos = collect_records(quick=args.quick)
    with open(args.output, "w") as handle:
        json.dump({"label": args.label, "results": records}, handle, indent=2)
        handle.write("\n")

    print(format_tiering_sweep(points))
    print()
    print(format_tiering_chaos(chaos))
    speedup = records["tiering_frequency"]["speedup_vs_dram"]
    lost = sum(r["lost_updates"] for r in records.values())
    bounded = all(r.get("occupancy_bounded", True) for r in records.values())
    print(f"\nfrequency-vs-DRAM mean FAA speedup: {speedup:.2f}x")
    print(f"lost updates across all runs: {lost}")
    if speedup < SPEEDUP_BAR:
        print(f"FAIL: frequency speedup below the {SPEEDUP_BAR}x bar")
        return 1
    if lost != 0 or not chaos.zero_lost:
        print("FAIL: counter updates were lost")
        return 1
    if not bounded:
        print("FAIL: fast occupancy exceeded the configured budget")
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
