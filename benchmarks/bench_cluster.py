"""Cluster benchmark: sharded lookup scale-out and replicated failover.

Regenerates the two headline results of the cluster subsystem:

* sharding the lookup table over a 4-server pool sustains at least 3x
  the single-server miss throughput at equal per-server region size
  (every configuration driven at its own maximum lossless rate — the
  §5 methodology; the per-server ceiling is the RNIC's ~300 ns message
  pipeline, two messages per miss);
* killing one server mid-count under K=2 replication loses not a single
  state-store counter update.

Run directly (``python benchmarks/bench_cluster.py``) this module runs
the same experiments and writes a machine-readable ``BENCH_cluster.json``
results record (simulated numbers only).
"""

import argparse
import json
import sys

from repro.experiments.scaleout import (
    format_failover,
    format_scaleout,
    run_failover_counters,
    run_scaleout,
    run_scaleout_point,
)


def test_scaleout_throughput(benchmark, paper_report):
    rows = benchmark.pedantic(
        run_scaleout,
        kwargs={"server_counts": (1, 2, 4), "lookups_per_host": 400},
        rounds=1,
        iterations=1,
    )
    paper_report(format_scaleout(rows))

    by_servers = {row.servers: row for row in rows}
    speedup = by_servers[4].mlookups_per_sec / by_servers[1].mlookups_per_sec
    benchmark.extra_info["speedup_4_servers"] = round(speedup, 2)
    benchmark.extra_info["mlookups_per_sec"] = {
        row.servers: round(row.mlookups_per_sec, 2) for row in rows
    }

    # Acceptance: >= 3x aggregate miss throughput at 4 servers, equal
    # per-server region size, with every configuration lossless.
    assert all(row.lookups_lost == 0 for row in rows)
    assert all(row.lookups_completed == row.lookups_sent for row in rows)
    assert speedup >= 3.0


def test_failover_loses_no_counter_updates(benchmark, paper_report):
    result = benchmark.pedantic(
        run_failover_counters,
        kwargs={"packets": 1500, "kill_at_ns": 600_000.0},
        rounds=1,
        iterations=1,
    )
    paper_report(format_failover(result))

    benchmark.extra_info["killed_member"] = result.killed_member
    benchmark.extra_info["counters_repaired"] = result.counters_repaired

    # Acceptance: a mid-run server death under K=2 replication loses no
    # counter update — every per-flow count is recovered exactly.
    assert result.detected
    assert result.members_failed == 1
    assert result.lost_updates == 0
    assert result.all_counters_exact


# -- standalone results-record harness --------------------------------------


def collect_records(quick: bool = False):
    """Run the cluster experiments; ({name: simulated results}, rows, failover)."""
    lookups = 400 if quick else 1200
    packets = 1500 if quick else 4000
    kill_at = 600_000.0 if quick else 1_500_000.0

    records = {}
    rows = []
    for servers in (1, 2, 4):
        row = run_scaleout_point(servers, lookups_per_host=lookups)
        records[f"scaleout_{servers}_servers"] = dict(
            servers=servers,
            mlookups_per_sec=round(row.mlookups_per_sec, 3),
            lookups_lost=row.lookups_lost,
        )
        rows.append(row)
    speedup = rows[-1].mlookups_per_sec / rows[0].mlookups_per_sec
    records["scaleout_4_servers"]["speedup_vs_1_server"] = round(speedup, 3)

    result = run_failover_counters(packets=packets, kill_at_ns=kill_at)
    records["failover_replicated_counters"] = dict(
        killed_member=result.killed_member,
        lost_updates=result.lost_updates,
        all_counters_exact=result.all_counters_exact,
        counters_repaired=result.counters_repaired,
    )
    return records, rows, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=(
            "Benchmark the cluster subsystem; emit a JSON results record."
        )
    )
    parser.add_argument(
        "--output", default="BENCH_cluster.json", help="results record path"
    )
    parser.add_argument(
        "--label", default="bench_cluster", help="label stored in the record"
    )
    parser.add_argument(
        "--quick", action="store_true", help="reduced scales (CI smoke)"
    )
    parser.add_argument(
        "--metrics",
        metavar="PATH",
        default=None,
        help="write the run's metric registry to PATH (repro-metrics/v1 JSON)",
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
        records, rows, failover = collect_records(quick=args.quick)
    with open(args.output, "w") as handle:
        json.dump({"label": args.label, "results": records}, handle, indent=2)
        handle.write("\n")

    print(format_scaleout(rows))
    print()
    print(format_failover(failover))
    speedup = records["scaleout_4_servers"]["speedup_vs_1_server"]
    print(f"\n4-server speedup: {speedup:.2f}x "
          f"(lost updates on failover: {failover.lost_updates})")
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
