"""L4LB soak benchmark: zero-loss live migration, held by a record.

Regenerates the production scenario's headline claim (DESIGN.md §15,
docs/RESILIENCE.md): an L4 load balancer whose connection table lives
in remote memory survives a hard backend kill, a graceful drain, and
10⁻³ link corruption — all in one run — with **zero lost counter
updates** (every per-backend connection/byte counter recovered exactly
against the program's independent ledger) and **zero affinity breaks**
for established connections.

Run directly (``python benchmarks/bench_l4lb.py``) this module writes
the machine-readable ``BENCH_l4lb.json`` results record the repo commits;
under pytest-benchmark it asserts the same bar at reduced scale.
"""

import argparse
import json

from repro.experiments.l4lb import (
    L4LB_CORRUPT_RATE,
    L4LB_SEED,
    assert_l4lb,
    format_l4lb,
    run_l4lb_soak,
)

SMOKE_KWARGS = dict(
    connections=1_500,
    packets=3_000,
    new_connections=150,
    new_packets=400,
    backends=3,
    corrupt_rate=3e-3,
    cache_entries=512,
)


def test_l4lb_soak_zero_loss_zero_breaks(benchmark, paper_report):
    result = benchmark.pedantic(
        run_l4lb_soak, kwargs=SMOKE_KWARGS, rounds=1, iterations=1
    )
    paper_report(format_l4lb(result))
    benchmark.extra_info["lost_updates"] = result.lost_updates
    benchmark.extra_info["affinity_breaks"] = result.affinity_breaks
    benchmark.extra_info["connections_migrated"] = result.connections_migrated
    assert_l4lb(result)


def test_l4lb_soak_is_deterministic(benchmark, paper_report):
    result = benchmark.pedantic(
        run_l4lb_soak, kwargs=SMOKE_KWARGS, rounds=1, iterations=1
    )
    paper_report(format_l4lb(result))
    replay = run_l4lb_soak(**SMOKE_KWARGS)
    assert result.expected == replay.expected
    assert result.recovered == replay.recovered
    assert result.forwarded_by_backend == replay.forwarded_by_backend
    assert result.kill_detect_ns == replay.kill_detect_ns
    assert result.connections_migrated == replay.connections_migrated


# -- standalone results-record harness --------------------------------------

#: The soak's acceptance and accounting numbers, in record order.
RESULT_FIELDS = (
    "seed", "connections", "new_connections", "backends", "table_entries",
    "corrupt_rate", "packets_offered", "duration_ms", "vip_packets",
    "forwarded_packets", "delivered_total", "expected_total",
    "recovered_total", "lost_updates", "all_counters_exact",
    "affinity_breaks", "flows_delivered", "connections_migrated",
    "unsanctioned_migrations", "killed_backend", "kill_detect_latency_ns",
    "breaker_opens", "reconnect_attempts", "kill_escalations",
    "members_failed", "victim_wire_loss", "other_wire_loss",
    "drained_backend", "drains_completed", "drains_forced",
    "counters_repaired", "corrupted_frames", "masked_losses",
    "lookups_lost", "new_on_inactive",
)


def soak_results(result):
    """The soak as one ``l4lb_soak`` entry of :data:`RESULT_FIELDS`."""
    return {"l4lb_soak": {name: getattr(result, name) for name in RESULT_FIELDS}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=(
            "Benchmark the L4LB combined-failure soak; emit a JSON results "
            "record."
        )
    )
    parser.add_argument(
        "--output", default="BENCH_l4lb.json", help="results record path"
    )
    parser.add_argument(
        "--label", default="bench_l4lb", help="label stored in the record"
    )
    parser.add_argument(
        "--connections", type=int, default=100_000,
        help="established connections in the remote table",
    )
    parser.add_argument("--packets", type=int, default=20_000)
    parser.add_argument("--backends", type=int, default=4)
    parser.add_argument(
        "--corrupt-rate",
        type=float,
        default=L4LB_CORRUPT_RATE,
        help="per-frame corruption probability on the table-server link",
    )
    parser.add_argument(
        "--seed", type=int, default=L4LB_SEED,
        help="pins traffic, corruption, probe jitter, and placement",
    )
    parser.add_argument("--quick", action="store_true", help="reduced scales")
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
        help="record the wire timeline to PATH",
    )
    args = parser.parse_args(argv)

    from repro.obs import Observability
    from repro.obs.trace import WireTrace

    obs = Observability(trace=WireTrace() if args.trace else None)
    with obs.activate():
        result = run_l4lb_soak(
            connections=2_000 if args.quick else args.connections,
            packets=4_000 if args.quick else args.packets,
            new_connections=200 if args.quick else 2_000,
            new_packets=600 if args.quick else 3_000,
            backends=args.backends,
            corrupt_rate=args.corrupt_rate,
            seed=args.seed,
        )
    assert_l4lb(result)
    with open(args.output, "w") as handle:
        json.dump({"label": args.label, "results": soak_results(result)}, handle, indent=2)
        handle.write("\n")

    print(format_l4lb(result))
    detect = result.kill_detect_latency_ns
    print(
        f"\n{result.connections:,} connections over {result.backends} "
        f"backends: lost {result.lost_updates} of "
        f"{result.expected_total:,} counter updates, "
        f"{result.affinity_breaks} affinity breaks across "
        f"{result.connections_migrated:,} migrations; kill detected in "
        + (f"{detect / 1e3:.0f} us" if detect is not None else "-")
        + f"; seed={result.seed} -> {args.output}"
    )
    if args.metrics:
        from repro.analysis.reporting import write_metrics_json

        write_metrics_json(args.metrics, obs.registry, label=args.label)
    if args.trace:
        obs.trace.write_jsonl(args.trace)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
