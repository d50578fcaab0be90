"""Chaos benchmark: the reliability acceptance bar, held by a record.

Regenerates the fault-injection subsystem's headline claim (DESIGN.md
§10): at 1 % i.i.d. loss on the memory-server link — both directions —
the reliable-mode state store completes with **zero lost counter
updates** and goodput within 10 % of the lossless run, deterministically
reproducible from the FaultPlan seed.

Run directly (``python benchmarks/bench_chaos.py``) this module writes
the machine-readable ``BENCH_chaos.json`` results record the repo
commits (simulated numbers only); under pytest-benchmark it asserts the
same bounds.
"""

import argparse
import json
import sys

from repro.experiments.chaos import (
    CHAOS_SEED,
    LOSS_RATES,
    assert_recovery,
    format_chaos,
    format_chaos_recovery,
    run_chaos_recovery,
    run_chaos_sweep,
)


def _assert_acceptance(rows) -> None:
    by_rate = {row.loss_rate: row for row in rows}
    lossless = by_rate[0.0]
    lossy = by_rate[0.01]
    # Zero lost updates at every swept loss rate, counters exact.
    assert all(row.lost_updates == 0 for row in rows)
    assert all(row.counters_wrong == 0 for row in rows)
    # Loss was actually injected (the sweep is not vacuous).
    assert lossy.link_drops > 0
    # Goodput at 1% loss within 10% of the lossless run.
    assert (
        lossy.goodput_updates_per_ms
        >= 0.9 * lossless.goodput_updates_per_ms
    )


def test_chaos_zero_loss_and_goodput(benchmark, paper_report):
    rows = benchmark.pedantic(
        run_chaos_sweep,
        kwargs={"packets": 2000},
        rounds=1,
        iterations=1,
    )
    paper_report(format_chaos(rows))
    benchmark.extra_info["lost_updates"] = {
        f"{row.loss_rate:g}": row.lost_updates for row in rows
    }
    _assert_acceptance(rows)


def test_chaos_recovery_self_heals(benchmark, paper_report):
    report = benchmark.pedantic(
        run_chaos_recovery,
        kwargs={"packets": 1500},
        rounds=1,
        iterations=1,
    )
    paper_report(format_chaos_recovery(report))
    benchmark.extra_info["lost_updates"] = report.lost_updates
    benchmark.extra_info["lost_buffered"] = report.lost_buffered
    benchmark.extra_info["goodput_degraded_per_ms"] = (
        report.degraded_goodput_per_ms
    )
    benchmark.extra_info["goodput_healthy_per_ms"] = (
        report.healthy_goodput_per_ms
    )
    assert_recovery(report)


def test_chaos_sweep_is_deterministic(benchmark, paper_report):
    rows = benchmark.pedantic(
        run_chaos_sweep,
        kwargs={"packets": 1000, "loss_rates": (0.0, 0.01)},
        rounds=1,
        iterations=1,
    )
    paper_report(format_chaos(rows))
    replay = run_chaos_sweep(packets=1000, loss_rates=(0.0, 0.01))
    assert [r.__dict__ for r in rows] == [r.__dict__ for r in replay]


# -- standalone results-record harness --------------------------------------


def sweep_results(rows):
    """One entry per swept loss rate, keyed ``loss[<rate>]``."""
    return {
        f"loss[{row.loss_rate:g}]": {
            "seed": row.seed,
            "loss_rate": row.loss_rate,
            "packets_sent": row.packets_sent,
            "duration_ms": row.duration_ms,
            "expected_total": row.expected_total,
            "recovered_total": row.recovered_total,
            "lost_updates": row.lost_updates,
            "counters_wrong": row.counters_wrong,
            "link_drops": row.link_drops,
            "retransmissions": row.retransmissions,
            "naks": row.naks,
            "timeouts": row.timeouts,
            "goodput_updates_per_ms": row.goodput_updates_per_ms,
        }
        for row in rows
    }


def recovery_results(report):
    """The self-healing scenario; the headline is the degraded-vs-healthy
    goodput pair (updates absorbed per ms while the breaker was open
    versus the healthy remainder of the run)."""
    return {
        "seed": report.seed,
        "packets_sent": report.packets_sent,
        "store_duration_ms": report.store_duration_ms,
        "buffer_duration_ms": report.buffer_duration_ms,
        "expected_total": report.expected_total,
        "recovered_total": report.recovered_total,
        "lost_updates": report.lost_updates,
        "counters_wrong": report.counters_wrong,
        "degraded_updates": report.degraded_updates,
        "degraded_ms": report.degraded_ms,
        "goodput_degraded_per_ms": report.degraded_goodput_per_ms,
        "goodput_healthy_per_ms": report.healthy_goodput_per_ms,
        "store_breaker_opens": report.store_breaker_opens,
        "store_probe_failures": report.store_probe_failures,
        "store_reconnects": report.store_reconnects,
        "buffered_packets": report.buffered_packets,
        "delivered_packets": report.delivered_packets,
        "lost_buffered": report.lost_buffered,
        "out_of_order": report.out_of_order,
        "buffer_reconnects": report.buffer_reconnects,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=(
            "Benchmark the fault-injection/recovery path; emit a JSON "
            "results record."
        )
    )
    parser.add_argument(
        "--output", default="BENCH_chaos.json", help="results record path"
    )
    parser.add_argument(
        "--label", default="bench_chaos", help="label stored in the record"
    )
    parser.add_argument(
        "--packets", type=int, default=3000, help="packets per sweep point"
    )
    parser.add_argument(
        "--seed", type=int, default=CHAOS_SEED, help="FaultPlan seed"
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
        help="record the RDMA wire timeline and write JSONL to PATH",
    )
    args = parser.parse_args(argv)

    from repro.obs import Observability
    from repro.obs.trace import WireTrace

    obs = Observability(trace=WireTrace() if args.trace else None)
    with obs.activate():
        rows = run_chaos_sweep(
            loss_rates=LOSS_RATES,
            packets=1000 if args.quick else args.packets,
            seed=args.seed,
        )
    _assert_acceptance(rows)
    with obs.activate():
        recovery = run_chaos_recovery(
            packets=1000 if args.quick else args.packets, seed=args.seed
        )
    assert_recovery(recovery)
    results = sweep_results(rows)
    results["recovery"] = recovery_results(recovery)
    with open(args.output, "w") as handle:
        json.dump({"label": args.label, "results": results}, handle, indent=2)
        handle.write("\n")

    print(format_chaos(rows))
    lossy = next(r for r in rows if r.loss_rate == 0.01)
    print(
        f"\n1% loss: {lossy.lost_updates} lost updates, "
        f"{lossy.link_drops} drops injected, "
        f"{lossy.naks} NAKs, seed={lossy.seed}"
    )
    print()
    print(format_chaos_recovery(recovery))
    print(
        f"\nrecovery goodput: {recovery.degraded_goodput_per_ms:,.0f} upd/ms "
        f"degraded vs {recovery.healthy_goodput_per_ms:,.0f} upd/ms healthy, "
        f"{recovery.lost_updates} lost, seed={recovery.seed}"
    )
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
