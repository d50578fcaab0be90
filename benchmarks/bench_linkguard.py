"""Link-protection benchmark: the §14 acceptance bar, held by a record.

Regenerates the linkguard subsystem's headline claim (DESIGN.md §14,
docs/RESILIENCE.md): over a server link corrupting one frame in a
thousand — both directions — a full-ordered :class:`LinkGuard` keeps
the goodput of the packet-buffer and lookup primitives within 5 % of
the lossless baseline with **zero lost updates**, while transport-only
recovery (guard off, or breaker-only — the breaker never opens on
scattered corruption) is measurably worse.

Run directly (``python benchmarks/bench_linkguard.py``) this module
writes the machine-readable ``BENCH_linkguard.json`` results record the
repo commits; under pytest-benchmark it asserts the same bounds.
"""

import argparse
import json
import sys

from repro.experiments.linkguard import (
    CORRUPT_RATE,
    LINKGUARD_SEED,
    assert_linkguard,
    format_linkguard,
    run_linkguard_sweep,
)


def test_linkguard_goodput_and_zero_loss(benchmark, paper_report):
    rows = benchmark.pedantic(
        run_linkguard_sweep,
        kwargs={"packets": 1000},
        rounds=1,
        iterations=1,
    )
    paper_report(format_linkguard(rows))
    benchmark.extra_info["lost"] = {
        f"{row.workload}[{row.variant}]": row.lost for row in rows
    }
    assert_linkguard(rows)


def test_linkguard_sweep_is_deterministic(benchmark, paper_report):
    kwargs = {"packets": 600, "workloads": ("lookup",)}
    rows = benchmark.pedantic(
        run_linkguard_sweep, kwargs=kwargs, rounds=1, iterations=1
    )
    paper_report(format_linkguard(rows))
    replay = run_linkguard_sweep(**kwargs)
    assert [r.__dict__ for r in rows] == [r.__dict__ for r in replay]


# -- standalone results-record harness --------------------------------------


def sweep_results(rows):
    """One entry per ``workload[variant]``, goodput also as a fraction of
    the workload's lossless run."""
    lossless = {r.workload: r.goodput_per_ms for r in rows if r.variant == "lossless"}
    results = {}
    for row in rows:
        base = lossless.get(row.workload, 0)
        results[f"{row.workload}[{row.variant}]"] = {
            "seed": row.seed,
            "variant": row.variant,
            "workload": row.workload,
            "corrupt_rate": row.corrupt_rate,
            "packets_sent": row.packets_sent,
            "duration_ms": row.duration_ms,
            "delivered": row.delivered,
            "lost": row.lost,
            "out_of_order": row.out_of_order,
            "corrupted_frames": row.corrupted_frames,
            "transport_naks": row.transport_naks,
            "transport_timeouts": row.transport_timeouts,
            "masked_losses": row.masked_losses,
            "guard_resent": row.guard_resent,
            "shim_bytes": row.shim_bytes,
            "breaker_opens": row.breaker_opens,
            "goodput_per_ms": row.goodput_per_ms,
            "goodput_vs_lossless": row.goodput_per_ms / base if base > 0 else None,
        }
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=(
            "Benchmark the link-protection sweep; emit a JSON results record."
        )
    )
    parser.add_argument(
        "--output", default="BENCH_linkguard.json", help="results record path"
    )
    parser.add_argument(
        "--label", default="bench_linkguard", help="label stored in the record"
    )
    parser.add_argument(
        "--packets", type=int, default=1500, help="packets per sweep point"
    )
    parser.add_argument(
        "--corrupt-rate",
        type=float,
        default=CORRUPT_RATE,
        help="per-frame corruption probability on the server link",
    )
    parser.add_argument(
        "--seed", type=int, default=LINKGUARD_SEED, help="FaultPlan seed"
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
        help="record the wire timeline (GUARD events included) to PATH",
    )
    args = parser.parse_args(argv)

    from repro.obs import Observability
    from repro.obs.trace import WireTrace

    obs = Observability(trace=WireTrace() if args.trace else None)
    with obs.activate():
        rows = run_linkguard_sweep(
            packets=800 if args.quick else args.packets,
            corrupt_rate=args.corrupt_rate,
            seed=args.seed,
        )
    assert_linkguard(rows)
    with open(args.output, "w") as handle:
        json.dump({"label": args.label, "results": sweep_results(rows)}, handle, indent=2)
        handle.write("\n")

    print(format_linkguard(rows))
    by = {(r.workload, r.variant): r for r in rows}
    on = by[("pktbuf", "guard-on")]
    off = by[("pktbuf", "guard-off")]
    base = by[("pktbuf", "lossless")]
    print(
        f"\npktbuf drain: guard-on {on.goodput_per_ms:,.0f} pkt/ms "
        f"({on.goodput_per_ms / base.goodput_per_ms:.1%} of lossless) vs "
        f"guard-off {off.goodput_per_ms:,.0f} pkt/ms "
        f"({off.goodput_per_ms / base.goodput_per_ms:.1%}); "
        f"lookup guard-off lost {by[('lookup', 'guard-off')].lost}, "
        f"guard-on lost {by[('lookup', 'guard-on')].lost}; seed={args.seed}"
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
