"""Command-line interface: run any paper experiment from the shell.

Installed as ``repro-experiments`` (see pyproject.toml).  Examples::

    repro-experiments fig3a
    repro-experiments incast --scale 0.25
    repro-experiments ablations --which drops
    repro-experiments all --quick
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Dict, List

from .experiments import ablations
from .experiments.baremetal import format_baremetal, run_baremetal_comparison
from .experiments.chaos import (
    LOSS_RATES,
    assert_recovery,
    format_chaos,
    format_chaos_recovery,
    run_chaos_recovery,
    run_chaos_sweep,
)
from .experiments.fig3a import format_fig3a, run_fig3a
from .experiments.fig3b import format_fig3b, run_fig3b
from .experiments.incast import format_incast, run_incast_comparison
from .experiments.kv_cache import format_kv_cache, run_kv_cache_comparison
from .experiments.l4lb import (
    L4LB_CORRUPT_RATE,
    L4LB_SEED,
    assert_l4lb,
    format_l4lb,
    run_l4lb_soak,
)
from .experiments.linkguard import (
    assert_linkguard,
    format_linkguard,
    run_linkguard_sweep,
)
from .experiments.lookup_scale import (
    format_lookup_scaleout,
    format_policy_curve,
    run_lookup_scale,
)
from .experiments.overhead import format_overhead, run_overhead
from .experiments.packet_buffer_rate import (
    format_packet_buffer_rate,
    run_packet_buffer_rate,
)
from .experiments.persistent_congestion import (
    format_persistent_congestion,
    run_persistent_congestion_comparison,
)
from .experiments.scaleout import (
    format_failover,
    format_scaleout,
    run_failover_counters,
    run_scaleout,
)
from .experiments.sequencer import format_sequencer, run_sequencer_throughput
from .experiments.telemetry import format_telemetry, run_telemetry
from .obs import Observability
from .obs.trace import WireTrace


def _cmd_fig3a(args: argparse.Namespace) -> str:
    return format_fig3a(run_fig3a(probes=args.probes))


def _cmd_fig3b(args: argparse.Namespace) -> str:
    return format_fig3b(run_fig3b(packets=args.packets))


def _cmd_packet_buffer(args: argparse.Namespace) -> str:
    return format_packet_buffer_rate(
        run_packet_buffer_rate(packets=args.packets)
    )


def _cmd_incast(args: argparse.Namespace) -> str:
    return format_incast(
        run_incast_comparison(scale=args.scale, senders=args.senders)
    )


def _cmd_overhead(args: argparse.Namespace) -> str:
    return format_overhead(run_overhead())


def _cmd_baremetal(args: argparse.Namespace) -> str:
    return format_baremetal(
        run_baremetal_comparison(vips=args.vips, packets=args.packets)
    )


def _cmd_telemetry(args: argparse.Namespace) -> str:
    return format_telemetry(
        run_telemetry(flows=args.flows, packets=args.packets)
    )


def _cmd_persistent(args: argparse.Namespace) -> str:
    return format_persistent_congestion(
        run_persistent_congestion_comparison(duration_ms=args.duration_ms)
    )


def _cmd_sequencer(args: argparse.Namespace) -> str:
    return format_sequencer(run_sequencer_throughput(packets=args.packets))


def _scaleout_counts(servers: int) -> List[int]:
    """Pool sizes for the sweep: powers of two up to *servers*."""
    counts = [1]
    while counts[-1] * 2 <= servers:
        counts.append(counts[-1] * 2)
    if counts[-1] != servers:
        counts.append(servers)
    return counts


def _cmd_scaleout(args: argparse.Namespace) -> str:
    rows = run_scaleout(
        server_counts=_scaleout_counts(args.servers),
        lookups_per_host=args.lookups_per_host,
    )
    sections = [format_scaleout(rows)]
    if args.servers >= 2:
        sections.append(
            format_failover(
                run_failover_counters(
                    packets=args.failover_packets,
                    servers=max(3, min(args.servers, 4)),
                    kill_at_ns=600_000.0,
                )
            )
        )
    return "\n\n".join(sections)


def _cmd_lookup_scale(args: argparse.Namespace) -> str:
    study = run_lookup_scale(
        server_counts=_scaleout_counts(args.servers),
        population=args.flows,
        count=args.packets,
        alpha=args.alpha,
        seed=args.seed,
        entries=args.entries,
    )
    return "\n\n".join(
        [
            format_policy_curve(study.policy_curve),
            format_lookup_scaleout(study.scaleout),
        ]
    )


def _cmd_chaos(args: argparse.Namespace) -> str:
    if args.recover:
        report = run_chaos_recovery(packets=args.packets, seed=args.seed)
        assert_recovery(report)
        return format_chaos_recovery(report)
    rates = tuple(args.loss) if args.loss else LOSS_RATES
    return format_chaos(
        run_chaos_sweep(
            loss_rates=rates,
            packets=args.packets,
            seed=args.seed,
            reliable=not args.unreliable,
        )
    )


def _cmd_linkguard(args: argparse.Namespace) -> str:
    rows = run_linkguard_sweep(
        packets=args.packets,
        corrupt_rate=args.corrupt_rate,
        seed=args.seed,
    )
    if args.check:
        assert_linkguard(rows)
    return format_linkguard(rows)


def _cmd_l4lb(args: argparse.Namespace) -> str:
    result = run_l4lb_soak(
        connections=args.connections,
        packets=args.packets,
        new_connections=args.new_connections,
        new_packets=args.new_packets,
        backends=args.backends,
        corrupt_rate=args.corrupt_rate,
        seed=args.seed,
    )
    if args.check:
        assert_l4lb(result)
    return format_l4lb(result)


def _cmd_kv_cache(args: argparse.Namespace) -> str:
    return format_kv_cache(
        run_kv_cache_comparison(keys=args.keys, queries=args.queries)
    )


_ABLATIONS: Dict[str, Callable[[], str]] = {
    "batching": lambda: ablations.format_batching(ablations.run_batching_ablation()),
    "window": lambda: ablations.format_window(ablations.run_window_ablation()),
    "cache": lambda: ablations.format_cache(ablations.run_cache_ablation()),
    "mode": lambda: ablations.format_mode(ablations.run_mode_ablation()),
    "drops": lambda: ablations.format_drops(ablations.run_drop_ablation()),
    "priority": lambda: ablations.format_priority(
        ablations.run_priority_ablation()
    ),
}


def _cmd_ablations(args: argparse.Namespace) -> str:
    which = list(_ABLATIONS) if args.which == "all" else [args.which]
    return "\n\n".join(_ABLATIONS[name]() for name in which)


def _cmd_all(args: argparse.Namespace) -> str:
    quick = args.quick
    sections = [
        format_overhead(run_overhead()),
        format_fig3a(run_fig3a(probes=10 if quick else 30)),
        format_fig3b(run_fig3b(packets=2000 if quick else 4000)),
        format_packet_buffer_rate(
            run_packet_buffer_rate(
                offered_rates_gbps=(33, 34, 35, 36, 40) if quick else
                (32, 33, 34, 35, 36, 38, 40),
                packets=3000 if quick else 8000,
            )
        ),
        format_incast(
            run_incast_comparison(scale=0.1 if quick else 1.0)
        ),
        format_baremetal(
            run_baremetal_comparison(
                vips=2000 if quick else 20_000,
                packets=1500 if quick else 6000,
            )
        ),
        format_telemetry(
            run_telemetry(
                flows=3000 if quick else 20_000,
                packets=4000 if quick else 20_000,
                remote_counters=1 << 16 if quick else 1 << 20,
            )
        ),
        format_kv_cache(
            run_kv_cache_comparison(
                keys=2000 if quick else 10_000,
                queries=1500 if quick else 5000,
            )
        ),
        format_l4lb(
            run_l4lb_soak(
                connections=2000 if quick else 100_000,
                packets=4000 if quick else 20_000,
                new_connections=200 if quick else 2000,
                new_packets=600 if quick else 3000,
            )
        ),
    ]
    study = run_lookup_scale(
        server_counts=(1, 2) if quick else (1, 2, 4),
        cache_sizes=(256,) if quick else (256, 1024, 4096),
        population=100_000 if quick else 1_000_000,
        count=2000 if quick else 20_000,
        entries=1 << 12 if quick else 1 << 14,
    )
    sections.append(format_policy_curve(study.policy_curve))
    sections.append(format_lookup_scaleout(study.scaleout))
    return "\n\n".join(sections)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Regenerate the tables and figures of 'Generic External Memory "
            "for Switch Data Planes' (HotNets 2018)."
        ),
    )
    parser.add_argument(
        "--metrics",
        metavar="PATH",
        default=None,
        help=(
            "collect every simulation's metric registry into one session "
            "registry and write it to PATH as repro-metrics/v1 JSON"
        ),
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help=(
            "record the RDMA wire timeline (per-QP WRITE/READ/ATOMIC/ACK/"
            "NAK events with PSNs) and write JSONL to PATH"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fig3a", help="latency overhead of the lookup primitive")
    p.add_argument("--probes", type=int, default=30)
    p.set_defaults(fn=_cmd_fig3a)

    p = sub.add_parser("fig3b", help="bandwidth overhead of the state store")
    p.add_argument("--packets", type=int, default=4000)
    p.set_defaults(fn=_cmd_fig3b)

    p = sub.add_parser("packet-buffer", help="§5 store/forward rate sweep")
    p.add_argument("--packets", type=int, default=8000)
    p.set_defaults(fn=_cmd_packet_buffer)

    p = sub.add_parser("incast", help="§2.1 incast comparison")
    p.add_argument("--scale", type=float, default=0.25)
    p.add_argument("--senders", type=int, default=8)
    p.set_defaults(fn=_cmd_incast)

    p = sub.add_parser("overhead", help="§4 RoCE header overhead table")
    p.set_defaults(fn=_cmd_overhead)

    p = sub.add_parser("baremetal", help="§2.2 VIP→PIP translation")
    p.add_argument("--vips", type=int, default=10_000)
    p.add_argument("--packets", type=int, default=5000)
    p.set_defaults(fn=_cmd_baremetal)

    p = sub.add_parser("telemetry", help="§2.3 sketch scaling")
    p.add_argument("--flows", type=int, default=20_000)
    p.add_argument("--packets", type=int, default=15_000)
    p.set_defaults(fn=_cmd_telemetry)

    p = sub.add_parser("sequencer", help="§6 in-network sequencer throughput")
    p.add_argument("--packets", type=int, default=3000)
    p.set_defaults(fn=_cmd_sequencer)

    p = sub.add_parser(
        "l4lb",
        help=(
            "L4 load balancer soak: live backend migration under a hard "
            "kill, a graceful drain, and link corruption at once"
        ),
    )
    p.add_argument(
        "--connections", type=int, default=100_000,
        help="established connections pre-installed in the remote table",
    )
    p.add_argument("--packets", type=int, default=20_000)
    p.add_argument("--new-connections", type=int, default=2000)
    p.add_argument("--new-packets", type=int, default=3000)
    p.add_argument("--backends", type=int, default=4)
    p.add_argument(
        "--corrupt-rate",
        type=float,
        default=L4LB_CORRUPT_RATE,
        help="per-frame corruption probability on the table-server link",
    )
    p.add_argument(
        "--seed", type=int, default=L4LB_SEED,
        help="pins traffic, corruption, probe jitter, and placement",
    )
    p.add_argument(
        "--check",
        action="store_true",
        help=(
            "assert the acceptance bar: zero lost counter updates, zero "
            "affinity breaks, kill absorbed, drain graceful"
        ),
    )
    p.set_defaults(fn=_cmd_l4lb)

    p = sub.add_parser("kv-cache", help="§6 in-network KV cache study")
    p.add_argument("--keys", type=int, default=10_000)
    p.add_argument("--queries", type=int, default=5000)
    p.set_defaults(fn=_cmd_kv_cache)

    p = sub.add_parser(
        "persistent-congestion",
        help="§2.1 persistent overload: remote buffer vs buffer+ECN",
    )
    p.add_argument("--duration-ms", type=float, default=6.0)
    p.set_defaults(fn=_cmd_persistent)

    p = sub.add_parser(
        "scaleout",
        help="cluster: shard lookups over N servers; kill a replica mid-count",
    )
    p.add_argument(
        "--servers", type=int, default=4, help="pool size for the sweep"
    )
    p.add_argument("--lookups-per-host", type=int, default=1200)
    p.add_argument("--failover-packets", type=int, default=4000)
    p.set_defaults(fn=_cmd_scaleout)

    p = sub.add_parser(
        "lookup-scale",
        help=(
            "EMOMA-scale lookup: Zipf flow populations over the cuckoo "
            "layout; cache-policy curves + sustained miss throughput"
        ),
    )
    p.add_argument(
        "--flows", type=int, default=1_000_000, help="Zipf flow population"
    )
    p.add_argument(
        "--packets", type=int, default=20_000, help="packets per run"
    )
    p.add_argument("--alpha", type=float, default=1.0, help="Zipf skew")
    p.add_argument("--seed", type=int, default=3)
    p.add_argument(
        "--servers", type=int, default=4, help="largest pool size to sweep"
    )
    p.add_argument(
        "--entries", type=int, default=1 << 14, help="remote table slots"
    )
    p.set_defaults(fn=_cmd_lookup_scale)

    p = sub.add_parser(
        "chaos",
        help="fault injection: reliable counters over a lossy link",
    )
    p.add_argument("--packets", type=int, default=3000)
    p.add_argument(
        "--seed", type=int, default=42, help="FaultPlan seed (replayable)"
    )
    p.add_argument(
        "--loss",
        type=float,
        action="append",
        default=None,
        metavar="P",
        help="loss probability to sweep (repeatable; default 0/0.1%%/1%%/5%%)",
    )
    p.add_argument(
        "--unreliable",
        action="store_true",
        help="ablation: disable the reliable-mode recovery machinery",
    )
    p.add_argument(
        "--recover",
        action="store_true",
        help=(
            "self-healing scenario: blackout -> degrade -> reconnect -> "
            "reconcile, asserting zero lost state and in-order drain"
        ),
    )
    p.set_defaults(fn=_cmd_chaos)

    p = sub.add_parser(
        "linkguard",
        help=(
            "link protection: goodput of the lookup and packet-buffer "
            "primitives over a corrupting link, guard off/on/breaker-only"
        ),
    )
    p.add_argument("--packets", type=int, default=1500)
    p.add_argument(
        "--corrupt-rate",
        type=float,
        default=1e-3,
        help="per-frame corruption probability on the server link",
    )
    p.add_argument(
        "--seed", type=int, default=42, help="FaultPlan seed (replayable)"
    )
    p.add_argument(
        "--check",
        action="store_true",
        help=(
            "assert the acceptance bar: guard-on within 5%% of lossless, "
            "guard-off measurably worse, zero lost updates, breaker blind"
        ),
    )
    p.set_defaults(fn=_cmd_linkguard)

    p = sub.add_parser("ablations", help="§7 design-choice ablations")
    p.add_argument(
        "--which",
        choices=[*_ABLATIONS, "all"],
        default="all",
    )
    p.set_defaults(fn=_cmd_ablations)

    p = sub.add_parser("all", help="run every experiment")
    p.add_argument("--quick", action="store_true", help="reduced scales")
    p.set_defaults(fn=_cmd_all)

    return parser


def main(argv: List[str] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    # Fail before the (possibly long) run, not after it.
    for flag in ("metrics", "trace"):
        path = getattr(args, flag)
        if path:
            out_dir = os.path.dirname(os.path.abspath(path))
            if not os.path.isdir(out_dir):
                parser.error(f"--{flag}: directory does not exist: {out_dir}")

    # One session-wide observability handle: every Simulator the harness
    # builds inside the block emits into the same registry (and trace).
    obs = Observability(trace=WireTrace() if args.trace else None)
    with obs.activate():
        print(args.fn(args))

    if args.metrics:
        from .analysis.reporting import write_metrics_json

        write_metrics_json(args.metrics, obs.registry, label=args.command)
        print(
            f"[metrics] {len(obs.registry)} metrics -> {args.metrics}",
            file=sys.stderr,
        )
    if args.trace:
        obs.trace.write_jsonl(args.trace)
        print(
            f"[trace] {len(obs.trace)} events "
            f"({obs.trace.dropped} dropped) -> {args.trace}",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
