#!/usr/bin/env python3
"""Example: L4 load balancing with live backend migration (DESIGN.md §15).

The production shape of the paper's pitch: a switch terminating a VIP
whose connection table lives in remote memory (cuckoo layout, SRAM
cache), with per-backend connection/byte counters on a K=2 replicated
store.  The run soaks the load balancer with Zipf traffic while three
failures land at once — a hard backend kill (absorbed by the §11
breaker → probe → escalation stack), a graceful drain of a second
backend (journaled migration + quiesce + handoff reconcile), and 10⁻³
corruption on the table link (masked by the §14 LinkGuard) — then
audits that not one counter update was lost and not one established
connection reached a backend its journal never sanctioned.

Run:  python examples/l4_migration.py  [--connections 100000]
"""

import argparse

from repro.analysis.reporting import format_record
from repro.experiments.l4lb import EXPERIMENT, run_l4lb_soak


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--connections", type=int, default=2_000)
    parser.add_argument("--packets", type=int, default=4_000)
    parser.add_argument("--backends", type=int, default=4)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    print(
        f"Soaking {args.connections:,} connections over {args.backends} "
        f"backends — killing one, draining another, corrupting the table "
        f"link (seed={args.seed})..."
    )
    result = run_l4lb_soak(
        connections=args.connections,
        packets=args.packets,
        new_connections=max(50, args.connections // 10),
        new_packets=max(100, args.packets // 8),
        backends=args.backends,
        seed=args.seed,
    )
    print()
    record = EXPERIMENT.record(result)
    print(format_record(record))
    print()
    failed = EXPERIMENT.failures(record)
    assert not failed, f"acceptance bar failed: {failed}"

    detect = result.kill_detect_latency_ns
    print(
        f"The kill was detected in {detect / 1e3:.0f} us and every one of "
        f"{result.expected_total:,} counter updates survived it; "
        f"{result.connections_migrated:,} connections migrated "
        f"({result.affinity_breaks} affinity breaks) and the drained "
        f"backend handed off {result.counters_repaired} counters before "
        f"its channels closed."
    )


if __name__ == "__main__":
    main()
