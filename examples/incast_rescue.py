#!/usr/bin/env python3
"""Example: rescuing an 8-to-1 incast with the remote packet buffer (§2.1).

Recreates Figure 1a's scenario — eight senders blast 50 MB at line rate
toward one receiver behind a ToR with a 12 MB buffer — and compares:

* a plain drop-tail ToR (massive loss),
* the remote packet buffer striped over 8 memory servers (lossless),
* PFC (lossless, but a victim flow sharing a sender link stalls).

Run:  python examples/incast_rescue.py  [--scale 0.25]
"""

import argparse

from repro.analysis.reporting import format_record
from repro.experiments.incast import EXPERIMENT, run_incast_comparison


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scale",
        type=float,
        default=0.25,
        help="scenario scale: 1.0 = the paper's exact 50 MB / 12 MB setup "
        "(slower); smaller scales keep every ratio (default 0.25)",
    )
    parser.add_argument(
        "--senders", type=int, default=8, help="number of incast senders"
    )
    args = parser.parse_args()

    print(
        f"Running {args.senders}-to-1 incast at scale {args.scale} "
        f"({int(50 * args.scale)} MB burst, {12 * args.scale:.1f} MB switch buffer)..."
    )
    results = run_incast_comparison(
        scale=args.scale, senders=args.senders, n_memory_servers=8
    )
    print()
    print(format_record(EXPERIMENT.record(results)))
    print()

    by_variant = {r.variant: r for r in results}
    droptail = by_variant["droptail"]
    remote = by_variant["remote_buffer"]
    pfc = by_variant["pfc"]
    print(
        f"drop-tail lost {droptail.loss_rate * 100:.1f}% of the burst; the "
        f"remote buffer absorbed {remote.remote_stored} packets in server "
        "DRAM and delivered everything in order."
    )
    if pfc.victim_completion_ms and remote.victim_completion_ms:
        slowdown = pfc.victim_completion_ms / remote.victim_completion_ms
        print(
            f"PFC was also lossless but head-of-line blocked the victim "
            f"flow {slowdown:.1f}x longer than the remote buffer."
        )


if __name__ == "__main__":
    main()
