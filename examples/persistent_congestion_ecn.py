#!/usr/bin/env python3
"""Example: bursts go to remote memory, persistence goes to ECN (§2.1).

The paper is explicit that remote memory is for *bursts*: "in the case of
persistent congestion, end-to-end congestion control based on ECN should
have slowed traffic."  This example runs two line-rate senders at one
40 Gbps port forever and shows both halves of the argument:

* remote buffer alone — the ring fills and drops; DRAM only delays loss;
* remote buffer + the co-designed ECN signal (CE-mark diverted packets
  once ring occupancy crosses a shallow threshold) — DCTCP-style senders
  converge to fair share and nothing is ever dropped.

Run:  python examples/persistent_congestion_ecn.py  [--duration-ms 6]
"""

import argparse

from repro.analysis.reporting import format_record
from repro.experiments.persistent_congestion import (
    EXPERIMENT,
    run_persistent_congestion_comparison,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--duration-ms", type=float, default=6.0)
    args = parser.parse_args()

    print(
        f"2 senders x 40 Gbps into one 40 Gbps port for {args.duration_ms} ms "
        "(persistent 2:1 overload)..."
    )
    results = run_persistent_congestion_comparison(duration_ms=args.duration_ms)
    print()
    print(format_record(EXPERIMENT.record(results)))
    print()
    buffer_only, with_ecn = results
    print(
        f"Remote memory alone lost {buffer_only.loss_rate * 100:.1f}% once "
        f"the ring filled; with ring-occupancy CE marking the senders "
        f"converged to {with_ecn.aggregate_final_rate_gbps:.1f} Gbps "
        f"aggregate and loss stayed at "
        f"{with_ecn.loss_rate * 100:.1f}% (ring peaked at "
        f"{with_ecn.peak_ring_entries} of "
        f"{buffer_only.peak_ring_entries} entries)."
    )


if __name__ == "__main__":
    main()
