#!/usr/bin/env python3
"""Example: tiered remote memory with first-class placement policies (§13).

The external-memory server is not one flat DRAM: its cache hierarchy
serves the hot last mile far faster (the RDCA observation — see
PAPERS.md).  The tiered pool gives every remote object a full-size DRAM
home plus a small, bounded fast window, and a *placement policy* decides
block by block what deserves it:

* ``dram``      — baseline: nothing promotes, everything is DRAM;
* ``static``    — the operator pins the known-hot blocks up front;
* ``frequency`` — access counts learn the hot set online;
* ``watermark`` — promote eagerly, drain at a high-occupancy watermark.

This example drives the same bursty Zipf counter workload (100 k-flow
population) through each policy with a fast window of ~5 % of the
working set, and compares the mean Fetch-and-Add latency.  Every run
also proves the safety story: exact per-counter totals (zero lost
updates) and a fast-occupancy peak that never exceeded the budget.

Run:  python examples/tiered_memory.py
"""

from repro.analysis.reporting import format_record
from repro.experiments import rows_by
from repro.experiments.tiering import TIERING_POLICIES, run_tiering_sweep


def main() -> None:
    print(
        "Driving 4000 bursty Zipf counter updates (100k-flow population)\n"
        "through each placement policy; fast window = 2 of 32 blocks...\n"
    )
    points = run_tiering_sweep(
        TIERING_POLICIES,
        flows=100_000,
        counters=1 << 11,
        updates=4_000,
        seed=42,
    )
    print(format_record(rows_by("policy")(points)))
    print()

    by_policy = {p.policy: p for p in points}
    dram = by_policy["dram"]
    freq = by_policy["frequency"]
    speedup = dram.mean_latency_ns / freq.mean_latency_ns
    print(
        f"The frequency policy learned the Zipf head online: "
        f"{freq.fast_hit_fraction * 100:.0f}% of updates were served from "
        f"the fast tier, cutting the mean Fetch-and-Add latency "
        f"{speedup:.1f}x vs all-DRAM ({dram.mean_latency_ns / 1e3:.2f}us "
        f"-> {freq.mean_latency_ns / 1e3:.2f}us)."
    )
    print(
        f"Safety held throughout: {sum(p.lost_updates for p in points)} "
        f"lost updates across all runs, and fast occupancy peaked at "
        f"{freq.fast_occupancy_peak} B of the {freq.fast_capacity_bytes} B "
        "budget (moves are control-plane copies; busy blocks never move)."
    )


if __name__ == "__main__":
    main()
