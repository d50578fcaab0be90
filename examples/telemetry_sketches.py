#!/usr/bin/env python3
"""Example: Count-Min sketches over remote memory for telemetry (§2.3).

Runs the same sketching algorithm twice over one Zipf packet stream:

* squeezed into a switch-SRAM budget (the status quo the paper laments),
* over a remote-DRAM counter array updated with RDMA Fetch-and-Add.

Then runs heavy-hitter detection on both and prints the accuracy gap.

Run:  python examples/telemetry_sketches.py
"""

import argparse

from repro.analysis.reporting import format_record
from repro.experiments import rows_by
from repro.experiments.telemetry import run_telemetry
from repro.sim.units import kib


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--flows", type=int, default=20_000)
    parser.add_argument("--packets", type=int, default=15_000)
    parser.add_argument("--sram-kib", type=int, default=8,
                        help="SRAM budget for the local sketch (KiB)")
    args = parser.parse_args()

    print(
        f"Sketching {args.flows} flows / {args.packets} packets with an "
        f"{args.sram_kib} KiB SRAM budget vs remote DRAM..."
    )
    results = run_telemetry(
        flows=args.flows,
        packets=args.packets,
        sram_budget_bytes=kib(args.sram_kib),
        remote_counters=1 << 20,
    )
    print()
    print(format_record(rows_by("backend")(results)))
    print()

    local, remote = results
    scaling = remote.sketch_counters / local.sketch_counters
    print(
        f"Remote memory held {scaling:.0f}x more counters, cutting mean "
        f"relative error from {local.mean_relative_error:.2f} to "
        f"{remote.mean_relative_error:.3f} and lifting heavy-hitter F1 "
        f"from {local.hh_f1:.2f} to {remote.hh_f1:.2f} — with "
        f"{remote.server_cpu_packets} packets touching the server CPU."
    )


if __name__ == "__main__":
    main()
