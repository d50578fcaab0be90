#!/usr/bin/env python3
"""Example: a bare-metal hosting gateway with a remote lookup table (§2.2).

The cloud scenario from Figure 1b: blackbox customer servers address
virtual IPs; the ToR must translate VIP → PIP, but the full mapping table
dwarfs switch SRAM.  This example builds the two competing designs —
CPU slow path vs remote lookup table with an SRAM cache — and prints the
latency/tail comparison on Zipf traffic.

Run:  python examples/baremetal_gateway.py  [--vips 20000]
"""

import argparse

from repro.analysis.reporting import format_record
from repro.experiments.baremetal import EXPERIMENT, run_baremetal_comparison


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--vips", type=int, default=10_000)
    parser.add_argument("--sram", type=int, default=256,
                        help="SRAM entries (table for the baseline, cache "
                        "for the remote design)")
    parser.add_argument("--packets", type=int, default=5_000)
    args = parser.parse_args()

    print(
        f"Translating {args.vips} VIPs with only {args.sram} SRAM entries "
        f"({args.packets} Zipf packets)..."
    )
    results = run_baremetal_comparison(
        vips=args.vips, sram_entries=args.sram, packets=args.packets
    )
    print()
    print(format_record(EXPERIMENT.record(results)))
    print()

    slow, remote = results
    print(
        f"The baseline pushed {slow.slow_path_translations} packets through "
        f"the switch CPU (p99 {slow.p99_latency_us:.1f} us); the remote "
        f"table kept everything in the data plane "
        f"(p99 {remote.p99_latency_us:.1f} us, "
        f"{remote.cache_hit_rate * 100:.0f}% SRAM cache hits)."
    )


if __name__ == "__main__":
    main()
