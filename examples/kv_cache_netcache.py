#!/usr/bin/env python3
"""Example: a NetCache-style in-network KV cache with remote memory (§6).

The paper argues its primitives "can potentially benefit those
applications" — NetCache being the canonical one.  This example runs the
same Zipf query stream against three designs:

* every GET served by the storage server's CPU (~30 µs each),
* hot keys cached in switch SRAM (fast), misses still hit the CPU,
* SRAM cache plus a remote value store: misses become RDMA READs and the
  server CPU drops out of the read path.

Run:  python examples/kv_cache_netcache.py  [--keys 10000]
"""

import argparse

from repro.analysis.reporting import format_record
from repro.experiments.kv_cache import EXPERIMENT, run_kv_cache_comparison


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--keys", type=int, default=10_000)
    parser.add_argument("--sram", type=int, default=64)
    parser.add_argument("--queries", type=int, default=5_000)
    args = parser.parse_args()

    print(
        f"Querying {args.keys} keys ({args.queries} Zipf GETs) with "
        f"{args.sram} SRAM cache slots..."
    )
    results = run_kv_cache_comparison(
        keys=args.keys, sram_entries=args.sram, queries=args.queries
    )
    print()
    print(format_record(EXPERIMENT.record(results)))
    print()
    by_mode = {r.mode: r for r in results}
    remote = by_mode["sram+remote"]
    print(
        f"With the remote value store the switch answered "
        f"{remote.switch_answered}/{remote.queries} GETs itself "
        f"({remote.server_bypass_rate * 100:.1f}% server bypass); only "
        f"hash-bucket collisions ({remote.server_cpu_queries} queries) "
        "still touched the storage server's CPU."
    )


if __name__ == "__main__":
    main()
