"""Every call, byte and heap-length budget the repo holds itself to: one table.

Counts, not timings: cProfile call counts repeat exactly on any machine,
and tracemalloc byte counts on any machine running one CPython version.
The tier-1 guards (``test_packet_model``, ``test_hop_path``,
``test_roce_round_trip``, ``test_install_path``, ``test_primitive_path``,
``test_lookup_path``, ``test_workloads_zipf``, ``test_sim_far_tier``)
import their ceilings from here, and CI's ``bench-e2e-quick`` step runs
``python -m tests.budgets bench_e2e_quick.json`` to hold the quick-run
record to :data:`BENCH_BUDGETS`.  Each comment gives the measured value
and what it was before its path was budgeted.
"""

from __future__ import annotations

import cProfile
import gc
import json
import sys
import tracemalloc
from typing import Callable, List, Tuple

import pytest

# -- tier-1 guards: Python calls per unit of work -----------------------------------------

#: ``net/packet.py`` + ``net/headers.py`` calls per forwarded 64 B frame
#: (PR 17; measured 10, was 99).
MODEL_CALLS_PER_FRAME = 30
#: Wire, pipeline, traffic-manager, kernel and host calls per forwarded
#: frame (PR 18; measured 27, was 42).
HOP_CALLS_PER_FRAME = 28
#: ``rdma/*`` + request-generator calls per Fetch-and-Add round trip
#: (PR 19; measured 23, was 56).
ROUND_TRIP_CALLS_PER_OP = 25
#: Every call, C functions included, per ``RemoteLookupTable.install``
#: (measured 31; 41 with the two-CRC16 fingerprint and rollback scaffolding
#: on every insert, 113 before digest-once placement) and per
#: ``L4LbController.admit`` (42; was 52 and 136).
INSTALL_CALLS = 34
ADMIT_CALLS = 45
#: Ring-register reads + writes per stored-and-drained frame (PR 23;
#: measured 10: store 3, WRITE dequeue 1, READ response 6; was 25).
BUFFER_REGISTER_ACCESSES_PER_FRAME = 12
#: ``core/packet_buffer.py`` + ``switches/registers.py`` calls per
#: stored-and-drained frame (PR 23; measured 24, was 84).
BUFFER_CALLS_PER_FRAME = 26
#: ``core/state_store.py`` calls per acknowledged Fetch-and-Add at window 1
#: (PR 23; measured 8.5, was 15.4 plus a ``psn_distance`` per op in the
#: window).  A wider window may add at most one call per op retired.
STATE_STORE_CALLS_PER_OP = 9
#: ``core/lookup_table.py`` + ``cluster/*`` + ``workloads/*`` calls per
#: bounced lookup through a sharded cuckoo table, generation to delivery
#: (PR 24; measured 17, was 34).
LOOKUP_CALLS_PER_MISS = 18

#: Calls, C functions included, per ``Packet.parse(packet.pack())`` of one
#: 128 B Eth/IPv4/UDP frame (measured 13: one ``struct`` call each way,
#: the three headers' slots filled inline; was 71, eleven header-by-header
#: ``pack``/``unpack`` calls and four address constructions).
CODEC_CALLS_PER_FRAME = 15

# -- tier-1 guards: bytes, not calls ------------------------------------------------------
# tracemalloc counts taken with the collector off (``retained``): they repeat
# exactly on any machine running one CPython version.

#: Bytes an ``OpenLoopZipfTraffic`` retains per scheduled packet: 20 000
#: uniform ranks over 4 096 flows (measured 4.2, four bytes a rank in an
#: ``array("I")`` plus its growth slack; was 34.9, a list slot and a boxed
#: int per rank).
SCHEDULE_BYTES_PER_PACKET = 5
#: Bytes a run retains per packet its source sends, the source's and the
#: testbed's together, beyond a shorter run: 3 000 against 1 000 packets to
#: uniform flows over 10**6 ranks (measured 0.06; was 55.4, the per-rank
#: ledger's dict and counts).
SOURCE_BYTES_PER_SENT_PACKET = 1

#: Host bytes the packet buffer keeps per stored entry, the traffic
#: source's meta copy included and the remote pages (1 507 B) excluded:
#: 1 500 against 500 stored 1 500 B frames (measured 295 on CPython 3.11,
#: 297 at 3 000 against 1 000: the meta dict and its values, about 240,
#: the slot columns' 19 and their power-of-two slack; was 479 and 481, a
#: dict of four-element lists).
#: The ceiling adds the 48 B a two-key dict costs more on 3.9; the 3.9
#: and 3.12 values are unmeasured.
RING_BYTES_PER_ENTRY = 360
#: Bytes a buffer over a 2**20-entry ring keeps, constructor included,
#: once it stores 100 frames (measured 51 851 on 3.11; 65 548 with the
#: per-entry dict).  Bookkeeping grows with occupancy, never capacity:
#: slot columns sized to the ring would take 19 MiB.
SPARSE_RING_BYTES = 64 * 1024

# -- tier-1 guard: the kernel's near heap -------------------------------------------------

#: Peak near-heap length while 20 000 pre-scheduled far events drain beside
#: eight in-flight chains (measured 24, the chains and one promoted batch,
#: for 2 000 events as for 20 000; was 20 007, the whole backlog).
NEAR_HEAP_PEAK = 32

# -- tier-1 guard: import closure ----------------------------------------------------------

#: ``repro`` modules a fresh interpreter holds after ``from repro.api
#: import`` the names ``bench_e2e/workloads.py`` imports (measured 75,
#: was 92).  Every bench child compiles each of them from source.
IMPORT_MODULES = 77

# -- bench_e2e at --quick: sums of per-layer ``calls_per_op`` ------------------------------

#: ``name: (workload, layers, ceiling)``.
BENCH_BUDGETS = {
    # A forwarded frame: 10 + 3 + 5 + 8 = 26 measured (was 43).
    "hop path": ("l2_forward", ("net.wire", "switches.tm", "switches.pipeline", "sim"), 32),
    # A counted Fetch-and-Add's round trip (22 measured; was 61).
    "RoCE round trip": ("counter_tiered", ("rdma.rnic", "rdma.codec", "core.rocegen"), 34),
    # A buffered frame in the primitive and its registers (36 measured; was 100).
    "buffered frame": ("pktbuf_ring", ("core.pktbuf", "switches.pipeline"), 60),
    # A bounced lookup in the generator, the sharded front and the table
    # (22 measured; was 39).
    "bounced lookup": ("lookup_miss_x4", ("core.lookup", "cluster", "workloads"), 24),
    # The packet model per bounced lookup, the bounce's one-``struct`` pack
    # and parse included (51.1 measured at --quick, 51.0 traced at full
    # scale; was 71.0 with the header-by-header codecs).
    "bounce codec": ("lookup_miss_x4", ("net.model",), 53),
}


def profiled(run: Callable[[], object]) -> Tuple[list, int]:
    """cProfile entries of *run*, every call it made (C functions included),
    taken with the collector off — a gc callback's calls would land in the
    counts — and the cyclic garbage the run left behind."""
    profiler = cProfile.Profile()
    gc.collect()
    gc.disable()
    try:
        profiler.enable()
        run()
        profiler.disable()
        garbage = gc.collect()
    finally:
        gc.enable()
    return profiler.getstats(), garbage


def retained(build: Callable[[], object]) -> Tuple[object, int]:
    """What *build* returns and the bytes it left allocated, traced by
    tracemalloc with the collector off — a collection inside *build* would
    free memory it did not allocate.  The byte budgets are counts of a
    trace started here; under a trace already running
    (``PYTHONTRACEMALLOC``, ``-X tracemalloc``) this raises
    :class:`RuntimeError` rather than measure and then stop that trace."""
    if tracemalloc.is_tracing():
        raise RuntimeError("tracemalloc is already tracing; the byte budgets need their own trace")
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = build()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        gc.enable()
    return kept, after - before


#: Marks a byte-budget test: skipped under a trace already running.
byte_budget = pytest.mark.skipif(
    tracemalloc.is_tracing(), reason="the byte budgets count a trace of their own"
)


def check_bench_record(records: List[dict]) -> None:
    """Hold a ``bench_e2e/run.py --output`` record to :data:`BENCH_BUDGETS`."""
    per_layer = {record["workload"]: record["per_layer"] for record in records}
    for name, (workload, layers, ceiling) in BENCH_BUDGETS.items():
        calls = {layer: per_layer[workload][f"{layer}.calls_per_op"] for layer in layers}
        total = sum(calls.values())
        assert total <= ceiling, (
            f"{name}: {total:.1f} calls per {workload} op (> {ceiling}): {calls}"
        )
        print(f"{name}: {total:.1f} calls per {workload} op (<= {ceiling}) {calls}")


if __name__ == "__main__":
    with open(sys.argv[1]) as handle:
        check_bench_record(json.load(handle))
