"""Microbenchmarks of the substrate itself (simulator, codecs, RNIC).

Unlike the paper-figure benchmarks (one long simulation timed once), these
use pytest-benchmark's repeated timing to track the hot paths a simulation
study lives or dies by: event dispatch, header serialization, hash
externs, and a full RDMA round trip.

Run directly (``python benchmarks/bench_micro.py``) this module times the
same hot paths with :mod:`repro.analysis.profiling` and writes a
machine-readable ``BENCH_micro.json`` perf record; when a baseline record
exists (``benchmarks/BENCH_micro_seed.json`` by default) the report also
carries per-benchmark speedups, which is how the fast-path work is tracked
PR over PR.
"""

import argparse
import os
import sys

from repro.analysis.profiling import (
    PerfRecord,
    Profiler,
    load_report,
    make_report,
    throughput,
    write_report,
)
from repro.net.addresses import Ipv4Address, MacAddress
from repro.net.headers import EthernetHeader, Ipv4Header, UdpHeader
from repro.net.packet import Packet
from repro.rdma.headers import BthHeader, IcrcTrailer, RethHeader, parse_roce
from repro.rdma.constants import Opcode
from repro.sim.simulator import Simulator, kernel_mode
from repro.switches.hashing import FiveTuple, crc16, hash_fields


def test_simulator_event_throughput(benchmark):
    def run_10k_events():
        sim = Simulator()
        remaining = [10_000]

        def tick():
            remaining[0] -= 1
            if remaining[0] > 0:
                sim.schedule(1.0, tick)

        sim.schedule(1.0, tick)
        sim.run()
        return sim.events_processed

    events = benchmark(run_10k_events)
    assert events == 10_000


def _sample_packet():
    return Packet(
        headers=[
            EthernetHeader(dst=MacAddress(2), src=MacAddress(1)),
            Ipv4Header(src=Ipv4Address("10.0.0.1"), dst=Ipv4Address("10.0.0.2")),
            UdpHeader(src_port=1000, dst_port=4791),
            BthHeader(opcode=Opcode.RDMA_WRITE_ONLY, dest_qp=0x11, psn=7),
            RethHeader(virtual_address=0x1000, rkey=0x42, dma_length=1024),
        ],
        payload=b"z" * 1024,
        trailers=[IcrcTrailer()],
    )


def test_packet_pack_throughput(benchmark):
    packet = _sample_packet()
    raw = benchmark(packet.pack)
    assert len(raw) == 14 + 20 + 8 + 12 + 16 + 1024 + 4


def test_roce_parse_throughput(benchmark):
    packet = _sample_packet()
    raw = packet.pack()[42:]  # BTH onward
    headers, payload, icrc = benchmark(parse_roce, raw)
    assert len(payload) == 1024


def test_crc16_throughput(benchmark):
    data = b"abcdefgh" * 16
    value = benchmark(crc16, data)
    assert 0 <= value <= 0xFFFF


def test_five_tuple_hash_throughput(benchmark):
    ft = FiveTuple(0x0A000001, 0x0A000002, 17, 1000, 2000)
    value = benchmark(ft.hash)
    assert value == ft.hash()


def test_hash_fields_throughput(benchmark):
    fields = [0x0A000001, 0x0A000002, 17, 1000, 2000]
    benchmark(hash_fields, fields)


def test_rdma_write_round_trip(benchmark):
    """Full simulated RDMA WRITE through switch + RNIC, per operation."""
    from repro.apps.programs import StaticL2Program
    from repro.core.rocegen import RoceRequestGenerator
    from repro.experiments.topology import build_testbed

    def one_write():
        tb = build_testbed(n_hosts=1)
        program = StaticL2Program()
        program.install(tb.hosts[0].eth.mac, tb.host_ports[0])
        program.install(tb.memory_server.eth.mac, tb.server_port)
        tb.switch.bind_program(program)
        channel = tb.controller.open_channel(
            tb.memory_server, tb.server_port, 4096
        )
        gen = RoceRequestGenerator(tb.switch, channel)
        gen.write(channel.base_address, b"x" * 64)
        tb.sim.run()
        return channel.region.writes

    writes = benchmark(one_write)
    assert writes == 1


# -- standalone perf-record harness -----------------------------------------


def _event_loop_record(
    n_events: int = 200_000, chains: int = 256, mode: str = "scalar"
) -> PerfRecord:
    """Time *chains* concurrent self-rescheduling tick chains.

    Concurrent chains keep the calendar ~*chains* entries deep, matching
    what real experiments look like (every in-flight packet holds an
    event), so the benchmark exercises calendar maintenance rather than
    just dispatch.  The ticks use fire-and-forget ``post`` — what the
    product hot paths (link delivery, serializers, pipelines) use — so
    the scalar number exercises heap sifting and the batch number
    exercises whole-cohort draining of a 256-wide bucket.
    """
    with kernel_mode(mode):
        sim = Simulator()
    remaining = [n_events]
    post = sim.post

    def tick():
        r = remaining[0] - 1
        remaining[0] = r
        if r >= chains:
            post(1.0, tick)

    for _ in range(chains):
        post(1.0, tick)
    with Profiler("simulator_event_throughput") as prof:
        sim.run()
    record = prof.record
    assert record is not None and record.events == n_events
    record.extra["mode"] = mode
    record.extra["chains"] = chains
    return record


def _cancel_heavy_record(n_events: int = 50_000, mode: str = "scalar") -> PerfRecord:
    """Event loop where half the scheduled events are cancelled (timeouts)."""
    with kernel_mode(mode):
        sim = Simulator()
    remaining = [n_events]

    def tick():
        remaining[0] -= 1
        doomed = sim.schedule(2.0, tick)
        doomed.cancel()
        if remaining[0] > 0:
            sim.schedule(1.0, tick)

    sim.schedule(1.0, tick)
    with Profiler("simulator_cancel_throughput") as prof:
        sim.run()
    record = prof.record
    assert record is not None and record.events == n_events
    record.extra["mode"] = mode
    return record


def collect_records(quick: bool = False):
    """Run every microbenchmark; returns {name: PerfRecord}.

    The simulator and round-trip workloads run in *both* kernel modes:
    the scalar record keeps its historical name (so seed comparisons keep
    working) and the batch twin rides under a ``_batch`` suffix with
    ``extra["mode"]`` set and ``extra["baseline_name"]`` pointing at the
    scalar entry, so its speedup is computed against the same baseline.
    """
    scale = 0.05 if quick else 0.3
    packet = _sample_packet()
    raw_roce = packet.pack()[42:]
    fresh = _sample_packet()

    def pack_fresh():
        # Re-assign a field between packs: pack() serialises the current
        # field values every time, so this must cost what the loop above
        # does (the names date from the pack-byte cache).
        fresh.require(Ipv4Header).identification ^= 1
        return fresh.pack()

    n_events = 20_000 if quick else 200_000
    n_cancel = 5_000 if quick else 50_000
    records = {
        "simulator_event_throughput": _event_loop_record(n_events),
        "simulator_event_throughput_batch": _event_loop_record(
            n_events, mode="batch"
        ),
        "simulator_cancel_throughput": _cancel_heavy_record(n_cancel),
        "simulator_cancel_throughput_batch": _cancel_heavy_record(
            n_cancel, mode="batch"
        ),
        "packet_pack_cached": throughput(
            "packet_pack_cached", packet.pack, min_seconds=scale
        ),
        "packet_pack_mutating": throughput(
            "packet_pack_mutating", pack_fresh, min_seconds=scale
        ),
        "roce_parse": throughput(
            "roce_parse", lambda: parse_roce(raw_roce), min_seconds=scale
        ),
        "packet_clone": throughput(
            "packet_clone", packet.clone, min_seconds=scale
        ),
        "packet_frame_len": throughput(
            "packet_frame_len", lambda: packet.frame_len, min_seconds=scale
        ),
        "rdma_write_round_trip": throughput(
            "rdma_write_round_trip", _one_rdma_write, min_seconds=scale
        ),
    }
    with kernel_mode("batch"):
        records["rdma_write_round_trip_batch"] = throughput(
            "rdma_write_round_trip", _one_rdma_write, min_seconds=scale
        )
    records["rdma_write_round_trip_batch"].label = "rdma_write_round_trip_batch"
    for name, record in records.items():
        if name.endswith("_batch"):
            record.extra["mode"] = "batch"
            record.extra.setdefault("baseline_name", name[: -len("_batch")])
        else:
            record.extra.setdefault("mode", "scalar")
    return records


def _one_rdma_write():
    from repro.apps.programs import StaticL2Program
    from repro.core.rocegen import RoceRequestGenerator
    from repro.experiments.topology import build_testbed

    tb = build_testbed(n_hosts=1)
    program = StaticL2Program()
    program.install(tb.hosts[0].eth.mac, tb.host_ports[0])
    program.install(tb.memory_server.eth.mac, tb.server_port)
    tb.switch.bind_program(program)
    channel = tb.controller.open_channel(tb.memory_server, tb.server_port, 4096)
    gen = RoceRequestGenerator(tb.switch, channel)
    gen.write(channel.base_address, b"x" * 64)
    tb.sim.run()
    assert channel.region.writes == 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Microbenchmark the simulation fast path; emit a JSON perf record."
    )
    parser.add_argument(
        "--output", default="BENCH_micro.json", help="perf record path"
    )
    parser.add_argument(
        "--baseline",
        default=os.path.join(os.path.dirname(__file__), "BENCH_micro_seed.json"),
        help="baseline record to compute speedups against ('' to skip)",
    )
    parser.add_argument(
        "--label", default="bench_micro", help="label stored in the record"
    )
    parser.add_argument(
        "--quick", action="store_true", help="reduced iteration counts (CI smoke)"
    )
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
        help="record the RDMA wire timeline and write JSONL to PATH",
    )
    args = parser.parse_args(argv)

    from contextlib import nullcontext

    from repro.obs import Observability, WireTrace

    # Observability is only installed when its output was asked for: the
    # round-trip benchmarks build a testbed per op, and thousands of
    # testbeds worth of metrics in one shared registry (~60k series)
    # slow those loops ~3x — a measurement artifact, not kernel cost.
    obs = Observability(trace=WireTrace() if args.trace else None)
    wrapper = obs.activate() if (args.metrics or args.trace) else nullcontext()
    with wrapper:
        records = collect_records(quick=args.quick)
    baseline = None
    if args.baseline and os.path.exists(args.baseline):
        baseline = load_report(args.baseline)
    report = make_report(args.label, records, baseline=baseline)
    write_report(args.output, report)

    for name, record in sorted(records.items()):
        rate = record.extra.get("ops_per_sec") or record.events_per_sec
        speed = report.get("speedup", {}).get(name)
        suffix = f"  ({speed:.2f}x vs baseline)" if speed else ""
        print(f"{name:32s} {rate:14,.0f} ops/s{suffix}")
    print(f"\nwrote {args.output}")
    if args.metrics:
        from repro.analysis.reporting import write_metrics_json

        write_metrics_json(args.metrics, obs.registry, label=args.label)
        print(f"wrote {args.metrics} ({len(obs.registry)} metrics)")
    if args.trace:
        obs.trace.write_jsonl(args.trace)
        print(f"wrote {args.trace} ({len(obs.trace)} events)")
    if baseline is not None:
        events_speedup = report["speedup"].get("simulator_event_throughput")
        if events_speedup is not None:
            print(f"event-loop speedup vs {report['baseline_label']}: "
                  f"{events_speedup:.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
