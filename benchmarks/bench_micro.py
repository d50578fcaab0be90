"""Microbenchmarks of the substrate itself (simulator, codecs, RNIC).

Unlike the paper-figure benchmarks (one long simulation timed once), these
use pytest-benchmark's repeated timing to track the hot paths a simulation
study lives or dies by: event dispatch, header serialization, hash
externs, a full RDMA round trip and drawing a traffic schedule.

Run directly (``python benchmarks/bench_micro.py``) this module times the
same hot paths and writes ``BENCH_micro.json``: wall-clock operations per
second, for reading by eye.  These numbers are noisy; speed claims are
made with ``bench_e2e/`` (interleaved, host-corrected), never from here.
"""

import argparse
import json
import platform
import random
import sys
import time
from repro.net.addresses import Ipv4Address, MacAddress
from repro.net.headers import EthernetHeader, Ipv4Header, UdpHeader
from repro.net.packet import Packet
from repro.rdma.headers import BthHeader, IcrcTrailer, RethHeader, parse_roce
from repro.rdma.constants import Opcode
from repro.sim.simulator import Simulator
from repro.switches.hashing import FiveTuple, crc16
from repro.workloads.zipf import ZipfGenerator


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


def test_rdma_write_round_trip(benchmark):
    """Full simulated RDMA WRITE through switch + RNIC, per operation."""
    from repro.apps.programs import StaticL2Program
    from repro.core.rocegen import RoceRequestGenerator
    from repro.testbed import build_testbed

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


# -- standalone harness ------------------------------------------------------


def _ops_per_s(fn, min_seconds: float) -> dict:
    """Call *fn* (after one warm-up call) until ``min_seconds`` elapse."""
    fn()
    calls = 0
    start = now = time.perf_counter()
    deadline = start + min_seconds
    while now < deadline:
        fn()
        calls += 1
        now = time.perf_counter()
    return {"calls": calls, "ops_per_s": calls / (now - start)}


def _event_loop(n_events: int = 200_000, chains: int = 256) -> dict:
    """Time *chains* concurrent self-rescheduling tick chains.

    Concurrent chains keep the calendar ~*chains* entries deep, matching
    what real experiments look like (every in-flight packet holds an
    event), so the benchmark exercises calendar maintenance rather than
    just dispatch.  The ticks use fire-and-forget ``post`` — what the
    product hot paths (link delivery, serializers, pipelines) use.
    """
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
    start = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - start
    assert sim.events_processed == n_events
    return {"events": n_events, "chains": chains, "ops_per_s": n_events / wall}


def _cancel_heavy(n_events: int = 50_000) -> dict:
    """Event loop where half the scheduled events are cancelled (timeouts)."""
    sim = Simulator()
    remaining = [n_events]

    def tick():
        remaining[0] -= 1
        doomed = sim.schedule(2.0, tick)
        doomed.cancel()
        if remaining[0] > 0:
            sim.schedule(1.0, tick)

    sim.schedule(1.0, tick)
    start = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - start
    assert sim.events_processed == n_events
    return {"events": n_events, "ops_per_s": n_events / wall}


def _zipf_schedule(count: int, n: int, alpha: float, bulk: bool, min_seconds: float) -> dict:
    """Ranks per second drawing a *count*-rank schedule over *n* flows, in
    one ``samples`` call or one ``sample`` call per rank (the same ranks)."""

    def draw():
        generator = ZipfGenerator(n, alpha, random.Random(1))
        if bulk:
            generator.samples(count)
        else:
            [generator.sample() for _ in range(count)]

    record = _ops_per_s(draw, min_seconds)
    return {"ranks": count, "calls": record["calls"], "ops_per_s": record["ops_per_s"] * count}


def collect_records(quick: bool = False):
    """Run every microbenchmark; returns {name: {"ops_per_s": ..., ...}}."""
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

    return {
        "simulator_event_throughput": _event_loop(20_000 if quick else 200_000),
        "simulator_cancel_throughput": _cancel_heavy(5_000 if quick else 50_000),
        "packet_pack_cached": _ops_per_s(packet.pack, scale),
        "packet_pack_mutating": _ops_per_s(pack_fresh, scale),
        "roce_parse": _ops_per_s(lambda: parse_roce(raw_roce), scale),
        "packet_clone": _ops_per_s(packet.clone, scale),
        "packet_frame_len": _ops_per_s(lambda: packet.frame_len, scale),
        "rdma_write_round_trip": _ops_per_s(_one_rdma_write, scale),
        # l2_forward's schedule, and lookup_cached's over its 10**6 flows.
        "zipf_schedule_uniform_bulk": _zipf_schedule(187_500, 4096, 0.0, True, scale),
        "zipf_schedule_uniform_per_call": _zipf_schedule(187_500, 4096, 0.0, False, scale),
        "zipf_schedule_zipf_bulk": _zipf_schedule(30_000, 1_000_000, 1.0, True, scale),
        "zipf_schedule_zipf_per_call": _zipf_schedule(30_000, 1_000_000, 1.0, False, scale),
    }


def _one_rdma_write():
    from repro.apps.programs import StaticL2Program
    from repro.core.rocegen import RoceRequestGenerator
    from repro.testbed import build_testbed

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
        description="Microbenchmark the simulation fast path; emit a JSON record."
    )
    parser.add_argument(
        "--output", default="BENCH_micro.json", help="record path"
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

    from repro.obs import Observability
    from repro.obs.trace import WireTrace

    # Observability is only installed when its output was asked for: the
    # round-trip benchmarks build a testbed per op, and thousands of
    # testbeds worth of metrics in one shared registry (~60k series)
    # slow those loops ~3x — a measurement artifact, not kernel cost.
    obs = Observability(trace=WireTrace() if args.trace else None)
    wrapper = obs.activate() if (args.metrics or args.trace) else nullcontext()
    with wrapper:
        records = collect_records(quick=args.quick)
    report = {
        "label": args.label,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "results": records,
    }
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")

    for name, record in sorted(records.items()):
        print(f"{name:32s} {record['ops_per_s']:14,.0f} ops/s")
    print(f"\nwrote {args.output}")
    if args.metrics:
        from repro.analysis.reporting import write_metrics_json

        write_metrics_json(args.metrics, obs.registry, label=args.label)
        print(f"wrote {args.metrics} ({len(obs.registry)} metrics)")
    if args.trace:
        obs.trace.write_jsonl(args.trace)
        print(f"wrote {args.trace} ({len(obs.trace)} events)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
