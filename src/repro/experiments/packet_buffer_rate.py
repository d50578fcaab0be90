"""§5 packet-buffer microbenchmark: lossless store and forward rates.

Paper procedure: a P4 program "first stores all incoming packets to the
remote buffer, and later loads and forwards them to the destination port.
For microbenchmark purpose, we manually start the two steps respectively."
Sweep the offered rate and report the maximum rate with zero loss.

Paper results (1500 B MTU frames, 40 GbE):

* store 34.1 Gbps lossless, forward back at 37.4 Gbps,
* native server-to-server RDMA baseline "only 4.4 % faster".
"""

from __future__ import annotations

from typing import Dict, Sequence

from ..apps.programs import RemoteBufferProgram
from ..core.packet_buffer import (
    ENTRY_SEQ_BYTES,
    PacketBufferConfig,
    RemotePacketBuffer,
)
from ..rdma.constants import Opcode
from ..sim.units import SEC, gbps
from ..baselines.native_rdma import NativeRdmaStreamer
from ..workloads.perftest import PacketSink, RawEthernetBw
from ..testbed import build_testbed
from . import Experiment


def run_store_load_point(
    offered_gbps: float, packets: int = 2000, packet_size: int = 1500
) -> dict:
    """One offered-rate point: store-all phase, then manual drain phase."""
    tb = build_testbed(n_hosts=2)
    program = tb.bind(RemoteBufferProgram())
    # Entries exactly fit the frames under test (the paper sizes entries to
    # "full-sized Ethernet frame"; reading slack bytes would waste return
    # bandwidth since each load fetches the whole entry).
    entry_bytes = packet_size + ENTRY_SEQ_BYTES
    channel = tb.controller.open_channel(
        tb.memory_server, tb.server_port, (packets + 16) * entry_bytes
    )
    primitive = RemotePacketBuffer(
        tb.switch,
        channel,
        protected_port=tb.host_ports[1],
        config=PacketBufferConfig(
            entry_bytes=entry_bytes,
            high_watermark_bytes=0,   # store *all* incoming packets
            low_watermark_bytes=1 << 30,  # drain continuously once started
            manual_load=True,
            max_outstanding_reads=8,
        ),
    )
    program.use_packet_buffer(primitive)

    sink = PacketSink(tb.hosts[1], dst_port=20_000)
    gen = RawEthernetBw(
        tb.sim, tb.hosts[0], tb.hosts[1],
        packet_size=packet_size, rate_bps=gbps(offered_gbps), count=packets,
    )
    gen.start()
    tb.sim.run()  # store phase completes (no loads yet)

    store_window_ns = gen.report.duration_ns
    stored = primitive.metrics["stored_packets"]
    server_rnic = tb.memory_server.rnic
    lossless = (
        stored == packets
        and server_rnic.metrics["writes_executed"] == packets
        and server_rnic.metrics["rx_overflow_drops"] == 0
        and primitive.metrics["ring_full_drops"] == 0
        and tb.switch.tm.total_dropped_packets == 0
    )
    store_rate = (
        gen.report.bytes_sent * 8 * SEC / store_window_ns
        if store_window_ns > 0
        else 0.0
    )

    # Phase 2: load everything back and forward to the destination.
    primitive.start_draining()
    tb.sim.run()
    forward_rate = sink.goodput_bps()

    return {
        "offered_gbps": offered_gbps,
        "packets": packets,
        "stored": stored,
        "lossless": lossless,
        "store_rate_gbps": store_rate / 1e9,
        "forward_rate_gbps": forward_rate / 1e9,
        "delivered": sink.packets,
    }


def run_native_baseline(
    opcode: Opcode, operations: int = 2000, message_bytes: int = 1500
) -> float:
    """Native server-to-server RDMA goodput through the switch, in Gbps."""
    tb = build_testbed(n_hosts=1)
    program = RemoteBufferProgram()  # plain static L2; no primitive attached
    program.install(tb.hosts[0].eth.mac, tb.host_ports[0])
    program.install(tb.memory_server.eth.mac, tb.server_port)
    tb.switch.bind_program(program)
    region = tb.memory_server.lend_memory(message_bytes * (operations + 1))
    streamer = NativeRdmaStreamer(
        tb.sim,
        tb.hosts[0],
        tb.memory_server,
        region,
        opcode=opcode,
        message_bytes=message_bytes,
        operations=operations,
    )
    streamer.start()
    tb.sim.run()
    report = streamer.report()
    if report.failures:
        raise RuntimeError(f"native baseline saw {report.failures} failures")
    return report.goodput_bps / 1e9


def run_packet_buffer_rate(
    offered_rates_gbps: Sequence[float] = (30, 32, 33, 34, 35, 36, 37, 38, 39, 40),
    packets: int = 2000,
) -> Dict[str, dict]:
    """Regenerate the §5 store/forward rate result: one row per offered
    rate, then the headline ``rates``."""
    record = {
        str(rate): run_store_load_point(rate, packets) for rate in offered_rates_gbps
    }
    lossless = [p for p in record.values() if p["lossless"]]
    store = max((p["store_rate_gbps"] for p in lossless), default=0.0)
    native_write = run_native_baseline(Opcode.RDMA_WRITE_ONLY, packets)
    record["rates"] = {
        "max_lossless_store_gbps": store,
        "forward_rate_gbps": lossless[-1]["forward_rate_gbps"] if lossless else 0.0,
        "native_write_gbps": native_write,
        "native_read_gbps": run_native_baseline(Opcode.RDMA_READ_REQUEST, packets),
        # How much faster native RDMA WRITE is than the lossless store.
        "native_advantage_pct": (
            (native_write - store) / store * 100.0 if store > 0 else float("inf")
        ),
    }
    return record


def _checks(record) -> dict:
    rates = record["rates"]
    store, forward = rates["max_lossless_store_gbps"], rates["forward_rate_gbps"]
    return {
        "lossless store within 32-36.5 Gbps": 32.0 <= store <= 36.5,
        "forward within 35-39 Gbps": 35.0 <= forward <= 39.0,
        "forward faster than store": forward > store,
        "native WRITE within 8% of the store": abs(rates["native_advantage_pct"]) <= 8.0,
        "the RNIC drops past the knee": any(
            not p["lossless"] for name, p in record.items() if name != "rates"
        ),
    }


EXPERIMENT = Experiment(
    name="packet-buffer", run=run_packet_buffer_rate, checks=_checks,
    quick={"offered_rates_gbps": (33, 34, 35, 36, 40), "packets": 4000},
    full={"offered_rates_gbps": (32, 33, 34, 35, 36, 38, 40), "packets": 8000},
)
