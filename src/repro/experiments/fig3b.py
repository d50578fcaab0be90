"""Figure 3b: bandwidth overhead of the state-store primitive.

Paper setup (§5): a P4 program counts packets between two end hosts in a
remote counter; ``raw_ethernet_bw`` drives traffic at line rate across
packet sizes.  Measured: the Fetch-and-Add request stream consumes
~2.1 Gbps of switch↔RNIC link bandwidth *regardless of packet size*
(capped by the RNIC's atomic throughput), the counter value is 100 %
accurate, and end-to-end throughput is not degraded versus the plain
L2 baseline.
"""

from __future__ import annotations

from typing import Dict, Sequence

from ..analysis.monitors import LinkBandwidthMonitor
from ..api import StateStoreConfig, build_testbed
from ..apps.programs import StaticL2Program
from ..rdma.headers import BthHeader
from ..workloads.factory import udp_between
from ..workloads.perftest import PacketSink, RawEthernetBw
from . import Experiment
from .scaleout import counting_store

PACKET_SIZES = (64, 128, 256, 512, 1024)


def _run_baseline_goodput(packet_size: int, packets: int) -> float:
    tb = build_testbed(n_hosts=2, with_memory_server=False)
    program = tb.bind(StaticL2Program())
    sink = PacketSink(tb.hosts[1], dst_port=20_000)
    gen = RawEthernetBw(
        tb.sim, tb.hosts[0], tb.hosts[1],
        packet_size=packet_size, rate_bps=40e9, count=packets,
    )
    gen.start()
    tb.sim.run()
    return sink.goodput_bps() / 1e9


def run_fig3b_point(packet_size: int, packets: int = 4000) -> dict:
    """One x-axis point of Figure 3b."""
    tb = build_testbed(n_hosts=2)
    store = counting_store(tb, StateStoreConfig(counters=1 << 16, max_outstanding=16))

    roce_only = lambda packet: packet.find(BthHeader) is not None
    monitor = LinkBandwidthMonitor(tb.sim, tb.server_link, accept=roce_only)

    sink = PacketSink(tb.hosts[1], dst_port=20_000)
    gen = RawEthernetBw(
        tb.sim, tb.hosts[0], tb.hosts[1],
        packet_size=packet_size, rate_bps=40e9, count=packets,
    )
    gen.start()
    tb.sim.run()

    # Link direction b2a is switch → memory server (requests).
    request_gbps = monitor.rate_bps("b2a") / 1e9
    response_gbps = monitor.rate_bps("a2b") / 1e9
    counter = store.read_counter_via_control_plane(
        store.index_of(store.key_of(udp_between(tb.hosts[0], tb.hosts[1], packet_size)))
    )
    return {
        "packet_size": packet_size,
        # Fetch-and-Add request stream, switch → RNIC (the figure's metric).
        "fa_request_gbps": request_gbps,
        # Request + atomic-ACK traffic both ways on the memory-server link.
        "fa_total_gbps": request_gbps + response_gbps,
        "counter_value": counter,
        "packets_sent": gen.report.packets_sent,
        "goodput_gbps": sink.goodput_bps() / 1e9,
        "baseline_goodput_gbps": _run_baseline_goodput(packet_size, packets),
        "counter_accurate": counter == gen.report.packets_sent,
    }


def run_fig3b(
    packet_sizes: Sequence[int] = PACKET_SIZES, packets: int = 4000
) -> Dict[str, dict]:
    """Regenerate Figure 3b; one row per packet size."""
    return {str(size): run_fig3b_point(size, packets) for size in packet_sizes}


def _checks(record) -> dict:
    rates = [r["fa_request_gbps"] for r in record.values()]
    return {
        "F&A stream within 1.6-2.8 Gbps": all(1.6 <= x <= 2.8 for x in rates),
        "F&A stream flat across sizes": max(rates) - min(rates) < 0.6,
        "counter 100% accurate": all(
            r["counter_value"] == r["packets_sent"] for r in record.values()
        ),
        "no goodput loss vs L2 baseline": all(
            r["goodput_gbps"] >= 0.99 * r["baseline_goodput_gbps"]
            for r in record.values()
        ),
    }


EXPERIMENT = Experiment(
    name="fig3b", run=run_fig3b, checks=_checks,
    quick={"packets": 2000}, full={"packets": 4000},
)
