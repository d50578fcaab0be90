"""§6 application study: in-network sequencing over a remote counter.

Measures the sequencing rate an off-switch counter sustains: the switch
stamps packets with values returned by RDMA Fetch-and-Add, so throughput
is capped by the RNIC atomic engine (2.4 Mops/s in this model) — the
price of a counter that survives switch failure and is shared across
switches, versus a local register's line-rate stamping.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..apps.sequencer import SEQUENCER_PORT, SeqHeader, SequencerProgram
from ..net.headers import UdpHeader
from ..sim.units import SEC, gbps
from ..workloads.perftest import RawEthernetBw
from ..testbed import build_testbed
from . import Experiment


def run_sequencer_point(
    offered_mpps: float, packets: int = 3000, packet_size: int = 64
) -> dict:
    """One offered-rate point of the sequencing-throughput sweep."""
    tb = build_testbed(n_hosts=2)
    program = tb.bind(SequencerProgram(max_parked=1 << 16))
    channel = tb.controller.open_channel(tb.memory_server, tb.server_port, 4096)
    program.use_channel(tb.switch, channel)

    stamped: List[tuple] = []

    def handler(packet, interface):
        udp = packet.find(UdpHeader)
        if udp is not None and udp.dst_port == SEQUENCER_PORT:
            stamped.append(
                (
                    tb.sim.now,
                    SeqHeader.unpack(packet.payload).sequence,
                    packet.meta.get("seq"),
                )
            )

    tb.hosts[1].packet_handlers.append(handler)

    wire_bits = (packet_size + 24) * 8  # + FCS/preamble/IFG
    rate_bps = offered_mpps * 1e6 * wire_bits
    gen = RawEthernetBw(
        tb.sim, tb.hosts[0], tb.hosts[1],
        packet_size=packet_size, rate_bps=min(rate_bps, gbps(40)),
        count=packets, dst_port=SEQUENCER_PORT,
    )
    gen.start()
    tb.sim.run()

    achieved = 0.0
    if len(stamped) > 1:
        window = stamped[-1][0] - stamped[0][0]
        if window > 0:
            achieved = (len(stamped) - 1) * SEC / window / 1e6
    numbers = [s for _, s, _ in stamped]
    sender_order = [m for _, _, m in stamped]
    return {
        "offered_mpps": offered_mpps,
        "sequenced": program.stats.sequenced,
        "dropped": program.stats.dropped_window_full,
        "achieved_mops": achieved,
        "gap_free": sorted(numbers) == list(range(len(numbers))),
        "arrival_ordered": sender_order == sorted(sender_order),
        "server_cpu_packets": tb.memory_server.cpu_packets,
    }


def run_sequencer_throughput(
    offered_mpps: Sequence[float] = (0.5, 1.0, 2.0, 3.0, 5.0, 10.0),
    packets: int = 3000,
) -> Dict[str, dict]:
    return {str(rate): run_sequencer_point(rate, packets) for rate in offered_mpps}


def _checks(record) -> dict:
    rows = record.values()
    return {
        "gap-free, arrival-ordered, no server CPU": all(
            r["gap_free"] and r["arrival_ordered"] and r["server_cpu_packets"] == 0
            for r in rows
        ),
        "linear up to 2 Mpps": all(
            abs(r["achieved_mops"] - r["offered_mpps"]) <= 0.05 * r["offered_mpps"]
            for r in rows
            if r["offered_mpps"] <= 2.0
        ),
        "saturates at 2.2-2.6 Mops from 3 Mpps": all(
            2.2 <= r["achieved_mops"] <= 2.6 for r in rows if r["offered_mpps"] >= 3.0
        ),
    }


EXPERIMENT = Experiment(
    name="sequencer", run=run_sequencer_throughput, checks=_checks,
    quick={"packets": 1000}, full={"packets": 3000},
)
