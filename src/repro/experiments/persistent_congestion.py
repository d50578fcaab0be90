"""§2.1's division of labour: bursts → remote buffer, persistence → ECN.

"Before that >10 GB remote memory is all filled, any bursty incast
conditions should have passed, or (in the case of persistent congestion)
end-to-end congestion control based on ECN [36] or delay [28] should have
slowed traffic."

This experiment subjects a remote-buffered egress port to *persistent* 2:1
overload (two senders at line rate, forever) and compares:

* ``buffer_only`` — no congestion control: the ring grows until it is
  full, then packets drop; remote memory merely delays the loss.
* ``buffer+ecn``  — the co-designed signal: once ring occupancy crosses a
  threshold, diverted ECT packets are CE-marked; DCTCP-style senders slow
  to their fair share, the ring drains, and the system is loss-free.
"""

from __future__ import annotations

from typing import Dict, List

from ..analysis.stats import jain_fairness
from ..apps.programs import RemoteBufferProgram
from ..core.packet_buffer import (
    ENTRY_SEQ_BYTES,
    PacketBufferConfig,
    RemotePacketBuffer,
)
from ..sim.units import gbps, kib, msec
from ..switches.traffic_manager import TrafficManagerConfig
from ..workloads.dctcp import DctcpConfig, DctcpReceiver, DctcpSender
from ..testbed import build_testbed
from . import Experiment

MODES = ("buffer_only", "buffer+ecn")


def run_persistent_congestion(
    mode: str,
    duration_ms: float = 8.0,
    ring_entries_per_server: int = 3000,
    ecn_threshold_entries: int = 256,
    n_memory_servers: int = 3,
    senders: int = 2,
) -> dict:
    """One mode of the persistent-congestion study.

    Sizing notes, each load-bearing:

    * ``n_memory_servers`` must absorb the *entire* diverted stream (the
      §4 ordering rule diverts everything while buffering): 2×40 Gbps of
      arrivals needs 3 servers, since each NIC ingests ~34 Gbps
      losslessly (§5's own result).
    * ``ecn_threshold_entries`` must be small relative to the ring:
      marked packets only reach the receiver after their ring sojourn, so
      a deep marking threshold bufferbloats the control loop into
      uselessness (DCTCP's shallow-K lesson, reproduced faithfully).
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; pick from {MODES}")
    # The paper's 12 MB shared buffer, plus one co-design necessity this
    # experiment uncovered: READ requests ride strict priority, so the
    # load path never queues behind megabytes of diverted WRITE traffic on
    # the saturated server ports (classic bufferbloat, inside the switch).
    def _read_request(packet) -> bool:
        from ..rdma.constants import Opcode
        from ..rdma.headers import BthHeader

        bth = packet.find(BthHeader)
        return bth is not None and bth.opcode == Opcode.RDMA_READ_REQUEST

    tb = build_testbed(
        n_hosts=senders + 1,
        n_memory_servers=n_memory_servers,
        tm_config=TrafficManagerConfig(
            rdma_priority=True,
            priority_classifier=_read_request,
        ),
    )
    receiver = tb.hosts[senders]
    program = tb.bind(RemoteBufferProgram())

    entry_bytes = 1500 + ENTRY_SEQ_BYTES
    channels = tb.open_channels(ring_entries_per_server * entry_bytes)
    # Loads ride dedicated queue pairs onto the same regions: READ
    # prioritization reorders them past the WRITE stream inside the
    # switch, which RC only tolerates across QPs, never within one.
    read_channels = [
        tb.controller.open_channel(
            channel.server, channel.server_port, share_region_with=channel
        )
        for channel in channels
    ]
    primitive = RemotePacketBuffer(
        tb.switch,
        channels,
        read_channels=read_channels,
        protected_port=tb.host_ports[senders],
        config=PacketBufferConfig(
            entry_bytes=entry_bytes,
            high_watermark_bytes=kib(256),
            low_watermark_bytes=kib(32),
            ecn_ring_threshold_entries=(
                ecn_threshold_entries if mode == "buffer+ecn" else None
            ),
        ),
    )
    program.use_packet_buffer(primitive)

    dctcp_receiver = DctcpReceiver(receiver, dst_port=42_001)
    dctcp_senders: List[DctcpSender] = []
    for i in range(senders):
        # A faster alpha gain than host-stack DCTCP: the control loop's
        # effective RTT includes the ring sojourn, so it must adapt in few
        # intervals.
        config = DctcpConfig(gain=0.4)
        if mode == "buffer_only":
            # No reaction: neutralise the control loop (feedback arrives
            # but the rate never moves).
            config = DctcpConfig(
                gain=0.0, additive_increase_bps=0.0,
                min_rate_bps=gbps(40), max_rate_bps=gbps(40),
            )
        sender = DctcpSender(
            tb.sim,
            tb.hosts[i],
            receiver,
            packet_size=1500,
            rate_bps=gbps(40),
            duration_ns=msec(duration_ms),
            src_port=42_000 + i * 2,
            config=config,
        )
        sender.start()
        dctcp_senders.append(sender)

    # Track ring occupancy over time.
    peak = [0]

    def sample_ring() -> None:
        peak[0] = max(peak[0], primitive.stored_entries)
        if tb.sim.now < msec(duration_ms):
            tb.sim.schedule(10_000.0, sample_ring)

    tb.sim.schedule(0.0, sample_ring)
    tb.sim.run(max_events=30_000_000)

    ce_marked = primitive.metrics["ecn_marked"] + sum(
        q.ecn_marked for q in tb.switch.tm.queues.values()
    )
    sent = sum(s.packets_sent for s in dctcp_senders)
    final_rates_gbps = [s.rate_bps / 1e9 for s in dctcp_senders]
    return {
        "mode": mode,
        "duration_ms": duration_ms,
        "packets_sent": sent,
        "packets_received": dctcp_receiver.packets,
        "ring_full_drops": primitive.metrics["ring_full_drops"],
        "switch_drops": tb.switch.tm.total_dropped_packets,
        "peak_ring_entries": peak[0],
        "final_ring_entries": primitive.stored_entries,
        "ce_marked": ce_marked,
        "final_rates_gbps": final_rates_gbps,
        "loss_rate": 1.0 - dctcp_receiver.packets / sent if sent else 0.0,
        "aggregate_final_rate_gbps": sum(final_rates_gbps),
    }


def run_persistent_congestion_comparison(**kwargs) -> Dict[str, dict]:
    return {mode: run_persistent_congestion(mode, **kwargs) for mode in MODES}


def _checks(record) -> dict:
    alone, ecn = record["buffer_only"], record["buffer+ecn"]
    return {
        "the buffer alone fills and drops": alone["ring_full_drops"] > 0
        and alone["loss_rate"] > 0.15,
        "the buffer alone fills all 9000 ring entries": alone["peak_ring_entries"] >= 9000,
        "with ECN, loss-free": ecn["loss_rate"] == 0.0 and ecn["ring_full_drops"] == 0,
        "with ECN, the ring peaks under a quarter": (
            ecn["peak_ring_entries"] < alone["peak_ring_entries"] / 4
        ),
        "senders converge to 20-45 Gbps": (
            20.0 <= ecn["aggregate_final_rate_gbps"] <= 45.0
        ),
        "senders share fairly (Jain > 0.9)": jain_fairness(ecn["final_rates_gbps"]) > 0.9,
    }


EXPERIMENT = Experiment(
    name="persistent-congestion", run=run_persistent_congestion_comparison,
    checks=_checks,
    quick={"duration_ms": 4.0}, full={"duration_ms": 6.0},
)
