"""§2.1 / Fig. 1a: last-hop incast — drop-tail vs remote buffer vs PFC.

The paper's opening arithmetic: all links 40 Gbps, a ToR with 12 MB of
packet buffer, 50 MB of traffic arriving from eight uplinks at line rate
toward one server.  Receiving takes 50 MB / 40 Gbps = 10 ms, but the
12 MB buffer fills within 12 MB / (8-1) / 40 Gbps ≈ 0.34 ms and the switch
starts dropping.

Variants:

* ``droptail``      — plain shared-buffer ToR (drops).
* ``remote_buffer`` — the packet-buffer primitive striped over enough
  memory servers to absorb the overflow (the paper's "one or multiple
  servers"): lossless, zero sender stalls.
* ``pfc``           — Priority Flow Control: also lossless, but PAUSE
  frames freeze entire sender links, so an innocent victim flow sharing a
  sender is head-of-line blocked (the paper's argument against PFC).

The experiment runs at a configurable scale factor: ``scale=1.0`` is the
paper's exact scenario; smaller scales preserve every ratio (buffer :
burst : rates) while keeping unit-test runtimes sane.
"""

from __future__ import annotations

from typing import Dict, Sequence

from ..apps.programs import RemoteBufferProgram, StaticL2Program
from ..baselines.pfc import PfcConfig, PfcManager
from ..core.packet_buffer import (
    ENTRY_SEQ_BYTES,
    PacketBufferConfig,
    RemotePacketBuffer,
)
from ..sim.units import gbps, mib, to_msec
from ..switches.traffic_manager import TrafficManagerConfig
from ..workloads.incast import IncastWorkload
from ..workloads.perftest import PacketSink, RawEthernetBw
from ..testbed import build_testbed
from . import Experiment

VARIANTS = ("droptail", "remote_buffer", "pfc")


def run_incast(
    variant: str,
    senders: int = 8,
    total_burst_bytes: int = 50 * 1000 * 1000,
    switch_buffer_bytes: int = mib(12),
    packet_size: int = 1500,
    scale: float = 1.0,
    n_memory_servers: int = 8,
    with_victim: bool = True,
) -> dict:
    """Run one incast variant; see module docstring for the scenario."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; pick from {VARIANTS}")
    burst = int(total_burst_bytes * scale)
    buffer_bytes = int(switch_buffer_bytes * scale)
    bytes_per_sender = burst // senders

    # Hosts: senders, the incast receiver, and a victim receiver.
    n_hosts = senders + 2
    tb = build_testbed(
        n_hosts=n_hosts,
        n_memory_servers=n_memory_servers if variant == "remote_buffer" else 1,
        with_memory_server=variant == "remote_buffer",
        tm_config=TrafficManagerConfig(buffer_bytes=buffer_bytes),
    )
    receiver = tb.hosts[senders]
    victim_receiver = tb.hosts[senders + 1]
    sender_hosts = tb.hosts[:senders]

    program = tb.bind(
        RemoteBufferProgram() if variant == "remote_buffer" else StaticL2Program()
    )

    primitive = None
    pfc = None
    if variant == "remote_buffer":
        entry_bytes = packet_size + ENTRY_SEQ_BYTES
        # O(1 GB) per server in the paper; here just comfortably more than
        # the overflow share each server may receive.
        per_server = max(1, burst // max(1, n_memory_servers)) + 64 * entry_bytes
        channels = tb.open_channels(per_server)
        primitive = RemotePacketBuffer(
            tb.switch,
            channels,
            protected_port=tb.host_ports[senders],
            config=PacketBufferConfig(
                entry_bytes=entry_bytes,
                high_watermark_bytes=int(buffer_bytes * 0.6),
                low_watermark_bytes=int(buffer_bytes * 0.05),
                max_outstanding_reads=4,
            ),
        )
        program.use_packet_buffer(primitive)
    elif variant == "pfc":
        pfc = PfcManager(
            tb.switch,
            upstream_ports=tb.host_ports[:senders],
            config=PfcConfig(
                pause_threshold_bytes=int(buffer_bytes * 0.75),
                resume_threshold_bytes=int(buffer_bytes * 0.5),
            ),
        )

    workload = IncastWorkload(
        tb.sim,
        sender_hosts,
        receiver,
        bytes_per_sender=bytes_per_sender,
        packet_size=packet_size,
        rate_bps=gbps(40),
    )
    workload.start()

    # Victim flow: sender 0 also talks to an *uncongested* receiver.  With
    # PFC, pausing sender 0's link stalls this flow too (HoL blocking).
    victim_sink = None
    victim_gen = None
    if with_victim:
        victim_packets = max(10, bytes_per_sender // packet_size // 4)
        victim_sink = PacketSink(victim_receiver, dst_port=30_000)
        victim_gen = RawEthernetBw(
            tb.sim,
            sender_hosts[0],
            victim_receiver,
            packet_size=packet_size,
            rate_bps=gbps(10),
            count=victim_packets,
            src_port=30_001,
            dst_port=30_000,
        )
        victim_gen.start()

    tb.sim.run()

    report = workload.report()
    remote_stored = primitive.metrics["stored_packets"] if primitive else 0
    pause_events = pfc.stats.pause_events if pfc else 0
    sent, received = report.packets_sent, report.packets_received
    return {
        "variant": variant,
        "senders": senders,
        "packets_sent": sent,
        "packets_received": received,
        "burst_bytes": burst,
        "completion_ms": (
            to_msec(report.completion_ns) if report.completion_ns else None
        ),
        "out_of_order": report.out_of_order,
        "switch_drops": tb.switch.tm.total_dropped_packets,
        "remote_stored": remote_stored,
        "pause_events": pause_events,
        "victim_packets_sent": victim_gen.report.packets_sent if victim_gen else 0,
        "victim_packets_received": victim_sink.packets if victim_sink else 0,
        "victim_completion_ms": (
            to_msec(victim_sink.last_arrival_ns)
            if victim_sink and victim_sink.packets
            else None
        ),
        "loss_rate": 1.0 - received / sent if sent else 0.0,
        "lossless": received == sent,
    }


def run_incast_comparison(
    variants: Sequence[str] = VARIANTS, scale: float = 0.1, **kwargs
) -> Dict[str, dict]:
    """Run all variants of the §2.1 scenario at the given scale."""
    return {variant: run_incast(variant, scale=scale, **kwargs) for variant in variants}


def _checks(record) -> dict:
    droptail, remote, pfc = (record[v] for v in VARIANTS)
    line_ms = remote["burst_bytes"] * 8 / gbps(40) * 1e3
    return {
        "drop-tail loses most of the burst": droptail["loss_rate"] > 0.5,
        "remote buffer lossless and in order": remote["lossless"]
        and remote["out_of_order"] == 0
        and remote["switch_drops"] == 0,
        "the burst takes its 40 Gbps line time": remote["completion_ms"] >= line_ms,
        "PFC is lossless": pfc["lossless"],
        "PFC stalls the victim, the remote buffer does not": (
            pfc["victim_completion_ms"] > 2 * remote["victim_completion_ms"]
        ),
    }


EXPERIMENT = Experiment(
    name="incast", run=run_incast_comparison, checks=_checks,
    quick={"scale": 0.1}, full={"scale": 1.0},
)
