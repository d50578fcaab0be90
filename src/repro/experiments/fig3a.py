"""Figure 3a: end-to-end latency overhead of the lookup table primitive.

Paper setup (§5): a P4 program fetches an action entry from the remote
table for *every* incoming packet, applies it (rewrite the IPv4 DSCP
field), and forwards to the destination port.  NPtcp measures median
end-to-end latency for packet sizes 64 B – 1 KB against a plain L2-switch
baseline.  Result: the primitive "only adds 1-2 µs latency".

The remote fetch happens per packet (no SRAM caching), matching the
prototype: ``cache_entries=0``.
"""

from __future__ import annotations

from typing import Dict, Sequence

from ..api import (
    ACTION_SET_DSCP,
    FiveTuple,
    LookupTableConfig,
    RemoteAction,
    RemoteLookupTable,
    build_testbed,
)
from ..apps.programs import RemoteLookupProgram, StaticL2Program
from ..workloads.netpipe import PROBE_PORT, PingPong
from . import Experiment

PACKET_SIZES = (64, 128, 256, 512, 1024)


def _run_baseline(packet_size: int, probes: int) -> float:
    tb = build_testbed(n_hosts=2, with_memory_server=False)
    program = tb.bind(StaticL2Program())
    pingpong = PingPong(
        tb.sim, tb.hosts[0], tb.hosts[1], packet_size=packet_size, probes=probes
    )
    pingpong.start()
    tb.sim.run()
    return pingpong.median_oneway_ns() / 1000.0


def _run_lookup(packet_size: int, probes: int) -> float:
    tb = build_testbed(n_hosts=2)
    program = tb.bind(RemoteLookupProgram())
    config = LookupTableConfig(entries=1 << 12, cache_entries=0)
    channel = tb.controller.open_channel(
        tb.memory_server, tb.server_port, config.entries * config.entry_bytes
    )
    table = RemoteLookupTable(tb.switch, channel, config=config)
    program.use_lookup_table(table)
    # Install the DSCP-rewriting action for both directions of the probe
    # flow (the reply path fetches too — every packet does).
    client, server = tb.hosts
    forward = FiveTuple(
        src_ip=client.eth.ip.value,
        dst_ip=server.eth.ip.value,
        protocol=17,
        src_port=PROBE_PORT + 1,
        dst_port=PROBE_PORT,
    )
    reverse = FiveTuple(
        src_ip=server.eth.ip.value,
        dst_ip=client.eth.ip.value,
        protocol=17,
        src_port=PROBE_PORT,
        dst_port=PROBE_PORT + 1,
    )
    table.install(forward, RemoteAction(ACTION_SET_DSCP, 46))
    table.install(reverse, RemoteAction(ACTION_SET_DSCP, 46))
    pingpong = PingPong(
        tb.sim, client, server, packet_size=packet_size, probes=probes
    )
    pingpong.start()
    tb.sim.run()
    if table.metrics["remote_lookups"] == 0:
        raise RuntimeError("fig3a: no remote lookups happened; setup broken")
    return pingpong.median_oneway_ns() / 1000.0


def run_fig3a(
    packet_sizes: Sequence[int] = PACKET_SIZES, probes: int = 30
) -> Dict[str, dict]:
    """Regenerate Figure 3a's two series; one row per packet size."""
    rows = {}
    for size in packet_sizes:
        baseline_us, lookup_us = _run_baseline(size, probes), _run_lookup(size, probes)
        rows[str(size)] = {
            "packet_size": size,
            "baseline_us": baseline_us,
            "lookup_us": lookup_us,
            "delta_us": lookup_us - baseline_us,
        }
    return rows


def _checks(record) -> dict:
    deltas = [r["delta_us"] for r in record.values()]
    return {
        "the primitive always adds latency": min(deltas) > 0,
        "mean overhead within 1-2.5 us": 1.0 <= sum(deltas) / len(deltas) <= 2.5,
        "no size adds more than 3 us": max(deltas) <= 3.0,
    }


EXPERIMENT = Experiment(
    name="fig3a", run=run_fig3a, checks=_checks,
    quick={"probes": 10}, full={"probes": 30},
)
