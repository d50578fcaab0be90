"""§2.2 / Fig. 1b: bare-metal hosting — VIP→PIP translation at the ToR.

A customer's blackbox servers send to virtual IPs; the ToR must translate
to physical IPs.  The full mapping table (tens of thousands of VIPs in
production) dwarfs switch SRAM.  Compared systems:

* ``slowpath``   — SRAM holds what fits; misses take the switch-CPU
  software path (µs latency, pps ceiling, queue drops under load).
* ``remote``     — the complete table in server DRAM via the lookup-table
  primitive, with the same amount of SRAM acting as a cache.

Traffic follows a Zipf flow popularity over the VIPs, so a small cache
covers most packets — the case the paper's design banks on.
"""

from __future__ import annotations

from typing import Dict, List

from ..analysis.stats import percentile
from ..apps.virtual_switch import VipMapping, VirtualSwitchProgram
from ..baselines.cpu_slowpath import CpuSlowPath, CpuSlowPathConfig
from ..core.lookup_table import LookupTableConfig, RemoteLookupTable
from ..net.addresses import Ipv4Address
from ..net.headers import Ipv4Header
from ..net.node import Interface
from ..net.packet import Packet
from ..sim.units import SEC, gbps, to_usec
from ..workloads.factory import udp_between
from ..workloads.flows import ZipfSampler
from ..testbed import build_testbed
from . import Experiment

MODES = ("slowpath", "remote")


def run_baremetal(
    mode: str,
    vips: int = 20_000,
    sram_entries: int = 256,
    packets: int = 5_000,
    alpha: float = 1.1,
    rate_bps: float = gbps(5),
    packet_size: int = 512,
    seed: int = 0,
) -> dict:
    """One mode of the bare-metal translation experiment."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; pick from {MODES}")
    tb = build_testbed(n_hosts=2, with_memory_server=mode == "remote")
    blackbox, vm_host = tb.hosts

    program = VirtualSwitchProgram(sram_entries=sram_entries)
    program.install(blackbox.eth.mac, tb.host_ports[0])
    program.install(vm_host.eth.mac, tb.host_ports[1])
    tb.switch.bind_program(program)

    table = None
    if mode == "remote":
        config = LookupTableConfig(
            entries=1 << 16, cache_entries=sram_entries, cache_fill=True
        )
        channel = tb.controller.open_channel(
            tb.memory_server,
            tb.server_port,
            config.entries * config.entry_bytes,
        )
        table = RemoteLookupTable(tb.switch, channel, config=config)
        program.use_remote_table(table)
    else:
        program.use_slow_path(CpuSlowPath(tb.sim, CpuSlowPathConfig()))

    # Control plane installs every VIP -> PIP mapping.
    for rank in range(vips):
        vip = Ipv4Address((172 << 24) | (16 << 16) | rank + 1)
        pip = Ipv4Address((10 << 24) | (99 << 16) | rank + 1)
        program.add_mapping(
            VipMapping(
                vip=vip,
                pip=pip,
                pip_mac=vm_host.eth.mac,
                egress_port=tb.host_ports[1],
            )
        )

    # Zipf traffic from the blackbox toward the VIPs.
    sampler = ZipfSampler(vips, alpha, tb.seeds.stream(f"baremetal-{seed}"))
    latencies: List[float] = []
    received = [0]

    def on_receive(packet: Packet, interface: Interface) -> None:
        received[0] += 1
        sent_at = packet.meta.get("sent_at")
        if sent_at is not None:
            latencies.append(tb.sim.now - sent_at)

    vm_host.packet_handlers.append(on_receive)

    template = udp_between(blackbox, vm_host, packet_size)
    interval_ns = template.wire_len * 8 * SEC / rate_bps
    state = {"sent": 0}

    def send_next() -> None:
        if state["sent"] >= packets:
            return
        rank = sampler.sample()
        packet = udp_between(blackbox, vm_host, packet_size)
        packet.require(Ipv4Header).dst = Ipv4Address(
            (172 << 24) | (16 << 16) | rank + 1
        )
        packet.meta["sent_at"] = tb.sim.now
        blackbox.send(packet)
        state["sent"] += 1
        tb.sim.schedule(interval_ns, send_next)

    tb.sim.schedule(0.0, send_next)
    tb.sim.run()

    cache_hit_rate = 0.0
    remote_lookups = 0
    if table is not None:
        remote_lookups = table.metrics["remote_lookups"]
        cache_hit_rate = table.metrics["hit_rate"]
    sent = state["sent"]
    return {
        "mode": mode,
        "vips": vips,
        "sram_entries": sram_entries,
        "packets_sent": sent,
        "packets_received": received[0],
        "median_latency_us": (
            to_usec(percentile(latencies, 50)) if latencies else float("nan")
        ),
        "p99_latency_us": (
            to_usec(percentile(latencies, 99)) if latencies else float("nan")
        ),
        "fast_translations": program.fast_translations,
        "slow_path_translations": program.slow_path_translations,
        "slow_path_drops": program.slow_path_drops,
        "remote_lookups": remote_lookups,
        "cache_hit_rate": cache_hit_rate,
        "delivery_rate": received[0] / sent if sent else 0.0,
    }


def run_baremetal_comparison(**kwargs) -> Dict[str, dict]:
    return {mode: run_baremetal(mode, **kwargs) for mode in MODES}


def _checks(record) -> dict:
    slow, remote = record["slowpath"], record["remote"]
    return {
        "both modes deliver everything": slow["delivery_rate"] == 1.0
        and remote["delivery_rate"] == 1.0,
        "the baseline uses its CPU slow path": slow["slow_path_translations"] > 0,
        "the remote table never does": remote["slow_path_translations"] == 0,
        "remote p99 under a third of the slow path's": (
            remote["p99_latency_us"] < slow["p99_latency_us"] / 3
        ),
        "SRAM cache hits over 40%": remote["cache_hit_rate"] > 0.4,
    }


EXPERIMENT = Experiment(
    name="baremetal", run=run_baremetal_comparison, checks=_checks,
    quick={"vips": 2000, "packets": 1500},
    full={"vips": 20_000, "sram_entries": 256, "packets": 6000},
)
