"""§7 ablations: the design choices the paper leaves open, quantified.

1. **Fetch-and-Add batching** — combine k counter updates per atomic op
   ("to reduce the bandwidth overhead ... combine multiple counter
   updates into a single operation, at the cost of some delay").
2. **Outstanding-atomics window** — the switch must track RNIC progress;
   exceeding the RNIC's limit drops requests.
3. **SRAM cache size** — hit rate and latency of the remote lookup table
   as the local cache grows (§2.2's "local memory serves as cache").
4. **Bounce vs recirculate** — §7's alternative lookup design that holds
   the packet locally and READs only the action, trading recirculation
   passes for remote bandwidth.
5. **RDMA drop sensitivity** — state-store accuracy under lossy links,
   best-effort vs the NAK-resync machinery.
6. **RDMA prioritization** — §7's "prioritize these RDMA packets so that
   they are less likely to be dropped": strict priority + reserved buffer
   headroom under a congested memory-server port.
"""

from __future__ import annotations

from typing import List, Sequence

from ..apps.programs import RemoteLookupProgram
from ..core.lookup_table import (
    ACTION_SET_DSCP,
    LookupTableConfig,
    RemoteAction,
    RemoteLookupTable,
)
from ..core.state_store import StateStoreConfig
from ..rdma.rnic import RnicConfig
from ..sim.units import gbps, to_usec
from ..switches.hashing import FiveTuple
from ..workloads.factory import udp_between
from ..workloads.flows import ZipfFlowWorkload
from ..workloads.perftest import RawEthernetBw
from ..testbed import build_testbed
from . import Experiment
from .scaleout import counting_store


# -- 1. Fetch-and-Add batching -------------------------------------------------

def run_batching_ablation(
    batch_sizes: Sequence[int] = (1, 2, 4, 8, 16, 32),
    packets: int = 4000,
) -> List[dict]:
    results = []
    for batch in batch_sizes:
        tb = build_testbed(n_hosts=2)
        store = counting_store(
            tb, StateStoreConfig(counters=1 << 12, batch_size=batch)
        )
        gen = RawEthernetBw(
            tb.sim, tb.hosts[0], tb.hosts[1],
            packet_size=256, rate_bps=gbps(40), count=packets,
        )
        gen.start()
        tb.sim.run()
        packet = udp_between(tb.hosts[0], tb.hosts[1], 256)
        counted = store.read_counter_via_control_plane(store.index_of(store.key_of(packet)))
        operations = store.metrics["operations_issued"]
        results.append({
            "batch_size": batch,
            "packets": packets,
            "operations": operations,
            "request_bytes": store.rocegen.metrics["request_wire_bytes"],
            "counted_remotely": counted,
            "pending_locally": store.pending_value,
            "ops_per_packet": operations / packets if packets else 0.0,
        })
    return results


# -- 2. outstanding-atomics window ----------------------------------------------

def run_window_ablation(
    windows: Sequence[int] = (1, 4, 16, 64),
    rnic_limit: int = 16,
    packets: int = 3000,
) -> List[dict]:
    """Sweep the switch's outstanding cap across the RNIC's real limit.

    Beyond ``rnic_limit`` the RNIC atomic engine overflows and silently
    drops requests — counts are lost.  This is exactly why §4 makes the
    switch track outstanding requests.
    """
    results = []
    for window in windows:
        tb = build_testbed(
            n_hosts=2,
            rnic_config=RnicConfig(max_outstanding_atomics=rnic_limit),
        )
        store = counting_store(
            tb, StateStoreConfig(counters=1 << 12, max_outstanding=window)
        )
        gen = RawEthernetBw(
            tb.sim, tb.hosts[0], tb.hosts[1],
            packet_size=256, rate_bps=gbps(40), count=packets,
        )
        gen.start()
        tb.sim.run()
        packet = udp_between(tb.hosts[0], tb.hosts[1], 256)
        counted = store.read_counter_via_control_plane(store.index_of(store.key_of(packet)))
        results.append({
            "window": window,
            "rnic_limit": rnic_limit,
            "packets": packets,
            "counted_remotely": counted,
            "pending_locally": store.pending_value,
            "rnic_overflow_drops": tb.memory_server.rnic.metrics["atomic_overflow_drops"],
            "accurate": counted + store.pending_value == packets,
        })
    return results


# -- 3. lookup cache size ----------------------------------------------------------

def run_cache_ablation(
    cache_sizes: Sequence[int] = (0, 64, 256, 1024, 4096),
    flows: int = 4096,
    packets: int = 4000,
    alpha: float = 1.0,
    seed: int = 0,
) -> List[dict]:
    from ..analysis.stats import percentile

    results = []
    for cache_entries in cache_sizes:
        tb = build_testbed(n_hosts=2)
        program = tb.bind(RemoteLookupProgram())
        config = LookupTableConfig(
            entries=1 << 15, cache_entries=cache_entries
        )
        channel = tb.controller.open_channel(
            tb.memory_server, tb.server_port,
            config.entries * config.entry_bytes,
        )
        table = RemoteLookupTable(tb.switch, channel, config=config)
        program.use_lookup_table(table)

        workload = ZipfFlowWorkload(
            tb.sim, tb.hosts[0], tb.hosts[1],
            flows=flows, alpha=alpha, packet_size=256,
            rate_bps=gbps(2), count=packets, seed=seed,
        )
        # Install a DSCP action for every flow the workload may use.
        for rank in range(flows):
            key = workload.flow_key(rank)
            table.install(
                FiveTuple(
                    src_ip=tb.hosts[0].eth.ip.value,
                    dst_ip=tb.hosts[1].eth.ip.value,
                    protocol=17,
                    src_port=key.src_port,
                    dst_port=key.dst_port,
                ),
                RemoteAction(ACTION_SET_DSCP, rank % 64),
            )
        latencies: List[float] = []
        tb.hosts[1].packet_handlers.append(
            lambda p, i: latencies.append(tb.sim.now - p.meta["sent_at"])
            if "sent_at" in p.meta
            else None
        )
        workload.start()
        tb.sim.run()
        results.append({
            "cache_entries": cache_entries,
            "packets": packets,
            "hit_rate": table.metrics["hit_rate"],
            "remote_lookups": table.metrics["remote_lookups"],
            "median_latency_us": to_usec(percentile(latencies, 50)) if latencies else 0.0,
        })
    return results


# -- 4. bounce vs recirculate ---------------------------------------------------------

def run_mode_ablation(
    packets: int = 1500, packet_size: int = 512, seed: int = 0
) -> List[dict]:
    from ..analysis.stats import percentile

    results = []
    for mode in ("bounce", "recirculate"):
        tb = build_testbed(n_hosts=2)
        program = tb.bind(RemoteLookupProgram())
        config = LookupTableConfig(
            entries=1 << 12, cache_entries=0, mode=mode
        )
        channel = tb.controller.open_channel(
            tb.memory_server, tb.server_port,
            config.entries * config.entry_bytes,
        )
        table = RemoteLookupTable(tb.switch, channel, config=config)
        program.use_lookup_table(table)
        flow = FiveTuple(
            src_ip=tb.hosts[0].eth.ip.value,
            dst_ip=tb.hosts[1].eth.ip.value,
            protocol=17,
            src_port=10_000,
            dst_port=20_000,
        )
        table.install(flow, RemoteAction(ACTION_SET_DSCP, 30))
        latencies: List[float] = []
        tb.hosts[1].packet_handlers.append(
            lambda p, i: latencies.append(tb.sim.now - p.meta["sent_at"])
            if "sent_at" in p.meta
            else None
        )
        gen = RawEthernetBw(
            tb.sim, tb.hosts[0], tb.hosts[1],
            packet_size=packet_size, rate_bps=gbps(5), count=packets,
        )
        gen.start()
        tb.sim.run()
        results.append({
            "mode": mode,
            "packets": packets,
            "remote_request_bytes": table.rocegen.metrics["request_wire_bytes"],
            "recirculation_passes": table.metrics["recirculation_passes"],
            "median_latency_us": to_usec(percentile(latencies, 50)) if latencies else 0.0,
        })
    return results


# -- 5. drop sensitivity ----------------------------------------------------------------

def run_drop_ablation(
    loss_probabilities: Sequence[float] = (0.0, 0.001, 0.01, 0.05),
    packets: int = 3000,
    modes: Sequence[bool] = (False, True),
) -> List[dict]:
    """State-store accuracy under a lossy switch↔server link (§7).

    Runs best-effort mode (the paper's prototype: a drop "would affect the
    accuracy of the state") and the §7 reliability extension (ACK/NAK
    handling + same-PSN retransmission: exact counts despite drops).
    """
    results = []
    for reliable in modes:
        for loss in loss_probabilities:
            tb = build_testbed(n_hosts=2)
            tb.server_link.loss_probability = loss
            store = counting_store(
                tb, StateStoreConfig(counters=1 << 12, reliable=reliable)
            )
            gen = RawEthernetBw(
                tb.sim, tb.hosts[0], tb.hosts[1],
                packet_size=256, rate_bps=gbps(40), count=packets,
            )
            gen.start()
            tb.sim.run(max_events=5_000_000)
            packet = udp_between(tb.hosts[0], tb.hosts[1], 256)
            counted = store.read_counter_via_control_plane(
                store.index_of(store.key_of(packet))
            )
            results.append({
                "loss_probability": loss,
                "reliable": reliable,
                "packets": packets,
                "counted_remotely": counted,
                "naks_seen": store.metrics["naks_received"],
                "retransmissions": (
                    store.metrics["retransmissions"] + store.metrics["requeued_after_nak"]
                ),
                "count_error_rate": abs(packets - counted) / packets if packets else 0.0,
            })
    return results


# -- 6. RDMA prioritization ----------------------------------------------------------

def run_priority_ablation(
    lookups: int = 200, background_packets: int = 3000
) -> List[dict]:
    """§7 RDMA prioritization under a congested memory-server port.

    Bounced lookups (packet-sized RDMA WRITEs) share the server port with
    2:1 oversubscribed background UDP; with strict priority + reserved
    headroom the RDMA leg becomes loss-free.
    """
    from ..switches.traffic_manager import TrafficManagerConfig
    from ..sim.units import kib
    from ..net.headers import UdpHeader
    from ..workloads.perftest import PacketSink

    results = []
    for protected in (False, True):
        tm = TrafficManagerConfig(
            buffer_bytes=kib(64),
            rdma_priority=protected,
            rdma_reserved_bytes=kib(16) if protected else 0,
        )
        tb = build_testbed(n_hosts=3, tm_config=tm)
        from ..apps.programs import RemoteLookupProgram

        program = RemoteLookupProgram()
        for host, port in zip(tb.hosts, tb.host_ports):
            program.install(host.eth.mac, port)
        program.install(tb.memory_server.eth.mac, tb.server_port)
        tb.switch.bind_program(program)
        config = LookupTableConfig(entries=1 << 10, cache_entries=0)
        channel = tb.controller.open_channel(
            tb.memory_server, tb.server_port,
            config.entries * config.entry_bytes,
        )
        table = RemoteLookupTable(tb.switch, channel, config=config)
        program.use_lookup_table(table)
        program.lookup_filter = (
            lambda p: p.find(UdpHeader) is not None
            and p.find(UdpHeader).dst_port == 20_000
        )
        flow = FiveTuple(
            src_ip=tb.hosts[0].eth.ip.value,
            dst_ip=tb.hosts[1].eth.ip.value,
            protocol=17,
            src_port=10_000,
            dst_port=20_000,
        )
        table.install(flow, RemoteAction(ACTION_SET_DSCP, 5))

        sink = PacketSink(tb.hosts[1], dst_port=20_000)
        gen = RawEthernetBw(
            tb.sim, tb.hosts[0], tb.hosts[1],
            packet_size=1400, rate_bps=gbps(2), count=lookups,
            src_port=10_000,
        )
        gen.start()
        for i, host in enumerate((tb.hosts[1], tb.hosts[2])):
            RawEthernetBw(
                tb.sim, host, tb.memory_server,
                packet_size=1500, rate_bps=gbps(40),
                count=background_packets // 2,
                src_port=31_000 + i, dst_port=31_001,
            ).start()
        tb.sim.run(max_events=4_000_000)
        issued, resolved = table.metrics["remote_lookups"], table.metrics["remote_hits"]
        results.append({
            "protected": protected,
            "lookups": issued,
            "resolved": resolved,
            "delivered": sink.packets,
            "bounce_naks": table.rocegen.metrics["naks_received"],
            "background_drops": tb.switch.port_queue(tb.server_port).dropped_packets,
            "resolution_rate": resolved / issued if issued else 0.0,
        })
    return results


#: ablation -> harness, in presentation order.
_ABLATIONS = {
    "batching": run_batching_ablation,
    "window": run_window_ablation,
    "cache": run_cache_ablation,
    "mode": run_mode_ablation,
    "drops": run_drop_ablation,
    "priority": run_priority_ablation,
}


def _checks(record) -> dict:
    batching, window, cache = record["batching"], record["window"], record["cache"]
    (bounce, recirc), (unprotected, protected) = record["mode"], record["priority"]
    best_effort = [r["count_error_rate"] for r in record["drops"] if not r["reliable"]]
    return {
        "batching halves operations and bytes": (
            batching[-1]["operations"] < batching[0]["operations"] / 2
            and batching[-1]["request_bytes"] < batching[0]["request_bytes"] / 2
        ),
        "batching never loses a count": all(
            r["counted_remotely"] + r["pending_locally"] == r["packets"] for r in batching
        ),
        "window: exact within the RNIC limit, lossy beyond": all(
            r["accurate"] == (r["window"] <= r["rnic_limit"]) for r in window
        ),
        "cache: hit rate grows with size": (
            [r["hit_rate"] for r in cache] == sorted(r["hit_rate"] for r in cache)
        ),
        "cache: the largest cache lowers median latency": (
            cache[-1]["median_latency_us"] < cache[0]["median_latency_us"]
        ),
        "recirculation halves remote bytes": (
            recirc["remote_request_bytes"] < bounce["remote_request_bytes"] / 2
        ),
        "recirculation pays passes, bounce none": (
            recirc["recirculation_passes"] >= recirc["packets"]
            and bounce["recirculation_passes"] == 0
        ),
        "best-effort error grows with loss": (
            best_effort[0] == 0.0 and best_effort[-1] > best_effort[1]
        ),
        "reliable mode is exact at every loss": all(
            r["count_error_rate"] == 0.0 for r in record["drops"] if r["reliable"]
        ),
        "unprotected RDMA loses lookups": (
            unprotected["resolution_rate"] < 0.8 and unprotected["bounce_naks"] > 0
        ),
        "priority makes lookups loss-free": (
            protected["resolution_rate"] == 1.0 and protected["bounce_naks"] == 0
        ),
        "priority delivers more": protected["delivered"] > unprotected["delivered"],
    }


EXPERIMENT = Experiment(
    name="ablations",
    run=lambda **scales: {
        name: _ABLATIONS[name](**kwargs) for name, kwargs in scales.items()
    },
    checks=_checks,
    quick={
        "batching": {"packets": 1500}, "window": {"packets": 1500},
        "cache": {"packets": 1500}, "mode": {"packets": 500},
        "drops": {"packets": 1500},
        "priority": {"lookups": 100, "background_packets": 1500},
    },
    full={
        "batching": {"batch_sizes": (1, 2, 4, 8, 16, 32), "packets": 4000},
        "window": {"windows": (1, 4, 16, 64), "packets": 3000},
        "cache": {"cache_sizes": (0, 64, 256, 1024, 4096), "packets": 4000},
        "mode": {"packets": 1500},
        "drops": {"loss_probabilities": (0.0, 0.001, 0.01, 0.05), "packets": 3000},
        "priority": {"lookups": 200, "background_packets": 3000},
    },
)
