"""Scale-out: pool many memory servers behind one switch (§7 / cluster).

Two claims from the cluster subsystem, measured end to end:

* **Sharded lookup throughput scales with the pool.**  The per-server
  bottleneck for lookup misses is the RNIC's message pipeline (two
  requests per miss through ~300 ns of header processing), far below the
  40 GbE link.  Sharding misses over N servers multiplies that ceiling by
  N.  Following §5's methodology the sweep drives every configuration at
  its maximum *lossless* rate (just under the busiest shard's RNIC
  capacity) and reports achieved miss throughput — same per-server region
  size everywhere, so a single server holds the same table as each pool
  member.

* **Replicated counters survive a server death.**  With K=2 replication
  every counter update lands on two ring-chosen servers.  Killing one
  server mid-run loses nothing: the health monitor turns the victim's
  retransmission timeouts into a down verdict, updates continue on the
  survivors, and reconciliation copies authoritative values onto the
  members that took over the dead arcs.
"""

from __future__ import annotations

from typing import Dict, Sequence

from ..apps.programs import CountingProgram, RemoteLookupProgram
from ..cluster.pool import MemoryPool
from ..cluster.replicated_store import ReplicatedStateStore
from ..cluster.sharded_lookup import ShardedLookupTable
from ..core.lookup_table import (
    ACTION_SET_DSCP,
    LookupTableConfig,
    RemoteAction,
)
from ..core.state_store import (
    ATOMIC_OPERAND_BYTES,
    RemoteStateStore,
    StateStoreConfig,
)
from ..net.headers import UdpHeader
from ..switches.hashing import FiveTuple
from ..switches.traffic_manager import TrafficManagerConfig
from ..workloads.factory import udp_between
from ..workloads.perftest import RawEthernetBw
from ..testbed import build_testbed
from . import Experiment

#: Ring salt for every scale-out run (placement, hence the load split, is
#: deterministic and reproducible — satellite of the cluster subsystem).
RING_SEED = 1
RING_VNODES = 128

#: Per-server offered miss load (million lookups/s).  The RNIC pipeline
#: absorbs ~1.67 M misses/s (two ~300 ns messages each); 1.25 M leaves
#: headroom so even the busiest shard of an imperfect ring split stays
#: lossless.
OFFERED_PER_SERVER_MLPS = 1.25

_BASE_SRC_PORT = 10_000
_DST_PORT = 20_000


def mega_per_sec(count: int, duration_ms: float) -> float:
    """*count* events per second of a *duration_ms* run, in millions."""
    return count / (duration_ms * 1e3) if duration_ms > 0 else 0.0


def _rotate_src_port(flows: int):
    """Sender stamp: spread packets over *flows* UDP source ports."""

    def stamp(packet, seq) -> None:
        packet.require(UdpHeader).src_port = _BASE_SRC_PORT + (seq % flows)

    return stamp


def counting_store(tb, config: StateStoreConfig) -> RemoteStateStore:
    """A state store on the testbed's memory server, fed by a switch
    running :class:`CountingProgram`."""
    program = tb.bind(CountingProgram())
    channel = tb.controller.open_channel(
        tb.memory_server, tb.server_port, config.counters * ATOMIC_OPERAND_BYTES
    )
    store = RemoteStateStore(tb.switch, channel, config=config)
    program.use_state_store(store)
    return store


def counter_schedule(tb, packets: int, flows: int, counters: int) -> Dict[int, int]:
    """Per-counter totals that *packets* rotating over *flows* must land.

    The send schedule (flow rotation, counter hash) fixes them exactly, so
    correctness is exact, not statistical.
    """
    src, dst = tb.hosts
    expected: Dict[int, int] = {}
    for seq in range(packets):
        flow = FiveTuple(
            src_ip=src.eth.ip.value, dst_ip=dst.eth.ip.value, protocol=17,
            src_port=_BASE_SRC_PORT + (seq % flows), dst_port=_DST_PORT,
        )
        index = flow.hash() % counters
        expected[index] = expected.get(index, 0) + 1
    return expected


def count_schedule(tb, store, packets: int, flows: int) -> None:
    """Send that schedule at 1 Gb/s through the counting switch; quiesce."""
    src, dst = tb.hosts
    RawEthernetBw(
        tb.sim, src, dst, packet_size=128, rate_bps=1e9, count=packets,
        dst_port=_DST_PORT, stamp=_rotate_src_port(flows),
    ).start()
    tb.sim.run()
    quiesce(tb.sim, store)


def quiesce(sim, store) -> None:
    """Force out everything still accumulated switch-side and let the
    retransmission machinery drain the in-flight window."""
    for _ in range(64):
        if store.pending_value == 0 and store.outstanding == 0:
            break
        store.flush_all()
        sim.run()


def run_scaleout_point(
    servers: int,
    hosts: int = 8,
    lookups_per_host: int = 1200,
    flows_per_host: int = 32,
    entries: int = 1 << 16,
    offered_per_server_mlps: float = OFFERED_PER_SERVER_MLPS,
) -> dict:
    """Measure aggregate lookup miss throughput with *servers* pool members.

    Every packet is a remote miss (``cache_entries=0``, §5's per-packet
    fetch), each host blasts minimum-size UDP toward its neighbour over
    ``flows_per_host`` flows, and the aggregate offered rate is
    ``offered_per_server_mlps x servers`` so each configuration runs at
    its own lossless ceiling.
    """
    tb = build_testbed(
        n_hosts=hosts,
        n_memory_servers=servers,
        tm_config=TrafficManagerConfig(),
    )
    pool = MemoryPool(tb.controller, vnodes=RING_VNODES, seed=RING_SEED)
    for server, port in zip(tb.memory_servers, tb.server_ports):
        pool.add_server(server, port)

    program = tb.bind(RemoteLookupProgram())

    config = LookupTableConfig(entries=entries, cache_entries=0)
    table = ShardedLookupTable(tb.switch, pool, config=config)
    program.use_lookup_table(table)

    # Install the DSCP-rewrite action for every flow the senders emit.
    for i, src in enumerate(tb.hosts):
        dst = tb.hosts[(i + 1) % hosts]
        for f in range(flows_per_host):
            flow = FiveTuple(
                src_ip=src.eth.ip.value,
                dst_ip=dst.eth.ip.value,
                protocol=17,
                src_port=_BASE_SRC_PORT + f,
                dst_port=_DST_PORT,
            )
            table.install(flow, RemoteAction(ACTION_SET_DSCP, 46))

    offered_mlps = offered_per_server_mlps * servers
    wire_bits = udp_between(tb.hosts[0], tb.hosts[1], 64).wire_len * 8
    per_host_rate_bps = offered_mlps * 1e6 / hosts * wire_bits
    for i, src in enumerate(tb.hosts):
        sender = RawEthernetBw(
            tb.sim,
            src,
            tb.hosts[(i + 1) % hosts],
            packet_size=64,
            rate_bps=per_host_rate_bps,
            count=lookups_per_host,
            dst_port=_DST_PORT,
            stamp=_rotate_src_port(flows_per_host),
        )
        sender.start()
    tb.sim.run()

    sent = hosts * lookups_per_host
    if table.total("remote_lookups") == 0:
        raise RuntimeError("scaleout: no remote lookups happened; setup broken")
    # A completed miss is a finished WRITE+READ round trip; flows whose
    # slot collided fall back to the default action but still complete.
    completed = (
        table.total("remote_hits")
        + table.total("fingerprint_mismatches")
        + table.total("remote_invalid")
    )
    duration_ms = tb.sim.now / 1e6
    return {
        "servers": servers,
        "mlookups_per_sec": round(mega_per_sec(completed, duration_ms), 3),
        "lookups_lost": table.lookups_lost,
        "lookups_sent": sent,
        "lookups_completed": completed,
        "offered_mlps": offered_mlps,
        "duration_ms": duration_ms,
    }


def run_scaleout(
    server_counts: Sequence[int] = (1, 2, 4),
    hosts: int = 8,
    lookups_per_host: int = 1200,
    flows_per_host: int = 32,
) -> Dict[str, dict]:
    """The scale-out sweep: one row per pool size, same total work; the
    largest pool's row also carries its speedup over the first."""
    rows = [
        run_scaleout_point(
            n,
            hosts=hosts,
            lookups_per_host=lookups_per_host,
            flows_per_host=flows_per_host,
        )
        for n in server_counts
    ]
    rates = [mega_per_sec(r["lookups_completed"], r["duration_ms"]) for r in rows]
    rows[-1]["speedup_vs_1_server"] = round(rates[-1] / rates[0], 3)
    return {f"scaleout_{r['servers']}_servers": r for r in rows}


# -- replicated counters under server death -----------------------------------


def run_failover_counters(
    packets: int = 4000,
    flows: int = 16,
    servers: int = 3,
    replication: int = 2,
    kill_at_ns: float = 1_500_000.0,
    counters: int = 1 << 12,
) -> dict:
    """Kill one replica server mid-run; verify no counter update is lost.

    The victim's switch link goes fully lossy at ``kill_at_ns`` (a crash,
    as the switch sees it).  The reliable-mode watchdog's timeouts feed
    the pool's health monitor, which declares the member dead; updates
    continue on the surviving replicas and reconciliation re-establishes
    K-way redundancy on the members that took over the dead arcs.
    """
    tb = build_testbed(n_hosts=2, n_memory_servers=servers)
    pool = MemoryPool(tb.controller, vnodes=RING_VNODES, seed=RING_SEED)
    for server, port in zip(tb.memory_servers, tb.server_ports):
        pool.add_server(server, port)

    program = tb.bind(CountingProgram())

    config = StateStoreConfig(
        counters=counters, reliable=True, retry_timeout_ns=50_000.0
    )
    store = ReplicatedStateStore(
        tb.switch, pool, config=config, replication=replication
    )
    program.use_state_store(store)

    expected = counter_schedule(tb, packets, flows, counters)

    # Kill the replica holding the most of the workload's counters — the
    # hardest case for the survivors.
    hosted: Dict[str, int] = {}
    for index in expected:
        for member in pool.replicas_for(index, replication):
            hosted[member.name] = hosted.get(member.name, 0) + 1
    victim = max(hosted, key=lambda name: (hosted[name], name))
    victim_index = tb.memory_servers.index(pool.member(victim).server)
    victim_link = tb.server_links[victim_index]

    def crash() -> None:
        victim_link.loss_probability = 1.0

    tb.sim.schedule_at(kill_at_ns, crash)

    count_schedule(tb, store, packets, flows)
    recovered = {index: store.read_counter(index) for index in expected}
    expected_total, recovered_total = sum(expected.values()), sum(recovered.values())
    return {
        "killed_member": victim,
        "lost_updates": expected_total - recovered_total,
        "all_counters_exact": expected == recovered,
        "counters_repaired": store.cluster_stats.counters_repaired,
        "detected": not pool.health.is_alive(victim),
        "members_failed": store.cluster_stats.members_failed,
        "packets_sent": packets,
        "kill_at_ns": kill_at_ns,
        "expected_total": expected_total,
        "recovered_total": recovered_total,
    }


def _checks(record) -> dict:
    sweep = [r for name, r in record.items() if name.startswith("scaleout_")]
    failover = record["failover_replicated_counters"]
    return {
        "lossless at every pool size": all(r["lookups_lost"] == 0 for r in sweep),
        "every lookup completes": all(
            r["lookups_completed"] == r["lookups_sent"] for r in sweep
        ),
        ">= 3x miss throughput at 4 servers": (
            record["scaleout_4_servers"]["speedup_vs_1_server"] >= 3.0
        ),
        "the killed replica is declared dead": failover["detected"],
        "exactly one member failed": failover["members_failed"] == 1,
        "no counter update lost": failover["lost_updates"] == 0,
        "every counter exact": failover["all_counters_exact"],
    }


EXPERIMENT = Experiment(
    name="scaleout",
    run=lambda lookups_per_host, packets, kill_at_ns: {
        **run_scaleout(lookups_per_host=lookups_per_host),
        "failover_replicated_counters": run_failover_counters(
            packets=packets, kill_at_ns=kill_at_ns
        ),
    },
    checks=_checks,
    quick={"lookups_per_host": 400, "packets": 1500, "kill_at_ns": 600_000.0},
    full={"lookups_per_host": 1200, "packets": 4000, "kill_at_ns": 1_500_000.0},
)
