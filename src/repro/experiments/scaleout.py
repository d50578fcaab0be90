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

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from ..analysis.reporting import format_table
from ..apps.programs import CountingProgram, RemoteLookupProgram
from ..cluster.pool import MemoryPool
from ..cluster.replicated_store import ReplicatedStateStore
from ..cluster.sharded_lookup import ShardedLookupTable
from ..core.lookup_table import (
    ACTION_SET_DSCP,
    LookupTableConfig,
    RemoteAction,
)
from ..core.state_store import StateStoreConfig
from ..net.headers import UdpHeader
from ..switches.hashing import FiveTuple
from ..switches.traffic_manager import TrafficManagerConfig
from ..workloads.factory import udp_between
from ..workloads.perftest import RawEthernetBw
from ..testbed import build_testbed

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


@dataclass
class ScaleoutRow:
    """One point of the lookup-table scale-out sweep."""

    servers: int
    offered_mlps: float
    lookups_sent: int
    lookups_completed: int
    lookups_lost: int
    duration_ms: float
    health: Dict[str, dict] = field(default_factory=dict)

    @property
    def mlookups_per_sec(self) -> float:
        if self.duration_ms <= 0:
            return 0.0
        return self.lookups_completed / (self.duration_ms * 1e3)


def _rotate_src_port(flows: int):
    """Sender stamp: spread packets over *flows* UDP source ports."""

    def stamp(packet, seq) -> None:
        packet.require(UdpHeader).src_port = _BASE_SRC_PORT + (seq % flows)

    return stamp


def run_scaleout_point(
    servers: int,
    hosts: int = 8,
    lookups_per_host: int = 1200,
    flows_per_host: int = 32,
    entries: int = 1 << 16,
    offered_per_server_mlps: float = OFFERED_PER_SERVER_MLPS,
) -> ScaleoutRow:
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

    program = RemoteLookupProgram()
    for host, port in zip(tb.hosts, tb.host_ports):
        program.install(host.eth.mac, port)
    tb.switch.bind_program(program)

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
    return ScaleoutRow(
        servers=servers,
        offered_mlps=offered_mlps,
        lookups_sent=sent,
        lookups_completed=completed,
        lookups_lost=table.lookups_lost,
        duration_ms=tb.sim.now / 1e6,
        health=pool.health.snapshot(),
    )


def run_scaleout(
    server_counts: Sequence[int] = (1, 2, 4),
    hosts: int = 8,
    lookups_per_host: int = 1200,
    flows_per_host: int = 32,
) -> List[ScaleoutRow]:
    """The scale-out sweep: one row per pool size, same total work."""
    return [
        run_scaleout_point(
            n,
            hosts=hosts,
            lookups_per_host=lookups_per_host,
            flows_per_host=flows_per_host,
        )
        for n in server_counts
    ]


def format_scaleout(rows: Sequence[ScaleoutRow]) -> str:
    base = rows[0].mlookups_per_sec if rows else 0.0
    return format_table(
        [
            "servers",
            "offered (M/s)",
            "completed",
            "lost",
            "time (ms)",
            "throughput (M/s)",
            "speedup",
        ],
        [
            [
                r.servers,
                f"{r.offered_mlps:.2f}",
                r.lookups_completed,
                r.lookups_lost,
                f"{r.duration_ms:.2f}",
                f"{r.mlookups_per_sec:.2f}",
                f"{r.mlookups_per_sec / base:.2f}x" if base > 0 else "-",
            ]
            for r in rows
        ],
        title=(
            "Scale-out — aggregate lookup miss throughput vs pool size "
            "(equal per-server region)"
        ),
    )


# -- replicated counters under server death -----------------------------------


@dataclass
class FailoverCountersResult:
    """Outcome of killing one replica server mid-count."""

    packets_sent: int
    #: Expected per-counter totals (index -> value) from the send schedule.
    expected: Dict[int, int]
    #: Recovered per-counter totals read back after the death.
    recovered: Dict[int, int]
    killed_member: str
    kill_at_ns: float
    detected: bool
    counters_repaired: int
    members_failed: int

    @property
    def expected_total(self) -> int:
        return sum(self.expected.values())

    @property
    def recovered_total(self) -> int:
        return sum(self.recovered.values())

    @property
    def lost_updates(self) -> int:
        return self.expected_total - self.recovered_total

    @property
    def all_counters_exact(self) -> bool:
        return self.expected == self.recovered


def run_failover_counters(
    packets: int = 4000,
    flows: int = 16,
    servers: int = 3,
    replication: int = 2,
    kill_at_ns: float = 1_500_000.0,
    counters: int = 1 << 12,
) -> FailoverCountersResult:
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

    program = CountingProgram()
    for host, port in zip(tb.hosts, tb.host_ports):
        program.install(host.eth.mac, port)
    tb.switch.bind_program(program)

    config = StateStoreConfig(
        counters=counters, reliable=True, retry_timeout_ns=50_000.0
    )
    store = ReplicatedStateStore(
        tb.switch, pool, config=config, replication=replication
    )
    program.use_state_store(store)

    src, dst = tb.hosts
    # The send schedule fixes the expected per-counter totals exactly.
    expected: Dict[int, int] = {}
    for seq in range(packets):
        flow = FiveTuple(
            src_ip=src.eth.ip.value,
            dst_ip=dst.eth.ip.value,
            protocol=17,
            src_port=_BASE_SRC_PORT + (seq % flows),
            dst_port=_DST_PORT,
        )
        index = flow.hash() % counters
        expected[index] = expected.get(index, 0) + 1

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

    sender = RawEthernetBw(
        tb.sim,
        src,
        dst,
        packet_size=128,
        rate_bps=1e9,
        count=packets,
        dst_port=_DST_PORT,
        stamp=_rotate_src_port(flows),
    )
    sender.start()
    tb.sim.run()

    # Quiesce: push out everything still accumulated switch-side.
    for _ in range(64):
        if store.pending_value == 0 and store.outstanding == 0:
            break
        store.flush_all()
        tb.sim.run()

    recovered = {index: store.read_counter(index) for index in expected}
    return FailoverCountersResult(
        packets_sent=packets,
        expected=expected,
        recovered=recovered,
        killed_member=victim,
        kill_at_ns=kill_at_ns,
        detected=not pool.health.is_alive(victim),
        counters_repaired=store.cluster_stats.counters_repaired,
        members_failed=store.cluster_stats.members_failed,
    )


def format_failover(result: FailoverCountersResult) -> str:
    rows = [
        ["packets counted", result.packets_sent],
        ["replica killed", result.killed_member],
        ["killed at (ms)", f"{result.kill_at_ns / 1e6:.2f}"],
        ["death detected by health monitor", "yes" if result.detected else "no"],
        ["counters repaired on takeover", result.counters_repaired],
        ["expected total", result.expected_total],
        ["recovered total", result.recovered_total],
        ["updates lost", result.lost_updates],
        [
            "all counters exact",
            "yes" if result.all_counters_exact else "NO",
        ],
    ]
    return format_table(
        ["metric", "value"],
        rows,
        title="Failover — replicated counters under server death (K=2)",
    )
