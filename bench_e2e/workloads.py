"""The six whole-system workloads, composed from ``repro.api`` only.

Each workload is one function ``(scale, seed, clock) -> Outcome``.  It
builds a testbed, installs state, runs the simulation and audits the
result, wrapping each step in ``clock.phase(...)`` / ``clock.run(sim)``
so every phase is timed from outside the layers.  ``scale`` multiplies
every op count together; 1.0 is the committed geometry — three quarters
of the sizes ISSUE 11 names, scaled together to fit the benchmark
contract's total-time cap.  The work is fixed by ``(scale, seed)``, never
by how fast the host is.

Load is open-loop in *simulated* time: arrivals follow their own clock.
Operations are what the geometry offers (client packets or counter
updates), so a kernel or packet-model change cannot move the numerator
of ``ops_per_s``.

Where the facade lacks a piece the benchmark owns it: the counting sinks,
the VIP-addressed traffic and the bursty Zipf update schedule below.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List

from repro.api import (
    ACTION_SET_DSCP,
    BACKEND_DEAD,
    BACKEND_RETIRED,
    DEFAULT_LINK_RATE,
    ENTRY_SEQ_BYTES,
    TIER_FAST,
    BreakerPolicy,
    CircuitBreakerConfig,
    Corrupt,
    CountingProgram,
    FaultPlan,
    FiveTuple,
    L4LbController,
    L4LbProgram,
    LinkGuard,
    LookupTableConfig,
    MemoryPool,
    OpenLoopZipfTraffic,
    PacketBufferConfig,
    RemoteAction,
    RemoteBufferProgram,
    RemoteLookupProgram,
    RemoteLookupTable,
    RemotePacketBuffer,
    RemoteStateStore,
    ReplicatedStateStore,
    ShardedLookupTable,
    StateStoreConfig,
    StaticL2Program,
    TieredMemoryPool,
    TierProfile,
    TrafficManagerConfig,
    ZipfGenerator,
    build_testbed,
    gbps,
    integrity_protected,
    usec,
)

#: Flow population of the Zipf workloads (ROADMAP's 1 M-flow policy point).
POPULATION = 1_000_000
#: Consistent-hash ring geometry of the pooled workloads.
RING_VNODES, RING_SEED = 128, 1
#: A Fetch-and-Add operand: one 64-bit counter.
COUNTER_BYTES = 8
#: Paper §5: the remote buffer forwards back at 37.4 Gbps.
PAPER_FORWARD_GBPS = 37.4
#: Per-frame wire bytes beyond "packet size": FCS, preamble, inter-frame gap.
WIRE_OVERHEAD_BYTES = 4 + 8 + 12
#: RDCA-style cache-resident service profile of the fast tier.
FAST_PROFILE = TierProfile(read_latency_ns=60.0, atomic_rate_ops=40e6)


@dataclass
class Outcome:
    """What one workload run hands back to the harness."""

    tb: object
    ops: int
    failed: int
    #: Named invariants; a False one fails the run.
    checks: Dict[str, bool]
    #: Lookup tables whose READs the one-READ-per-miss ratio is taken over.
    lookup_tables: List[object] = field(default_factory=list)
    #: Per-layer values only the workload can compute (not in the registry).
    extras: Dict[str, float] = field(default_factory=dict)
    #: Workload facts for the report (not metrics).
    notes: Dict[str, object] = field(default_factory=dict)


def scaled(count: int, scale: float, floor: int = 1) -> int:
    return max(floor, int(round(count * scale)))


class CountingSink:
    """Counts data packets delivered to a host (RoCE never reaches it)."""

    def __init__(self, host) -> None:
        self.sim = host.sim
        self.packets = 0
        self.bytes = 0
        self.first_ns = None
        self.last_ns = 0.0
        #: (src_port, dst_port) per delivery, when order is being audited.
        self.ports = None
        host.packet_handlers.append(self._handle)

    def _handle(self, packet, interface) -> None:
        if self.first_ns is None:
            self.first_ns = self.sim.now
        self.last_ns = self.sim.now
        self.packets += 1
        self.bytes += packet.frame_len
        if self.ports is not None:
            udp = packet.udp
            self.ports.append((udp.src_port, udp.dst_port))

    def goodput_gbps(self) -> float:
        """Delivered frame bits over the arrival window (simulated time)."""
        if self.first_ns is None or self.last_ns <= self.first_ns:
            return 0.0
        return self.bytes * 8 / (self.last_ns - self.first_ns)


def _bind(tb, program):
    for host, port in zip(tb.hosts, tb.host_ports):
        program.install(host.eth.mac, port)
    tb.switch.bind_program(program)
    return program


def _paced_pps(rate_bps: float, packet_size: int) -> float:
    """Packets per second that put *rate_bps* of wire bytes on the link."""
    return rate_bps / ((packet_size + WIRE_OVERHEAD_BYTES) * 8)


def _span_ns(traffic) -> float:
    """Simulated time the traffic takes to offer all its packets."""
    return traffic.count * 1e9 / traffic.rate_pps


def _install_flows(table, tb, traffic) -> int:
    """A DSCP action for every flow the schedule will offer."""
    src_ip = tb.hosts[0].eth.ip.value
    dst_ip = tb.hosts[1].eth.ip.value
    ranks = traffic.distinct_ranks()
    for rank in ranks:
        key = traffic.flow_key(rank)
        flow = FiveTuple(
            src_ip=src_ip,
            dst_ip=dst_ip,
            protocol=17,
            src_port=key.src_port,
            dst_port=key.dst_port,
        )
        table.install(flow, RemoteAction(ACTION_SET_DSCP, rank % 64))
    return len(ranks)


def _table_entries(flows: int) -> int:
    """Cuckoo sizing: next power of two past ``flows / 0.75``."""
    return 1 << max(12, math.ceil(math.log2(max(1, flows / 0.75))))


def _lookup_outcome(clock, tb, table, shards, traffic, sink, **notes) -> Outcome:
    """Install the offered flows, run, and audit a lookup workload."""
    with clock.phase("install"):
        flows = _install_flows(table, tb, traffic)
        traffic.start()
        clock.reference(tb.sim, 0.0, _span_ns(traffic))
    clock.run(tb.sim)
    with clock.phase("verify"):
        lost = tb.sim.obs.registry.total("lookups_lost")
        undelivered = traffic.count - sink.packets
    return Outcome(
        tb=tb,
        ops=traffic.count,
        failed=lost + undelivered,
        checks={"no_lookup_lost": lost == 0, "all_packets_delivered": undelivered == 0},
        lookup_tables=shards,
        notes={"packets": traffic.count, "flows_installed": flows, **notes},
    )


# -- 1. bare forwarding ---------------------------------------------------------------


def l2_forward(scale: float, seed: int, clock) -> Outcome:
    """2 hosts, static L2, no remote memory, 64 B frames paced at line rate."""
    frames = scaled(187_500, scale)
    with clock.phase("build"):
        tb = build_testbed(n_hosts=2, with_memory_server=False, seed=seed)
        _bind(tb, StaticL2Program())
        sink = CountingSink(tb.hosts[1])
        traffic = OpenLoopZipfTraffic(
            tb.sim,
            tb.hosts[0],
            tb.hosts[1],
            flows=4096,
            alpha=0.0,
            packet_size=64,
            rate_pps=_paced_pps(DEFAULT_LINK_RATE, 64),
            count=frames,
            seed=seed,
            arrival="paced",
        )
    with clock.phase("install"):
        traffic.start()
        clock.reference(tb.sim, 0.0, _span_ns(traffic))
    clock.run(tb.sim)
    with clock.phase("verify"):
        failed = frames - sink.packets
    return Outcome(
        tb=tb,
        ops=frames,
        failed=failed,
        checks={"all_frames_delivered": failed == 0},
        notes={"frames": frames, "frame_bytes": 64},
    )


# -- 2./3. remote lookup table ----------------------------------------------------------


def lookup_cached(scale: float, seed: int, clock) -> Outcome:
    """LRU-1024 policy point: 1 M-flow Zipf, cuckoo table, one server."""
    packets = scaled(30_000, scale)
    with clock.phase("build"):
        tb = build_testbed(n_hosts=2, seed=seed)
        program = _bind(tb, RemoteLookupProgram())
        sink = CountingSink(tb.hosts[1])
        traffic = OpenLoopZipfTraffic(
            tb.sim,
            tb.hosts[0],
            tb.hosts[1],
            flows=POPULATION,
            alpha=1.0,
            packet_size=128,
            rate_pps=2e6,
            count=packets,
            seed=seed,
        )
        config = LookupTableConfig(
            entries=_table_entries(len(traffic.distinct_ranks())),
            cache_entries=1024,
            layout="cuckoo",
            hash_seed=seed,
            policy="lru",
            policy_seed=seed,
        )
        channel = tb.controller.open_channel(
            tb.memory_server, tb.server_port, config.region_bytes
        )
        table = RemoteLookupTable(tb.switch, channel, config=config)
        program.use_lookup_table(table)
        tb.controller.install_hash_seeds(table, seed)
    return _lookup_outcome(
        clock, tb, table, [table], traffic, sink, table_slots=config.entries
    )


def lookup_miss_x4(scale: float, seed: int, clock) -> Outcome:
    """Cache off, table sharded over 4 servers: every packet a remote miss."""
    packets = scaled(22_500, scale)
    servers = 4
    with clock.phase("build"):
        tb = build_testbed(
            n_hosts=2,
            n_memory_servers=servers,
            tm_config=TrafficManagerConfig(),
            seed=seed,
        )
        pool = MemoryPool(tb.controller, vnodes=RING_VNODES, seed=RING_SEED)
        for server, port in zip(tb.memory_servers, tb.server_ports):
            pool.add_server(server, port)
        program = _bind(tb, RemoteLookupProgram())
        sink = CountingSink(tb.hosts[1])
        traffic = OpenLoopZipfTraffic(
            tb.sim,
            tb.hosts[0],
            tb.hosts[1],
            flows=POPULATION,
            alpha=1.0,
            packet_size=128,
            rate_pps=1.25e6 * servers,
            count=packets,
            seed=seed,
        )
        config = LookupTableConfig(
            entries=_table_entries(len(traffic.distinct_ranks())),
            cache_entries=0,
            layout="cuckoo",
            hash_seed=seed,
        )
        table = ShardedLookupTable(tb.switch, pool, config=config)
        program.use_lookup_table(table)
        tb.controller.install_hash_seeds(table, seed)
    return _lookup_outcome(
        clock, tb, table, list(table.shards.values()), traffic, sink, servers=servers
    )


# -- 4. tiered Fetch-and-Add counters -----------------------------------------------------


def zipf_burst_schedule(
    counters: int,
    updates: int,
    seed: int,
    gap_ns: float = 400.0,
    burst_ops: int = 200,
    quiet_ns: float = 20_000.0,
    start_ns: float = 1_000.0,
):
    """Seeded bursty Zipf update schedule: ``[(t_ns, counter index), ...]``.

    Back-to-back bursts with quiet gaps between them: a block with
    in-flight RDMA ops never moves, so online promotion needs instants
    where the hot blocks have quiesced.
    """
    zipf = ZipfGenerator(POPULATION, 1.0, random.Random(seed))
    timed = []
    t = start_ns
    for n in range(updates):
        if n and n % burst_ops == 0:
            t += quiet_ns
        timed.append((t, zipf.sample() % counters))
        t += gap_ns
    return timed


def counter_tiered(scale: float, seed: int, clock) -> Outcome:
    """Reliable counters behind a tiered pool, frequency placement, 5 % fast."""
    updates = scaled(45_000, scale)
    counters, units_per_block = 4096, 64
    total_blocks = counters // units_per_block
    fast_blocks = max(1, round(0.05 * total_blocks))
    with clock.phase("build"):
        tb = build_testbed(n_hosts=2, seed=seed)
        program = _bind(tb, CountingProgram())
        tb.memory_server.rnic.config.tier_profiles = {TIER_FAST: FAST_PROFILE}
        pool = TieredMemoryPool(
            tb.controller,
            policy="frequency",
            policy_seed=seed,
            fast_capacity_bytes=fast_blocks * units_per_block * COUNTER_BYTES,
            tick_ns=15_000.0,
            seed=seed,
        )
        member = pool.add_server(tb.memory_server, tb.server_port)
        geometry = pool.tier_object(
            "counters",
            COUNTER_BYTES,
            counters,
            units_per_block=units_per_block,
            member=member,
            fast_blocks=fast_blocks,
        )
        store = RemoteStateStore(
            tb.switch,
            config=StateStoreConfig(counters=counters, reliable=True),
            tiering=geometry,
        )
        program.use_state_store(store)
    with clock.phase("install"):
        # The independent ledger the counters are audited against.
        ledger: Dict[int, int] = {}
        for t_ns, index in zipf_burst_schedule(counters, updates, seed):
            tb.sim.schedule(t_ns, store.update, index, 1)
            ledger[index] = ledger.get(index, 0) + 1
        clock.reference(tb.sim, 0.0, t_ns)
    clock.run(tb.sim)
    store.flush_all()
    clock.run(tb.sim)
    with clock.phase("verify"):
        misapplied = sum(
            abs(store.read_counter_via_control_plane(index) - value)
            for index, value in ledger.items()
        )
        registry = tb.sim.obs.registry
        peak = registry.value(f"{pool.metrics.name}.tier[fast].occupancy_peak", 0)
    return Outcome(
        tb=tb,
        ops=updates,
        failed=misapplied,
        checks={
            "counters_match_ledger": misapplied == 0,
            "fast_occupancy_within_budget": peak <= pool.fast_capacity_bytes,
        },
        notes={
            "updates": updates,
            "counters": counters,
            "fast_budget_bytes": pool.fast_capacity_bytes,
            "fast_occupancy_peak_bytes": peak,
        },
    )


# -- 5. remote packet buffer ------------------------------------------------------------


def pktbuf_ring(scale: float, seed: int, clock) -> Outcome:
    """Store-all then drain: 1500 B frames at 30 Gbps through the ring."""
    frames = scaled(22_500, scale)
    frame_bytes = 1500
    entry_bytes = frame_bytes + ENTRY_SEQ_BYTES
    with clock.phase("build"):
        tb = build_testbed(n_hosts=2, seed=seed)
        program = _bind(tb, RemoteBufferProgram())
        channel = tb.controller.open_channel(
            tb.memory_server, tb.server_port, (frames + 16) * entry_bytes
        )
        buffer = RemotePacketBuffer(
            tb.switch,
            channel,
            protected_port=tb.host_ports[1],
            config=PacketBufferConfig(
                entry_bytes=entry_bytes,
                high_watermark_bytes=0,  # store *all* incoming packets
                low_watermark_bytes=1 << 30,  # drain continuously once started
                manual_load=True,
                max_outstanding_reads=8,
            ),
        )
        program.use_packet_buffer(buffer)
        sink = CountingSink(tb.hosts[1])
        sink.ports = []
        # Uniform flows: the port pair each frame carries through remote
        # memory and back is what the order audit reads at the sink.
        traffic = OpenLoopZipfTraffic(
            tb.sim,
            tb.hosts[0],
            tb.hosts[1],
            flows=60_000,
            alpha=0.0,
            packet_size=frame_bytes,
            rate_pps=_paced_pps(gbps(30), frame_bytes),
            count=frames,
            seed=seed,
            arrival="paced",
        )
    with clock.phase("install"):
        traffic.start()
        clock.reference(tb.sim, 0.0, _span_ns(traffic))
    clock.run(tb.sim)  # store phase: nothing is loaded back yet
    stored_all = sink.packets == 0
    buffer.start_draining()
    # The drain forwards at about the paper's rate (bits / Gbps = ns).
    clock.reference(tb.sim, tb.sim.now, frames * frame_bytes * 8 / PAPER_FORWARD_GBPS)
    clock.run(tb.sim)
    with clock.phase("verify"):
        sent = []
        for rank in traffic.schedule:
            key = traffic.flow_key(rank)
            sent.append((key.src_port, key.dst_port))
        undelivered = frames - sink.packets
        misordered = sum(1 for a, b in zip(sent, sink.ports) if a != b)
        forward_gbps = sink.goodput_gbps()
    return Outcome(
        tb=tb,
        ops=frames,
        failed=undelivered + misordered,
        checks={
            "lossless": undelivered == 0,
            "in_order": misordered == 0,
            "stored_before_drain": stored_all,
            "forward_rate_within_5pct_of_paper": abs(forward_gbps - PAPER_FORWARD_GBPS)
            <= 0.05 * PAPER_FORWARD_GBPS,
        },
        extras={"core.pktbuf.forward_gbps": forward_gbps},
        notes={
            "frames": frames,
            "frame_bytes": frame_bytes,
            "paper_forward_gbps": PAPER_FORWARD_GBPS,
            "forward_error_vs_paper": forward_gbps / PAPER_FORWARD_GBPS - 1.0,
        },
    )


# -- 6. the combined-failure soak -----------------------------------------------------------


class VipTraffic(OpenLoopZipfTraffic):
    """Open-loop Zipf arrivals addressed to the load balancer's VIP."""

    def __init__(self, vip, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.vip = vip

    def packet_for(self, rank: int):
        packet = super().packet_for(rank)
        packet.ipv4.dst = self.vip
        return packet

    def connection(self, rank: int) -> FiveTuple:
        key = self.flow_key(rank)
        return FiveTuple(
            src_ip=self.src.eth.ip.value,
            dst_ip=self.vip.value,
            protocol=17,
            src_port=key.src_port,
            dst_port=key.dst_port,
        )


def _backend_sink(program, name: str, server, deliveries) -> None:
    """Record data packets reaching backend *name*, by connection."""

    def handle(packet, interface) -> None:
        per_backend = deliveries.setdefault(program.connection_key(packet), {})
        per_backend[name] = per_backend.get(name, 0) + 1

    server.packet_handlers.append(handle)


def l4lb_soak(scale: float, seed: int, clock) -> Outcome:
    """L4 load balancer under a kill, a drain and 1e-3 table-link corruption."""
    connections = scaled(37_500, scale, floor=1_000)
    packets = scaled(7_500, scale, floor=1_000)
    new_connections = scaled(750, scale, floor=50)
    new_packets = scaled(1_500, scale, floor=200)
    backends, rate_pps = 4, 2e6
    kill_name, drain_name = "backend1", "backend2"
    wave1_count = int(packets * 0.6)
    wave2_count = packets - wave1_count

    # ICRC on: receivers must be able to *detect* the corruption.
    with integrity_protected():
        with clock.phase("build"):
            tb = build_testbed(n_hosts=2, n_memory_servers=backends + 1, seed=seed)
            seeds = tb.seeds
            table_server, table_port = tb.memory_servers[0], tb.server_ports[0]
            backend_servers = tb.memory_servers[1:]
            backend_ports = tb.server_ports[1:]
            # fail_after above the breaker's threshold: detecting the kill
            # is the self-healing stack's job, not the bare monitor's.
            pool = MemoryPool(
                tb.controller, vnodes=RING_VNODES, seed=RING_SEED, fail_after=8
            )
            names = [f"backend{i}" for i in range(backends)]
            for name, server, port in zip(names, backend_servers, backend_ports):
                pool.add_server(server, port, name=name)
            program = _bind(tb, L4LbProgram("10.9.9.9"))
            table_config = LookupTableConfig(
                entries=_table_entries(connections + new_connections),
                packet_slot_bytes=256,
                cache_entries=4096,
                layout="cuckoo",
                hash_seed=seed,
                policy="lru",
            )
            channel = tb.controller.open_channel(
                table_server, table_port, table_config.region_bytes, name="l4lb:connections"
            )
            table = RemoteLookupTable(tb.switch, channel, config=table_config)
            program.use_connection_table(table)
            store = ReplicatedStateStore(
                tb.switch,
                pool,
                config=StateStoreConfig(
                    counters=2 * backends, reliable=True, retry_timeout_ns=50_000.0
                ),
                replication=2,
            )
            program.use_counter_store(store)
            controller = L4LbController(program, table, store, pool, seed=seed)
            for name, server, port in zip(names, backend_servers, backend_ports):
                controller.add_backend(
                    name, server.eth.ip, server.eth.mac, port, member=pool.member(name)
                )
            controller.enable_self_healing(
                policy_for=lambda member: BreakerPolicy(
                    config=CircuitBreakerConfig(
                        fail_threshold=3,
                        close_threshold=1,
                        open_timeout_ns=usec(100),
                        probe_timeout_ns=usec(60),
                        probe_jitter_ns=usec(10),
                        backoff=2.0,
                    ),
                    rng=seeds.stream(f"breaker[{member.name}]"),
                ),
                give_up_probes=2,
            )
            # The corrupting table link, guarded from t=0.
            LinkGuard(tb.server_links[0])
            plan = FaultPlan(seed=seed)
            wire = plan.on_link(tb.server_links[0], name="table-link")
            plan.at(0.0, wire, Corrupt(1e-3))
            plan.install(tb.sim)

            deliveries: Dict[FiveTuple, Dict[str, int]] = {}
            for name, server in zip(names, backend_servers):
                _backend_sink(program, name, server, deliveries)

            client, client2 = tb.hosts

            def wave(src, dst, flows, count, label):
                return VipTraffic(
                    program.vip, tb.sim, src, dst, flows=flows, alpha=1.0,
                    rate_pps=rate_pps, count=count, seed=seeds.derive_seed(label),
                )

            wave1 = wave(client, client2, connections, wave1_count, "wave1")
            wave2 = wave(client, client2, connections, wave2_count, "wave2")
            wave_new = wave(client2, client, new_connections, new_packets, "new")

        with clock.phase("install"):
            # The established population: the table external memory holds.
            for rank in range(connections):
                controller.admit(wave1.connection(rank))

            wave1_ns = wave1_count * (1e9 / rate_pps)
            kill_at_ns = 0.5 * wave1_ns  # mid-wave, under full load
            drain_at_ns = wave1_ns + usec(800)  # after the kill settles
            resume_at_ns = drain_at_ns + usec(500)
            victim_link = tb.server_links[1 + names.index(kill_name)]

            def crash() -> None:
                victim_link.loss_probability = 1.0

            new_flows: List[FiveTuple] = []

            def admit_new() -> None:
                for rank in range(new_connections):
                    flow = wave_new.connection(rank)
                    if controller.admit(flow) is not None:
                        new_flows.append(flow)

            tb.sim.schedule_at(kill_at_ns, crash)
            tb.sim.schedule_at(drain_at_ns, controller.drain_backend, drain_name)
            tb.sim.schedule_at(resume_at_ns, admit_new)
            wave1.start(0.0)
            wave2.start(resume_at_ns)
            wave_new.start(resume_at_ns)
            clock.reference(tb.sim, 0.0, wave1_ns)
            clock.reference(tb.sim, resume_at_ns, min(_span_ns(wave2), _span_ns(wave_new)))

        clock.run(tb.sim)
        # Quiesce: push every switch-side accumulation out, let it land.
        for _ in range(64):
            if store.pending_value == 0 and store.outstanding == 0:
                break
            store.flush_all()
            clock.run(tb.sim)

        with clock.phase("verify"):
            lost_updates = sum(
                abs(store.read_counter(index) - value)
                for index, value in program.expected_counts.items()
            )

    with clock.phase("verify"):
        affinity_breaks = 0
        delivered: Dict[str, int] = dict.fromkeys(names, 0)
        for flow, per_backend in deliveries.items():
            allowed = set(controller.assignment_history(flow))
            for name, count in per_backend.items():
                delivered[name] += count
                if name not in allowed:
                    affinity_breaks += count
        # Frames already forwarded onto the victim's link when it went dark
        # are the injected fault itself, not a failure of the system.
        forwarded = program.forwarded_by_backend
        fault_loss = forwarded.get(kill_name, 0) - delivered[kill_name]
        offered = packets + new_packets
        undelivered = offered - sum(delivered.values()) - fault_loss
        states = {name: backend.state for name, backend in controller.backends.items()}
        placed_inactive = sum(
            1 for flow in new_flows if controller.placement[flow] in (kill_name, drain_name)
        )
    return Outcome(
        tb=tb,
        ops=offered,
        failed=lost_updates + affinity_breaks + undelivered,
        checks={
            "zero_lost_updates": lost_updates == 0,
            "zero_affinity_breaks": affinity_breaks == 0,
            "all_packets_delivered": undelivered == 0,
            "kill_detected": states[kill_name] == BACKEND_DEAD
            and not pool.health.is_alive(kill_name),
            "drain_completed": states[drain_name] == BACKEND_RETIRED,
            "new_connections_on_active_backends": placed_inactive == 0,
        },
        lookup_tables=[table],
        extras={
            "apps.l4lb.migrations": len(controller.journal),
            "apps.l4lb.affinity_breaks": affinity_breaks,
        },
        notes={
            "connections": connections,
            "packets": packets,
            "new_connections": len(new_flows),
            "new_packets": new_packets,
            "lost_on_killed_link": fault_loss,
        },
    )


#: name → function; ``metrics.WORKLOADS`` says why each one exists.
WORKLOADS: Dict[str, Callable[[float, int, object], Outcome]] = {
    "l2_forward": l2_forward,
    "lookup_cached": lookup_cached,
    "lookup_miss_x4": lookup_miss_x4,
    "counter_tiered": counter_tiered,
    "pktbuf_ring": pktbuf_ring,
    "l4lb_soak": l4lb_soak,
}
