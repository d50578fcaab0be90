"""L4LB soak: live backend migration under kills, drains, and corruption.

The ROADMAP's production scenario, run end to end: a switch whose
million-connection L4 load-balancer table lives in remote memory
(:mod:`repro.apps.l4lb`), soaked with open-loop Zipf traffic while the
harness throws every failure PRs 4-9 built machinery for — at once:

* **10⁻³ link corruption** on the switch↔table-server link from t=0,
  masked by a §14 :class:`~repro.linkguard.LinkGuard` (a corrupted
  bounced lookup has no end-to-end retry; the guard is what saves it).
* **A hard backend kill** mid-run: the victim's link goes dark, the §11
  breaker trips, its replica store degrades, reconnect probes fail, and
  the controller escalates to pool failover — connections re-point, K=2
  replication keeps every counter update.
* **A graceful drain** of a *different* backend afterwards: journaled
  re-install of its connections, then quiesce + handoff reconcile under
  a drain hold before the member leaves.  Draining the co-replica of an
  earlier kill is the hard case: counter value whose only surviving
  copy sits on the leaver must be handed off before its channels close.
* **New connections** admitted after the churn, which must land only on
  backends that are still active.

The acceptance bar (``EXPERIMENT``'s checks): **zero lost counter updates**
— every per-backend connection/byte counter read back from the
replicated store equals the program's independent expected-counts
ledger, exactly — and **zero affinity breaks** — every packet delivered
to a backend was sanctioned by that connection's journal (original
placement or a controller-ordered migration target); new connections may
remap, established ones never silently do.

One seed pins the whole timeline: the Zipf schedules, the corruption
pattern, the breaker's probe jitter, and the rendezvous placement all
derive from ``seed``, so ``benchmarks/BENCH_l4lb.json`` regenerates
byte-for-byte.
"""

from __future__ import annotations

import math
from typing import Dict, List

from ..apps.l4lb import (
    BACKEND_ACTIVE,
    Backend,
    L4LbController,
    L4LbProgram,
)
from ..cluster.pool import MemoryPool
from ..cluster.replicated_store import ReplicatedStateStore
from ..core.lookup_table import LookupTableConfig, RemoteLookupTable
from ..core.state_store import StateStoreConfig
from ..faults.models import Corrupt
from ..faults.plan import FaultPlan
from ..hosts.server import MemoryServer
from ..linkguard.guard import LinkGuard
from ..net.addresses import Ipv4Address
from ..net.headers import Ipv4Header, UdpHeader
from ..policies.breaker import BreakerPolicy
from ..rdma.packets import integrity_protected
from ..sim.rng import SeedSequence
from ..sim.units import SEC, usec
from ..switches.hashing import FiveTuple
from ..workloads.zipf import OpenLoopZipfTraffic
from ..testbed import build_testbed
from . import Experiment
from .chaos import breaker_config
from .scaleout import RING_SEED, RING_VNODES, quiesce

#: Root seed: one number pins every schedule in the soak.
L4LB_SEED = 42

#: Per-frame corruption probability on the table-server link.
L4LB_CORRUPT_RATE = 1e-3

#: The virtual IP clients address; backends live behind it.
L4LB_VIP = "10.9.9.9"


class _VipZipfTraffic(OpenLoopZipfTraffic):
    """Open-loop Zipf arrivals addressed to the VIP.

    The flow population (rank → port pair) is the stock Zipf mapping;
    only the destination IP changes, so every packet takes the
    load-balanced path and its connection identity is the VIP 5-tuple.
    """

    def __init__(self, vip: Ipv4Address, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.vip = vip

    def packet_for(self, rank: int):
        packet = super().packet_for(rank)
        packet.require(Ipv4Header).dst = self.vip
        return packet

    def connection(self, rank: int) -> FiveTuple:
        """The connection 5-tuple rank maps to (dst = the VIP)."""
        key = self.flow_key(rank)
        return FiveTuple(
            src_ip=self.src.eth.ip.value,
            dst_ip=self.vip.value,
            protocol=17,
            src_port=key.src_port,
            dst_port=key.dst_port,
        )


class _BackendSink:
    """Records deliveries at one backend, keyed by connection 5-tuple."""

    def __init__(
        self,
        program: L4LbProgram,
        backend: Backend,
        server: MemoryServer,
        deliveries: Dict[FiveTuple, Dict[str, int]],
    ) -> None:
        self.program = program
        self.backend = backend
        self.deliveries = deliveries
        self.packets = 0
        # RoCE is steered to the RNIC before packet_handlers run, so the
        # sink sees exactly the load-balanced data traffic.
        server.packet_handlers.append(self._handle)

    def _handle(self, packet, interface) -> None:
        if packet.find(Ipv4Header) is None or packet.find(UdpHeader) is None:
            return
        self.packets += 1
        flow = self.program.connection_key(packet)
        per_backend = self.deliveries.setdefault(flow, {})
        per_backend[self.backend.name] = per_backend.get(self.backend.name, 0) + 1


def table_entries_for(connections: int) -> int:
    """Cuckoo sizing: next power of two past ``connections / 0.75``.

    (2,4)-cuckoo insertion is reliable far beyond 75 % load; the
    headroom keeps the install phase kick-free at any seed.
    """
    need = max(1 << 12, int(connections / 0.75))
    return 1 << max(12, math.ceil(math.log2(need)))


def run_l4lb_soak(
    connections: int = 100_000,
    packets: int = 20_000,
    new_connections: int = 2_000,
    new_packets: int = 3_000,
    backends: int = 4,
    alpha: float = 1.0,
    rate_pps: float = 2e6,
    corrupt_rate: float = L4LB_CORRUPT_RATE,
    cache_entries: int = 4096,
    kill_backend: str = "backend1",
    drain_backend: str = "backend2",
    seed: int = L4LB_SEED,
) -> Dict[str, dict]:
    """One combined-failure soak; see the module docstring for the plot.

    Timeline: wave 1 of established traffic starts at t=0 with the
    corruption already running; the kill lands mid-wave (under full
    load — detection is the self-healing stack's problem); after wave 1
    ends the drain runs in the inter-wave gap (a graceful drain is a
    *scheduled* handoff — the controller picks a calm moment, which is
    precisely what distinguishes it from the kill); wave 2 plus the
    new-connection wave then run to completion.

    The record holds the soak's totals, then one row per backend: its
    fate, its two recovered counters, its traffic and its post-churn
    admissions.
    """
    if backends < 3:
        raise ValueError("need >= 3 backends to kill one and drain another")
    if kill_backend == drain_backend:
        raise ValueError("kill and drain targets must differ")
    seeds = SeedSequence(seed)
    vip = Ipv4Address(L4LB_VIP)

    # ICRC on: with a corrupting link in the plan, receivers must be able
    # to *detect* damage (corruption is detected loss, the guard's premise).
    with integrity_protected():
        # Topology: clients on ports 0..1; memory server 0 hosts the
        # connection table behind the corrupting (guarded) link; servers
        # 1..B are the backends — dual-role: traffic sinks *and* pool
        # members hosting the K=2 counter replicas.
        tb = build_testbed(n_hosts=2, n_memory_servers=backends + 1, seed=seed)
        table_server, table_port = tb.memory_servers[0], tb.server_ports[0]
        backend_servers = tb.memory_servers[1:]
        backend_ports = tb.server_ports[1:]

        # fail_after deliberately exceeds the breaker's fail_threshold:
        # kill detection is the §11 stack's job here (trip → degrade →
        # probes → escalation), not the bare health monitor's strike
        # counter — the monitor sees the same timeout events (it is
        # chained first) and would otherwise race the breaker to the
        # down verdict.
        pool = MemoryPool(
            tb.controller, vnodes=RING_VNODES, seed=RING_SEED, fail_after=8
        )
        for i, (server, port) in enumerate(zip(backend_servers, backend_ports)):
            pool.add_server(server, port, name=f"backend{i}")

        program = tb.bind(L4LbProgram(vip))

        table_config = LookupTableConfig(
            entries=table_entries_for(connections + new_connections),
            packet_slot_bytes=256,
            cache_entries=cache_entries,
            layout="cuckoo",
            hash_seed=seed,
            policy="lru",
        )
        channel = tb.controller.open_channel(
            table_server,
            table_port,
            table_config.region_bytes,
            name="l4lb:connections",
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
        for i, (server, port) in enumerate(zip(backend_servers, backend_ports)):
            controller.add_backend(
                f"backend{i}",
                server.eth.ip,
                server.eth.mac,
                port,
                member=pool.member(f"backend{i}"),
            )
        healers = controller.enable_self_healing(
            policy_for=lambda member: BreakerPolicy(
                config=breaker_config(),
                rng=seeds.stream(f"breaker[{member.name}]"),
            ),
            give_up_probes=2,
        )

        # The corrupting table link, guarded from t=0.
        guard = LinkGuard(tb.server_links[0])
        wire = None
        if corrupt_rate > 0:
            plan = FaultPlan(seed=seed)
            wire = plan.on_link(tb.server_links[0], name="table-link")
            plan.at(0.0, wire, Corrupt(corrupt_rate))
            plan.install(tb.sim)

        deliveries: Dict[FiveTuple, Dict[str, int]] = {}
        for backend, server in zip(controller.backends.values(), backend_servers):
            _BackendSink(program, backend, server, deliveries)

        # -- traffic and the failure schedule -----------------------------------
        client, client2 = tb.hosts
        w1_count = max(1, int(packets * 0.6))
        w2_count = max(1, packets - w1_count)
        wave1 = _VipZipfTraffic(
            vip, tb.sim, client, client2, flows=connections, alpha=alpha,
            rate_pps=rate_pps, count=w1_count, seed=seeds.derive_seed("wave1"),
        )
        wave2 = _VipZipfTraffic(
            vip, tb.sim, client, client2, flows=connections, alpha=alpha,
            rate_pps=rate_pps, count=w2_count, seed=seeds.derive_seed("wave2"),
        )
        wave_new = _VipZipfTraffic(
            vip, tb.sim, client2, client, flows=new_connections, alpha=alpha,
            rate_pps=rate_pps, count=new_packets, seed=seeds.derive_seed("new"),
        )

        # Pre-admit the whole established population: this is the
        # ~``connections``-entry table the paper's external memory holds.
        for rank in range(connections):
            controller.admit(wave1.connection(rank))

        w1_duration = w1_count * (SEC / rate_pps)
        kill_at_ns = 0.5 * w1_duration
        drain_at_ns = w1_duration + usec(800)  # after the kill settles
        resume_at_ns = drain_at_ns + usec(500)

        victim_member = pool.member(kill_backend)
        victim_link = tb.server_links[
            1 + backend_servers.index(victim_member.server)
        ]

        def crash() -> None:
            victim_link.loss_probability = 1.0

        tb.sim.schedule_at(kill_at_ns, crash)
        tb.sim.schedule_at(drain_at_ns, controller.drain_backend, drain_backend)

        new_flows: List[FiveTuple] = []

        def admit_new() -> None:
            for rank in range(new_connections):
                flow = wave_new.connection(rank)
                if controller.admit(flow) is not None:
                    new_flows.append(flow)

        tb.sim.schedule_at(resume_at_ns, admit_new)
        wave1.start(0.0)
        wave2.start(resume_at_ns)
        wave_new.start(resume_at_ns)
        tb.sim.run()

        quiesce(tb.sim, store)

        # -- audits --------------------------------------------------------------
        expected = dict(program.expected_counts)
        recovered = {
            index: store.read_counter(index) for index in sorted(expected)
        }

    affinity_breaks = 0
    for flow, per_backend in deliveries.items():
        allowed = set(controller.assignment_history(flow))
        for name, count in per_backend.items():
            if name not in allowed:
                affinity_breaks += count
    # Every sanctioned migration originates at the kill or drain target
    # (a kill-migrated flow that hops again does so because its *new*
    # home is the drain target); any other source is the controller
    # moving a connection off a healthy backend.
    churned = {kill_backend, drain_backend}
    unsanctioned = sum(
        1 for record in controller.journal if record.source not in churned
    )

    delivered_by_backend: Dict[str, int] = {}
    for per_backend in deliveries.values():
        for name, count in per_backend.items():
            delivered_by_backend[name] = delivered_by_backend.get(name, 0) + count
    forwarded_by_backend = dict(program.forwarded_by_backend)
    victim_wire_loss = forwarded_by_backend.get(
        kill_backend, 0
    ) - delivered_by_backend.get(kill_backend, 0)
    other_wire_loss = sum(
        forwarded_by_backend.get(name, 0) - delivered_by_backend.get(name, 0)
        for name in controller.backends
        if name != kill_backend
    )

    new_placements: Dict[str, int] = {}
    new_on_inactive = 0
    active_names = {
        b.name for b in controller.backends.values() if b.state == BACKEND_ACTIVE
    }
    for flow in new_flows:
        name = controller.placement.get(flow, "?")
        new_placements[name] = new_placements.get(name, 0) + 1
        if name not in active_names:
            new_on_inactive += 1

    kill_times = [r.time_ns for r in controller.journal if r.reason == "kill"]
    victim_healer = healers[kill_backend]
    expected_total, recovered_total = sum(expected.values()), sum(recovered.values())
    record = {
        "l4lb_soak": {
            "seed": seed,
            "connections": connections,
            "new_connections": len(new_flows),
            "backends": backends,
            "table_entries": table_config.entries,
            "corrupt_rate": corrupt_rate,
            "packets_offered": w1_count + w2_count + new_packets,
            "duration_ms": tb.sim.now / 1e6,
            "vip_packets": program.vip_packets,
            "forwarded_packets": program.forwarded_packets,
            "delivered_total": sum(delivered_by_backend.values()),
            "expected_total": expected_total,
            "recovered_total": recovered_total,
            "lost_updates": expected_total - recovered_total,
            "all_counters_exact": expected == recovered,
            "affinity_breaks": affinity_breaks,
            "flows_delivered": len(deliveries),
            "connections_migrated": controller.stats.connections_migrated,
            "unsanctioned_migrations": unsanctioned,
            "killed_backend": kill_backend,
            "kill_detect_latency_ns": min(kill_times) - kill_at_ns if kill_times else None,
            "breaker_opens": victim_healer.breaker.opens,
            "reconnect_attempts": victim_healer.reconnects,
            "kill_escalations": controller.stats.kill_escalations,
            "members_failed": store.cluster_stats.members_failed,
            "victim_wire_loss": victim_wire_loss,
            "other_wire_loss": other_wire_loss,
            "drained_backend": drain_backend,
            "drains_completed": controller.stats.drains_completed,
            "drains_forced": controller.stats.drains_forced,
            "counters_repaired": store.cluster_stats.counters_repaired,
            "corrupted_frames": wire.effects.get("corrupted", 0) if wire is not None else 0,
            "masked_losses": guard.counts.get("masked_losses", 0),
            "lookups_lost": table.metrics["lookups_lost"],
            "new_on_inactive": new_on_inactive,
            "stale_cached": len(table.stale_cached()),
            "kill_detected": controller.stats.kills_detected >= 1
            and not pool.health.is_alive(kill_backend),
            "kill_at_ns": kill_at_ns,
            "drain_at_ns": drain_at_ns,
            "reconciliations": store.cluster_stats.reconciliations,
            "counters": len(expected),
        }
    }
    for slot in range(backends):
        name = f"backend{slot}"
        record[name] = {
            "fate": "killed" if name == kill_backend
            else "drained" if name == drain_backend
            else "active",
            "conns": recovered.get(2 * slot, 0),
            "bytes": recovered.get(2 * slot + 1, 0),
            "forwarded": forwarded_by_backend.get(name, 0),
            "delivered": delivered_by_backend.get(name, 0),
            "new_conns": new_placements.get(name, 0),
        }
    return record


def _checks(record) -> dict:
    soak = record["l4lb_soak"]
    return {
        "no lost counter update": soak["lost_updates"] == 0,
        "every counter exact": soak["all_counters_exact"],
        "no affinity break": soak["affinity_breaks"] == 0,
        "no migration off a healthy backend": soak["unsanctioned_migrations"] == 0,
        "no cached connection on a superseded backend": soak["stale_cached"] == 0,
        "the killed backend is declared dead": soak["kill_detected"],
        "the victim's breaker trips": soak["breaker_opens"] >= 1,
        "self-healing tries a reconnect": soak["reconnect_attempts"] >= 1,
        "the kill escalates to one failed member": soak["kill_escalations"] >= 1
        and soak["members_failed"] == 1,
        "the drain completes": soak["drains_completed"] == 1,
        "the drain quiesces, never forced": soak["drains_forced"] == 0,
        "the corruption fires and is masked": soak["corrupted_frames"] > 0
        and soak["masked_losses"] > 0,
        "no lookup lost": soak["lookups_lost"] == 0,
        "no loss on healthy backend links": soak["other_wire_loss"] == 0,
        "new connections land on active backends": soak["new_on_inactive"] == 0,
        "traffic delivered": soak["delivered_total"] > 0 and soak["flows_delivered"] > 0,
        "connections migrated": soak["connections_migrated"] > 0,
    }


EXPERIMENT = Experiment(
    name="l4lb", run=run_l4lb_soak, checks=_checks,
    quick=dict(connections=2_000, packets=4_000, new_connections=200, new_packets=600),
    full=dict(
        connections=100_000, packets=20_000, new_connections=2_000, new_packets=3_000
    ),
)
