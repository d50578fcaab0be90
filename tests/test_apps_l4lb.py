"""L4 load balancer: placement, migration journal, drain, kill absorption.

The contract under test (DESIGN.md §15): an established connection only
ever reaches backends its journal sanctions; a graceful drain hands off
counter state before the leaver's channels close; a hard kill is
absorbed by the §11 self-healing stack (breaker → probes → escalation)
without losing a single counter update.
"""

import re
from dataclasses import replace

import pytest

from repro.analysis.reporting import format_record
from repro.apps.l4lb import (
    BACKEND_DEAD,
    BACKEND_DRAINING,
    BACKEND_RETIRED,
    L4LbController,
    L4LbProgram,
)
from repro.cluster.pool import MemoryPool
from repro.cluster.replicated_store import ReplicatedStateStore
from repro.core.lookup_table import LookupTableConfig, RemoteLookupTable
from repro.core.state_store import StateStoreConfig
from repro.experiments.l4lb import EXPERIMENT, run_l4lb_soak, table_entries_for
from repro.testbed import build_testbed
from repro.net.headers import Ipv4Header
from repro.policies.breaker import BreakerPolicy
from repro.resilience.breaker import CircuitBreakerConfig
from repro.sim.rng import SeedSequence
from repro.sim.units import usec
from repro.switches.hashing import FiveTuple
from repro.workloads.factory import udp_between

VIP = "10.9.9.9"


def breaker_config(**overrides):
    kwargs = dict(
        fail_threshold=3,
        close_threshold=1,
        open_timeout_ns=usec(100),
        probe_timeout_ns=usec(60),
        probe_jitter_ns=usec(10),
        backoff=2.0,
    )
    kwargs.update(overrides)
    return CircuitBreakerConfig(**kwargs)


def build_l4lb(backends=3, seed=7):
    """Small soak-shaped world: table on memserver0, backends on the rest."""
    tb = build_testbed(n_hosts=2, n_memory_servers=backends + 1, seed=seed)
    pool = MemoryPool(tb.controller, seed=1, fail_after=8)
    backend_servers = tb.memory_servers[1:]
    backend_ports = tb.server_ports[1:]
    for i, (server, port) in enumerate(zip(backend_servers, backend_ports)):
        pool.add_server(server, port, name=f"backend{i}")
    program = L4LbProgram(VIP)
    for host, port in zip(tb.hosts, tb.host_ports):
        program.install(host.eth.mac, port)
    tb.switch.bind_program(program)
    config = LookupTableConfig(
        entries=1 << 12,
        cache_entries=256,
        layout="cuckoo",
        hash_seed=seed,
        policy="lru",
    )
    channel = tb.controller.open_channel(
        tb.memory_servers[0], tb.server_ports[0], config.region_bytes,
        name="l4lb:connections",
    )
    table = RemoteLookupTable(tb.switch, channel, config=config)
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
            f"backend{i}", server.eth.ip, server.eth.mac, port,
            member=pool.member(f"backend{i}"),
        )
    return tb, pool, program, table, store, controller


def vip_flow(tb, i):
    from repro.net.addresses import Ipv4Address

    return FiveTuple(
        src_ip=tb.hosts[0].eth.ip.value,
        dst_ip=Ipv4Address(VIP).value,
        protocol=17,
        src_port=10_000 + i,
        dst_port=20_000,
    )


class TestPlacementAndAdmission:
    def test_place_is_deterministic_over_active_backends(self):
        tb, pool, program, table, store, controller = build_l4lb()
        flow = vip_flow(tb, 0)
        first = controller.place(flow)
        assert first is not None
        assert all(controller.place(flow) is first for _ in range(5))
        # Taking the chosen backend out of the active set re-points the
        # placement — and only then.
        first.state = BACKEND_DRAINING
        moved = controller.place(flow)
        assert moved is not None and moved is not first

    def test_admit_is_idempotent_and_installs_once(self):
        tb, pool, program, table, store, controller = build_l4lb()
        flow = vip_flow(tb, 1)
        backend = controller.admit(flow)
        again = controller.admit(flow)
        assert again is backend
        assert controller.stats.connections_admitted == 1
        assert controller.placement[flow] == backend.name
        assert flow in controller.flows_by_backend[backend.name]

    def test_admit_with_no_active_backend_returns_none(self):
        tb, pool, program, table, store, controller = build_l4lb()
        for backend in controller.backends.values():
            backend.state = BACKEND_RETIRED
        assert controller.admit(vip_flow(tb, 2)) is None
        assert controller.stats.connections_admitted == 0

    def test_admissions_past_capacity_inside_the_sim_are_refused(self):
        """Admitting more connections than the 4 096-slot table holds, from
        an event, refuses the overflow: ``CuckooFullError`` never escapes
        ``sim.run()``, and a refused connection leaves no trace."""
        tb, pool, program, table, store, controller = build_l4lb()
        flows = [vip_flow(tb, i) for i in range(4_596)]
        admitted = []

        def admit_all():
            admitted.extend(controller.admit(flow) for flow in flows)

        tb.sim.schedule(0.0, admit_all)
        tb.sim.run()
        refused = [flow for flow, backend in zip(flows, admitted) if backend is None]
        stats = controller.stats
        assert len(admitted) == len(flows) and refused
        assert stats.connections_refused == len(refused)
        assert stats.connections_admitted == len(flows) - len(refused)
        assert stats.connections_admitted == len(table.directory) == len(controller.placement)
        assert all(flow not in controller.placement for flow in refused)
        assert all(flow not in table.directory for flow in refused)
        assert table.directory.check_invariant() == []

    def test_add_backend_rejects_duplicates_and_counter_overflow(self):
        tb, pool, program, table, store, controller = build_l4lb(backends=3)
        with pytest.raises(ValueError, match="already registered"):
            controller.add_backend(
                "backend0", "10.1.0.9", 0x99, 9
            )
        # The store has 2*3 counters: a fourth backend's slots don't fit.
        with pytest.raises(ValueError, match="counters"):
            controller.add_backend("backend3", "10.1.0.10", 0x9A, 10)

    def test_add_backend_refuses_a_pip_already_registered(self):
        # The data plane maps a PIP to one backend: registering a second
        # one would hand it the first one's connections.
        tb, pool, program, table, store, controller = build_l4lb(backends=3)
        backend0 = controller.backends["backend0"]
        owners = dict(program.backends_by_pip)
        second = L4LbController(program, table, store, pool, seed=1)
        with pytest.raises(ValueError, match="already registered"):
            second.add_backend("spare", str(backend0.pip), 0x9B, 11)
        spare = second.add_backend("spare", "10.1.0.11", 0x9B, 11)
        with pytest.raises(ValueError, match="already registered"):
            second.add_backend("twin", "10.1.0.11", 0x9C, 12)
        assert program.backends_by_pip[backend0.pip] is backend0
        assert program.backends_by_pip[spare.pip] is spare
        assert program.backends_by_pip == {**owners, spare.pip: spare}
        assert list(second.backends) == ["spare"] and list(second.flows_by_backend) == ["spare"]

    def test_connection_key_translates_pip_back_to_vip(self):
        tb, pool, program, table, store, controller = build_l4lb()
        backend = controller.backends["backend0"]
        packet = udp_between(
            tb.hosts[0], tb.hosts[1], 128, src_port=10_000, dst_port=20_000
        )
        packet.require(Ipv4Header).dst = program.vip
        pre = program.connection_key(packet)
        assert pre.dst_ip == program.vip.value
        # Post-translation (dst rewritten to the PIP) the identity is
        # still the VIP 5-tuple.
        packet.require(Ipv4Header).dst = backend.pip
        assert program.connection_key(packet) == pre


class TestMigration:
    def test_migrate_journals_and_keeps_history(self):
        tb, pool, program, table, store, controller = build_l4lb()
        flow = vip_flow(tb, 3)
        source = controller.admit(flow)
        assert controller.assignment_history(flow) == [source.name]
        target = next(
            b for b in controller.backends.values() if b is not source
        )
        controller.migrate(flow, target, reason="drain")
        assert controller.placement[flow] == target.name
        assert controller.assignment_history(flow) == [
            source.name, target.name
        ]
        assert flow not in controller.flows_by_backend[source.name]
        assert flow in controller.flows_by_backend[target.name]
        record = controller.journal[-1]
        assert (record.flow, record.source, record.target, record.reason) == (
            flow, source.name, target.name, "drain"
        )
        assert controller.stats.connections_migrated == 1

    def test_migrate_refreshes_the_sram_cached_entry(self):
        tb, pool, program, table, store, controller = build_l4lb()
        flow = vip_flow(tb, 4)
        source = controller.admit(flow)
        cache = table.cache
        cache.admit(flow, source.action)
        target = next(
            b for b in controller.backends.values() if b is not source
        )
        controller.migrate(flow, target, reason="drain")
        assert cache.lookup(flow) == target.action


class TestGracefulDrain:
    def test_drain_retires_backend_and_hands_off(self):
        tb, pool, program, table, store, controller = build_l4lb()
        flows = [vip_flow(tb, i) for i in range(24)]
        for flow in flows:
            controller.admit(flow)
        victim = "backend1"
        moved = set(controller.flows_by_backend[victim])
        assert moved, "seed should place some flows on the drain target"
        member = pool.member(victim)
        backend = controller.drain_backend(victim)
        assert backend.state == BACKEND_RETIRED
        assert controller.stats.drains_started == 1
        assert controller.stats.drains_completed == 1
        assert controller.stats.drains_forced == 0
        # The member left gracefully, the hold is balanced out, and the
        # replica store was retired.
        assert victim not in pool.members
        assert member.drain_holds == 0
        assert victim not in store.stores
        assert store.cluster_stats.members_left == 1
        # Every moved connection re-pointed with a journaled drain record.
        for flow in moved:
            assert controller.placement[flow] != victim
            history = controller.assignment_history(flow)
            assert history[0] == victim and len(history) >= 2
        assert all(r.reason == "drain" for r in controller.journal)
        assert not controller.flows_by_backend[victim]

    def test_drain_rejects_non_active_backend(self):
        tb, pool, program, table, store, controller = build_l4lb()
        controller.drain_backend("backend0")
        with pytest.raises(ValueError, match="not active"):
            controller.drain_backend("backend0")


class TestKillAbsorption:
    def test_kill_is_detected_escalated_and_counters_survive(self):
        tb, pool, program, table, store, controller = build_l4lb()
        seeds = SeedSequence(7)
        healers = controller.enable_self_healing(
            policy_for=lambda member: BreakerPolicy(
                config=breaker_config(),
                rng=seeds.stream(f"breaker[{member.name}]"),
            ),
            give_up_probes=2,
        )
        flows = [vip_flow(tb, i) for i in range(24)]
        for flow in flows:
            controller.admit(flow)
        victim = "backend0"
        on_victim = set(controller.flows_by_backend[victim])
        assert on_victim, "seed should place some flows on the kill target"
        expected = {}
        for index in range(store.config.counters):
            store.update(index, 5)
            expected[index] = 5
        store.flush_all()
        tb.sim.run()
        # Dark link: every frame to/from the victim's server vanishes.
        tb.server_links[1].loss_probability = 1.0
        for index in range(store.config.counters):
            store.update(index, 3)
            expected[index] += 3
        store.flush_all()
        tb.sim.run()
        for _ in range(16):
            if store.pending_value == 0 and store.outstanding == 0:
                break
            store.flush_all()
            tb.sim.run()

        healer = healers[victim]
        assert healer.breaker.opens >= 1
        assert healer.reconnects >= 1
        assert healer.breaker.disarmed  # stood down, not probing forever
        assert controller.stats.kill_escalations >= 1
        assert controller.stats.kills_detected == 1
        assert not pool.health.is_alive(victim)
        assert controller.backends[victim].state == BACKEND_DEAD
        assert store.cluster_stats.members_failed == 1
        # K=2 replication: the surviving replica holds every update.
        for index, value in expected.items():
            assert store.read_counter(index) == value
        for flow in on_victim:
            assert controller.placement[flow] != victim
        assert any(r.reason == "kill" for r in controller.journal)


class TestSoakReducedScale:
    def test_soak_acceptance_bar_holds_at_reduced_scale(self):
        result = run_l4lb_soak(
            connections=1_500,
            packets=3_000,
            new_connections=150,
            new_packets=400,
            backends=3,
            corrupt_rate=3e-3,
            cache_entries=512,
        )
        assert EXPERIMENT.failures(result) == []
        soak = result["l4lb_soak"]
        assert soak["table_entries"] == table_entries_for(1_650)
        text = format_record(result)
        assert re.search(r"^  expected_total +(\d+)\n  recovered_total +\1$", text, re.M)
        assert re.search(r"^  lost_updates +0$", text, re.M)
        assert soak["lost_updates"] == 0
        assert soak["affinity_breaks"] == 0
        assert soak["all_counters_exact"] is True
