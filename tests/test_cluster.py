"""Tests for the cluster subsystem: ring, health, pool, sharded primitives."""

import pytest

from repro.apps.programs import CountingProgram, RemoteLookupProgram
from repro.cluster.health import HealthMonitor
from repro.cluster.pool import MemoryPool
from repro.cluster.replicated_store import ReplicatedStateStore
from repro.cluster.ring import ConsistentHashRing, RingEmptyError
from repro.cluster.sharded_lookup import ShardedLookupTable
from repro.core.lookup_table import (
    ACTION_SET_DSCP,
    LookupTableConfig,
    RemoteAction,
)
from repro.core.rocegen import RoceRequestGenerator
from repro.core.state_store import ATOMIC_OPERAND_BYTES, StateStoreConfig
from repro.testbed import build_testbed
from repro.sim.units import kib
from repro.switches.hashing import FiveTuple
from repro.workloads.perftest import RawEthernetBw


# -- consistent-hash ring -----------------------------------------------------


class TestConsistentHashRing:
    def test_placement_deterministic_under_fixed_seed(self):
        a = ConsistentHashRing(vnodes=64, seed=7)
        b = ConsistentHashRing(vnodes=64, seed=7)
        for ring in (a, b):
            for name in ("s0", "s1", "s2", "s3"):
                ring.add(name)
        assert all(a.owner(k) == b.owner(k) for k in range(2000))
        assert all(a.replicas(k, 2) == b.replicas(k, 2) for k in range(500))

    def test_insertion_order_is_irrelevant(self):
        a = ConsistentHashRing(seed=3)
        b = ConsistentHashRing(seed=3)
        for name in ("s0", "s1", "s2"):
            a.add(name)
        for name in ("s2", "s0", "s1"):
            b.add(name)
        assert all(a.owner(k) == b.owner(k) for k in range(2000))

    def test_removal_moves_only_the_leavers_keys(self):
        ring = ConsistentHashRing(seed=1)
        for name in ("s0", "s1", "s2", "s3"):
            ring.add(name)
        before = {k: ring.owner(k) for k in range(4000)}
        ring.remove("s2")
        for key, owner in before.items():
            if owner == "s2":
                assert ring.owner(key) != "s2"
            else:
                assert ring.owner(key) == owner

    def test_replica_sets_are_distinct_members(self):
        ring = ConsistentHashRing(seed=1)
        for name in ("s0", "s1", "s2"):
            ring.add(name)
        for key in range(500):
            replicas = ring.replicas(key, 2)
            assert len(replicas) == 2
            assert len(set(replicas)) == 2

    def test_replicas_capped_at_member_count(self):
        ring = ConsistentHashRing(seed=1)
        ring.add("only")
        assert ring.replicas(0, 3) == ["only"]

    def test_empty_ring_raises(self):
        ring = ConsistentHashRing()
        with pytest.raises(RingEmptyError):
            ring.owner(1)

    def test_shares_roughly_balanced(self):
        ring = ConsistentHashRing(vnodes=128, seed=1)
        for name in ("s0", "s1", "s2", "s3"):
            ring.add(name)
        shares = ring.shares()
        assert abs(sum(shares.values()) - 1.0) < 1e-9
        # vnode smoothing: nobody owns more than ~35% of a 4-member ring.
        assert max(shares.values()) < 0.35


# -- health monitor -----------------------------------------------------------


class TestHealthMonitor:
    def test_consecutive_stalls_mark_down(self):
        monitor = HealthMonitor(fail_after=3)
        monitor.track("s0")
        downs = []
        monitor.on_member_down.append(downs.append)
        monitor.record("s0", "strike")
        monitor.record("s0", "timeout")
        assert monitor.is_alive("s0")
        monitor.record("s0", "strike")
        assert not monitor.is_alive("s0")
        assert downs == ["s0"]

    def test_progress_resets_the_stall_count(self):
        monitor = HealthMonitor(fail_after=2)
        monitor.track("s0")
        for _ in range(5):
            monitor.record("s0", "strike")
            monitor.record("s0", "progress")
        assert monitor.is_alive("s0")

    def test_naks_alone_never_mark_down(self):
        monitor = HealthMonitor(fail_after=2)
        monitor.track("s0")
        for _ in range(20):
            monitor.record("s0", "nak")
        assert monitor.is_alive("s0")
        assert monitor.snapshot()["s0"]["naks"] == 20

    def test_rocegen_events_feed_the_member_record(self):
        tb = build_testbed()
        channel = tb.controller.open_channel(
            tb.memory_server, tb.server_port, 4096
        )
        gen = RoceRequestGenerator(tb.switch, channel)
        monitor = HealthMonitor(fail_after=2)
        monitor.track("m")
        monitor.watch("m", gen)
        gen.record_strike()
        gen.record_timeout()
        assert not monitor.is_alive("m")
        assert monitor.snapshot()["m"]["strikes"] == 1
        assert monitor.snapshot()["m"]["timeouts"] == 1


# -- channel lifecycle (close -> reopen) --------------------------------------


class TestChannelLifecycle:
    def test_close_then_reopen_gets_fresh_qpn_and_rkey(self):
        tb = build_testbed()
        first = tb.controller.open_channel(
            tb.memory_server, tb.server_port, kib(4)
        )
        old = (first.switch_qp.qpn, first.server_qp.qpn, first.rkey)
        tb.controller.close_channel(first)
        assert not first.region.valid
        second = tb.controller.open_channel(
            tb.memory_server, tb.server_port, kib(4)
        )
        assert second.switch_qp.qpn != old[0]
        assert second.server_qp.qpn != old[1]
        assert second.rkey != old[2]

    def test_reopened_channel_carries_traffic(self):
        tb = build_testbed()
        tb.switch.bind_program(RemoteLookupProgram())
        first = tb.controller.open_channel(
            tb.memory_server, tb.server_port, kib(4)
        )
        tb.controller.close_channel(first)
        second = tb.controller.open_channel(
            tb.memory_server, tb.server_port, kib(4)
        )
        gen = RoceRequestGenerator(tb.switch, second)
        gen.write(second.base_address, b"after reopen")
        tb.sim.run()
        assert second.region.read(second.base_address, 12) == b"after reopen"

    def test_close_releases_the_dram_budget(self):
        tb = build_testbed()
        used = tb.memory_server.dram.registered_bytes
        channel = tb.controller.open_channel(
            tb.memory_server, tb.server_port, kib(64)
        )
        assert tb.memory_server.dram.registered_bytes == used + kib(64)
        tb.controller.close_channel(channel)
        assert tb.memory_server.dram.registered_bytes == used


# -- memory pool --------------------------------------------------------------


class Recorder:
    """PoolListener that records membership events."""

    def __init__(self):
        self.events = []

    def on_member_join(self, member):
        self.events.append(("join", member.name))

    def on_member_leave(self, member, graceful):
        self.events.append(("leave", member.name, graceful))


def build_pool(servers=3, hosts=2, seed=1, **pool_kwargs):
    tb = build_testbed(n_hosts=hosts, n_memory_servers=servers)
    pool = MemoryPool(tb.controller, seed=seed, **pool_kwargs)
    for server, port in zip(tb.memory_servers, tb.server_ports):
        pool.add_server(server, port)
    return tb, pool


class TestMemoryPool:
    def test_join_and_graceful_leave_fire_listeners(self):
        tb, pool = build_pool(servers=2)
        recorder = Recorder()
        pool.listeners.append(recorder)
        extra = pool.add_server(tb.memory_servers[0], tb.server_ports[0], name="x")
        pool.remove_server("x")
        assert recorder.events == [("join", "x"), ("leave", "x", True)]
        assert extra.name not in pool.members

    def test_graceful_leave_closes_channels(self):
        tb, pool = build_pool(servers=2)
        member = pool.member("memserver0")
        channel = pool.open_channel(member, kib(4))
        assert channel in tb.controller.channels
        pool.remove_server("memserver0")
        assert channel not in tb.controller.channels
        assert not channel.region.valid

    def test_failure_abandons_channels_without_closing(self):
        tb, pool = build_pool(servers=2)
        member = pool.member("memserver0")
        channel = pool.open_channel(member, kib(4))
        pool.fail_server("memserver0")
        assert not member.alive
        assert "memserver0" not in pool.ring
        # No control-plane path to a dead server: the channel is
        # abandoned in place, not torn down.
        assert channel in tb.controller.channels

    def test_drain_hold_defers_channel_close(self):
        tb, pool = build_pool(servers=2)

        class Holder(Recorder):
            def __init__(self, pool):
                super().__init__()
                self.pool = pool

            def on_member_leave(self, member, graceful):
                super().on_member_leave(member, graceful)
                self.pool.hold_for_drain(member)

        holder = Holder(pool)
        pool.listeners.append(holder)
        member = pool.member("memserver0")
        channel = pool.open_channel(member, kib(4))
        pool.remove_server("memserver0")
        assert channel in tb.controller.channels  # held open for the drain
        pool.release_drain(member)
        assert channel not in tb.controller.channels

    def test_unbalanced_release_drain_warns_and_clamps(self):
        # Regression: an extra release used to drive drain_holds negative,
        # making the *next* hold_for_drain silently ineffective — a leave
        # could then close channels under a listener still draining.
        tb, pool = build_pool(servers=2)
        member = pool.member("memserver0")
        with pytest.warns(RuntimeWarning, match="without a matching"):
            pool.release_drain(member)
        assert member.drain_holds == 0
        # A later, balanced hold still defers the close — and the
        # matching release still performs it.
        channel = pool.open_channel(member, kib(4))
        pool.hold_for_drain(member)
        pool.remove_server("memserver0")
        assert channel in tb.controller.channels
        pool.release_drain(member)
        assert channel not in tb.controller.channels

    def test_failing_an_unknown_member_raises_and_tracks_no_phantom(self):
        # Regression: fail_server("nosuch") returned silently, and the
        # monitor's mark_down tracked a phantom "nosuch" member (health
        # record and registry counters) as a side effect.
        tb, pool = build_pool(servers=2)
        health, metrics = pool.health.snapshot(), len(tb.sim.obs.registry)
        with pytest.raises(KeyError, match="nosuch"):
            pool.fail_server("nosuch")
        assert (pool.health.snapshot(), len(tb.sim.obs.registry)) == (health, metrics)

    def test_placement_skips_dead_members(self):
        tb, pool = build_pool(servers=3)
        pool.fail_server("memserver1")
        for key in range(500):
            assert pool.member_for(key).name != "memserver1"
            for replica in pool.replicas_for(key, 2):
                assert replica.name != "memserver1"

    def test_watched_channel_stalls_take_the_member_down(self):
        tb, pool = build_pool(servers=2, fail_after=2)
        member = pool.member("memserver0")
        channel = pool.open_channel(member, kib(4))
        gen = RoceRequestGenerator(tb.switch, channel)
        pool.watch(member, gen)
        gen.record_strike()
        gen.record_strike()
        assert not member.alive
        assert "memserver0" not in pool.ring
        assert pool.member("memserver1").alive


# -- sharded lookup table -----------------------------------------------------


def lookup_flow(src, dst, src_port):
    return FiveTuple(
        src_ip=src.eth.ip.value,
        dst_ip=dst.eth.ip.value,
        protocol=17,
        src_port=src_port,
        dst_port=20_000,
    )


def build_sharded_lookup(servers=2, flows=24, entries=1 << 12, default_action=None):
    tb = build_testbed(n_hosts=2, n_memory_servers=servers)
    pool = MemoryPool(tb.controller, seed=1)
    for server, port in zip(tb.memory_servers, tb.server_ports):
        pool.add_server(server, port)
    program = RemoteLookupProgram()
    for host, port in zip(tb.hosts, tb.host_ports):
        program.install(host.eth.mac, port)
    tb.switch.bind_program(program)
    table = ShardedLookupTable(
        tb.switch,
        pool,
        config=LookupTableConfig(entries=entries, cache_entries=0),
        default_action=default_action,
    )
    program.use_lookup_table(table)
    installed = []
    for f in range(flows):
        flow = lookup_flow(tb.hosts[0], tb.hosts[1], 10_000 + f)
        table.install(flow, RemoteAction(ACTION_SET_DSCP, 46))
        installed.append(flow)
    return tb, pool, table, installed


def blast_lookups(tb, count, flows):
    def stamp(packet, seq):
        from repro.net.headers import UdpHeader

        packet.require(UdpHeader).src_port = 10_000 + (seq % flows)

    sender = RawEthernetBw(
        tb.sim,
        tb.hosts[0],
        tb.hosts[1],
        packet_size=64,
        rate_bps=2e9,
        count=count,
        dst_port=20_000,
        stamp=stamp,
    )
    sender.start()


class TestShardedLookupTable:
    def test_shards_cover_multiple_members(self):
        tb, pool, table, installed = build_sharded_lookup(servers=3)
        owners = {pool.member_for(flow.hash()).name for flow in installed}
        assert len(owners) > 1
        assert set(table.shards) == {m.name for m in pool.alive_members}

    def test_lookups_complete_across_all_shards(self):
        tb, pool, table, installed = build_sharded_lookup(servers=3)
        blast_lookups(tb, count=120, flows=len(installed))
        tb.sim.run()
        assert (table.total("remote_lookups"), table.total("remote_hits")) == (120, 120)
        assert table.lookups_lost == 0
        # The load genuinely spread: more than one server saw requests.
        busy = [s for s in tb.memory_servers if s.rnic.metrics["requests_received"] > 0]
        assert len(busy) > 1

    def test_join_migrates_only_moved_flows(self):
        tb, pool, table, installed = build_sharded_lookup(servers=3)
        # Enroll only 2 of 3 servers up front; the third joins later.
        tb2, pool2 = build_pool(servers=3)  # fresh rig for before/after
        before = {f: pool2.member_for(f.hash()).name for f in installed}

        # Same thing on the live rig: drop to 2 members, then re-join.
        pool.remove_server("memserver2")
        migrated_at_leave = table.cluster_stats.flows_migrated
        placement_2 = {
            f: pool.member_for(f.hash()).name for f in installed
        }
        joined = pool.add_server(
            tb.memory_servers[2], tb.server_ports[2], name="memserver2"
        )
        placement_3 = {
            f: pool.member_for(f.hash()).name for f in installed
        }
        moved = [
            f for f in installed if placement_2[f] != placement_3[f]
        ]
        # Ring minimal movement: exactly the flows that moved to the
        # joiner were re-installed, and they all landed on the joiner.
        assert all(placement_3[f] == "memserver2" for f in moved)
        assert (
            table.cluster_stats.flows_migrated - migrated_at_leave
            == len(moved)
        )
        # Deterministic ring: back at 3 members, placement matches the
        # fresh 3-member pool exactly.
        assert placement_3 == before

    def test_graceful_leave_drains_inflight_lookups(self):
        tb, pool, table, installed = build_sharded_lookup(servers=2)
        blast_lookups(tb, count=80, flows=len(installed))

        def leave():
            pool.remove_server("memserver1")

        tb.sim.schedule_at(2_000.0, leave)
        tb.sim.run()
        assert (table.total("remote_hits"), table.lookups_lost) == (80, 0)
        assert table.cluster_stats.drains_completed == 1
        assert len(table.shards) == 1
        # The leaver's channels closed once the drain finished.
        assert all(
            ch.server is not tb.memory_servers[1]
            for ch in tb.controller.channels
        )

    def test_member_death_counts_inflight_as_lost(self):
        tb, pool, table, installed = build_sharded_lookup(servers=2)
        blast_lookups(tb, count=60, flows=len(installed))

        def die():
            pool.fail_server("memserver1")

        tb.sim.schedule_at(2_000.0, die)
        tb.sim.run()
        assert table.cluster_stats.members_failed == 1
        hits_before, lost_before = table.total("remote_hits"), table.lookups_lost
        assert hits_before + lost_before == 60
        # Flows re-homed onto the survivor keep resolving.
        blast_lookups(tb, count=40, flows=len(installed))
        tb.sim.run()
        assert table.total("remote_hits") >= hits_before + 40 - lost_before

    def test_default_action_lookups_on_an_empty_pool_are_not_lost(self):
        # Regression: the shard aggregate added lookups_unplaced into
        # lookups_lost, though the default action forwarded every packet.
        tb, pool, table, installed = build_sharded_lookup(
            servers=1, default_action=RemoteAction(ACTION_SET_DSCP, 0)
        )
        pool.fail_server("memserver")
        blast_lookups(tb, count=50, flows=len(installed))
        tb.sim.run()
        assert (tb.switch.stats.tx_packets, tb.switch.stats.dropped_by_program) == (50, 0)
        assert (table.cluster_stats.lookups_unplaced, table.lookups_lost) == (50, 0)


# -- replicated state store ---------------------------------------------------


def build_replicated_store(servers=3, replication=2, counters=1 << 10):
    tb = build_testbed(n_hosts=2, n_memory_servers=servers)
    pool = MemoryPool(tb.controller, seed=1)
    for server, port in zip(tb.memory_servers, tb.server_ports):
        pool.add_server(server, port)
    program = CountingProgram()
    for host, port in zip(tb.hosts, tb.host_ports):
        program.install(host.eth.mac, port)
    tb.switch.bind_program(program)
    store = ReplicatedStateStore(
        tb.switch,
        pool,
        config=StateStoreConfig(
            counters=counters, reliable=True, retry_timeout_ns=50_000.0
        ),
        replication=replication,
    )
    program.use_state_store(store)
    return tb, pool, store


class TestReplicatedStateStore:
    def test_every_replica_holds_the_counter(self):
        tb, pool, store = build_replicated_store()
        store.update(7, 5)
        store.update(7, 3)
        store.flush_all()
        tb.sim.run()
        replicas = store.replica_stores(7)
        assert len(replicas) == 2
        for replica in replicas:
            assert replica.read_counter_via_control_plane(7) == 8
        assert store.read_counter(7) == 8

    def test_reconcile_repairs_a_behind_replica(self):
        tb, pool, store = build_replicated_store()
        store.update(9, 10)
        store.flush_all()
        tb.sim.run()
        behind = store.replica_stores(9)[1]
        behind.channel.region.write(
            behind.counter_address(9),
            (3).to_bytes(ATOMIC_OPERAND_BYTES, "big"),
        )
        repaired = store.reconcile()
        assert repaired == 1
        assert behind.read_counter_via_control_plane(9) == 10

    def test_reconcile_does_not_double_count_unlanded_deltas(self):
        # Regression: a failover reconcile runs under live load.  A delta
        # that already landed on the replica supplying the authoritative
        # max but is still un-landed on the repair target used to be
        # counted twice — once inside the absolute value written by the
        # repair, once when the target's own Fetch-and-Add landed on top.
        tb, pool, store = build_replicated_store()
        store.update(5, 7)
        store.flush_all()
        tb.sim.run()
        ahead, behind = store.replica_stores(5)
        # The delta lands on one replica...
        ahead.update(5, 3)
        ahead.flush_all()
        tb.sim.run()
        # ...and sits switch-side (un-landed) on the other.
        behind.update(5, 3)
        assert behind.unlanded_value(5) == 3
        store.reconcile()
        # The repair must NOT lift the target to the full max: its own
        # delta is still coming.
        assert behind.read_counter_via_control_plane(5) == 7
        behind.flush_all()
        tb.sim.run()
        assert behind.read_counter_via_control_plane(5) == 10
        assert store.read_counter(5) == 10
        # A quiesced reconcile afterwards finds nothing left to repair.
        assert store.reconcile() == 0

    def test_replica_death_loses_nothing(self):
        tb, pool, store = build_replicated_store()
        for i in range(20):
            store.update(i, 2)
        store.flush_all()
        tb.sim.run()
        victim = pool.replicas_for(0, 2)[0]
        pool.fail_server(victim.name)
        assert store.cluster_stats.members_failed == 1
        for i in range(20):
            assert store.read_counter(i) == 2

    def test_join_reconciles_the_new_member(self):
        tb, pool, store = build_replicated_store(servers=2)
        for i in range(30):
            store.update(i, 4)
        store.flush_all()
        tb.sim.run()
        pool.add_server(tb.memory_servers[0], tb.server_ports[0], name="late")
        # Wherever "late" now hosts a touched counter, it holds the value.
        late = store.stores["late"]
        hosted = [
            i for i in range(30)
            if any(m.name == "late" for m in pool.replicas_for(i, 2))
        ]
        assert hosted, "ring should hand the joiner some arcs"
        for i in hosted:
            assert late.read_counter_via_control_plane(i) == 4
