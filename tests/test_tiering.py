"""Tiered remote memory: geometry, pool, policy tick, degraded modes, chaos.

The invariants under test (DESIGN.md §13):

* block moves are control-plane copies — bytes survive a promote/demote
  round trip, and busy blocks (in-flight RDMA) never move;
* the fast tier is *bounded*: reservations can never exceed
  ``fast_capacity_bytes`` and the ``tiering.tier[fast].occupancy_peak``
  gauge proves occupancy never did either;
* degraded mode demotes, not drops — a graceful fast-tier loss writes
  every block back before the channels close, and the reliable store
  loses zero counter updates even when a blackout lands mid-promotion
  (the chaos test, with K=2 replication repairing the dead-member case).
"""

import pytest

from repro.apps.programs import CountingProgram
from repro.cluster.replicated_store import ReplicatedStateStore
from repro.core.state_store import (
    ATOMIC_OPERAND_BYTES,
    RemoteStateStore,
    StateStoreConfig,
)
from repro.testbed import build_testbed
from repro.faults.injectors import RnicBlackout
from repro.faults.plan import FaultPlan
from repro.obs import Observability
from repro.obs.trace import WireTrace
from repro.obs.trace import KIND_TIER_MOVE
from repro.rdma.memory import TIER_DRAM, TIER_FAST
from repro.sim.units import kib, usec
from repro.tiering.pool import DEFAULT_TICK_NS, TieredMemoryPool


def build_tiered(
    servers=1,
    fast_capacity_bytes=kib(1),
    policy="frequency",
    tick_ns=10_000.0,
    **pool_kwargs,
):
    tb = build_testbed(n_hosts=2, n_memory_servers=servers)
    program = CountingProgram()
    for host, port in zip(tb.hosts, tb.host_ports):
        program.install(host.eth.mac, port)
    tb.switch.bind_program(program)
    pool = TieredMemoryPool(
        tb.controller,
        policy=policy,
        fast_capacity_bytes=fast_capacity_bytes,
        tick_ns=tick_ns,
        seed=1,
        **pool_kwargs,
    )
    for server, port in zip(tb.memory_servers, tb.server_ports):
        pool.add_server(server, port)
    return tb, pool


def tier_counters(pool, name="counters", units=256, units_per_block=16, **kw):
    return pool.tier_object(
        name, ATOMIC_OPERAND_BYTES, units, units_per_block=units_per_block, **kw
    )


# -- geometry: block moves are faithful control-plane copies -------------------


class TestGeometry:
    def test_resolve_follows_promotion_and_demotion(self):
        tb, pool = build_tiered()
        geometry = tier_counters(pool, fast_blocks=2)
        unit = 5
        tier, dram_va = geometry.resolve(unit)
        assert tier == TIER_DRAM
        payload = (1234).to_bytes(ATOMIC_OPERAND_BYTES, "big")
        geometry.dram_channel.region.write(dram_va, payload)

        assert geometry.promote(geometry.block_of(unit))
        tier, fast_va = geometry.resolve(unit)
        assert tier == TIER_FAST and fast_va != dram_va
        assert (
            geometry.fast_channel.region.read(fast_va, ATOMIC_OPERAND_BYTES)
            == payload
        )

        # Mutate the fast copy; demotion must write it back home.
        bumped = (5678).to_bytes(ATOMIC_OPERAND_BYTES, "big")
        geometry.fast_channel.region.write(fast_va, bumped)
        assert geometry.demote(geometry.block_of(unit))
        tier, va = geometry.resolve(unit)
        assert tier == TIER_DRAM and va == dram_va
        assert (
            geometry.dram_channel.region.read(va, ATOMIC_OPERAND_BYTES)
            == bumped
        )
        assert geometry.promotions == 1 and geometry.demotions == 1

    def test_busy_blocks_refuse_to_move(self):
        tb, pool = build_tiered()
        geometry = tier_counters(pool, fast_blocks=2)
        geometry.busy_check = lambda block: block == 0
        assert not geometry.promote(0)
        geometry.busy_check = None
        assert geometry.promote(0)
        geometry.busy_check = lambda block: block == 0
        assert not geometry.demote(0)
        # force= is the degrade path: the primitive has already suspended
        # its in-flight ops, so the copy is safe.
        assert geometry.demote(0, force=True)

    def test_pins_are_honoured(self):
        tb, pool = build_tiered()
        geometry = tier_counters(pool, fast_blocks=2)
        geometry.pin(0, TIER_DRAM)
        assert not geometry.promote(0)
        geometry.pin(1, TIER_FAST)
        assert geometry.promote(1)
        assert not geometry.demote(1)
        assert geometry.demote(1, force=True)

    def test_fast_window_is_bounded_slots(self):
        tb, pool = build_tiered()
        geometry = tier_counters(pool, fast_blocks=2)
        assert geometry.promote(0) and geometry.promote(1)
        assert not geometry.promote(2)  # window full
        assert geometry.fast_used == 2
        assert geometry.demote(0)
        assert geometry.promote(2)  # freed slot is reusable

    def test_access_counts_are_sparse_and_drain(self):
        tb, pool = build_tiered()
        geometry = tier_counters(pool, units=1 << 10, fast_blocks=2)
        geometry.record_access(3, TIER_DRAM)
        geometry.record_access(3, TIER_DRAM)
        geometry.record_access(900, TIER_DRAM)
        counts = geometry.drain_access_counts()
        assert counts == {geometry.block_of(3): 2, geometry.block_of(900): 1}
        assert geometry.drain_access_counts() == {}

    def test_abandon_remaps_without_copy_and_counts(self):
        tb, pool = build_tiered()
        geometry = tier_counters(pool, fast_blocks=2)
        unit = 0
        _, dram_va = geometry.resolve(unit)
        geometry.promote(0)
        _, fast_va = geometry.resolve(unit)
        lost = (999).to_bytes(ATOMIC_OPERAND_BYTES, "big")
        geometry.fast_channel.region.write(fast_va, lost)
        assert geometry.abandon_fast() == 1
        assert geometry.abandoned == 1 and geometry.fast_used == 0
        # No write-back happened: the DRAM home still holds the old bytes.
        assert geometry.dram_channel.region.read(
            dram_va, ATOMIC_OPERAND_BYTES
        ) != lost


# -- the pool: budget, wiring, tick ---------------------------------------------


class TestTieredMemoryPool:
    def test_fast_budget_is_enforced_at_reservation(self):
        tb, pool = build_tiered(fast_capacity_bytes=256)
        # One 128 B block fits; asking for four does not.
        with pytest.raises(ValueError, match="fast budget"):
            tier_counters(pool, fast_blocks=4)
        geometry = tier_counters(pool, fast_blocks=2)
        assert pool.fast_free_bytes == 0
        with pytest.raises(ValueError):
            tier_counters(pool, name="second", fast_blocks=1)
        assert geometry.fast_capacity == 2

    def test_duplicate_object_names_rejected(self):
        tb, pool = build_tiered()
        tier_counters(pool, fast_blocks=1)
        with pytest.raises(ValueError, match="already tiered"):
            tier_counters(pool, fast_blocks=1)

    def test_tick_promotes_hot_blocks_within_policy_bounds(self):
        tb, pool = build_tiered(policy="frequency")
        geometry = tier_counters(pool, fast_blocks=2)
        # Block 0 is hot, block 3 is cold.
        for _ in range(10):
            geometry.record_access(0, TIER_DRAM)
        geometry.record_access(3 * 16, TIER_DRAM)
        pool.tick()
        assert geometry.tier_of_block(0) == TIER_FAST
        assert geometry.tier_of_block(3) == TIER_DRAM
        assert pool.metrics["tier[fast].promotions"] == 1
        assert pool.metrics["ticks"] == 1

    def test_tick_is_self_arming_and_simulation_terminates(self):
        tb, pool = build_tiered(tick_ns=5_000.0)
        geometry = tier_counters(pool, fast_blocks=2)
        for _ in range(10):
            geometry.record_access(0, TIER_DRAM)
        # record_access armed the tick; run to quiescence — this would
        # hang forever if the tick re-armed unconditionally.
        tb.sim.run()
        assert geometry.tier_of_block(0) == TIER_FAST
        assert tb.sim.now >= 5_000.0

    def test_graceful_leave_demotes_not_drops(self):
        tb, pool = build_tiered(servers=2)
        member = pool.members["memserver0"]
        geometry = tier_counters(pool, member=member, fast_blocks=2)
        unit = 0
        _, dram_va = geometry.resolve(unit)
        geometry.promote(0)
        _, fast_va = geometry.resolve(unit)
        payload = (77).to_bytes(ATOMIC_OPERAND_BYTES, "big")
        geometry.fast_channel.region.write(fast_va, payload)

        written_back = []

        class Snoop:
            def on_member_join(self, member):
                pass

            def on_member_leave(self, member, graceful):
                # Runs after the pool's own handler (appended later), but
                # before the channels close: the write-back must already
                # be visible at the DRAM home.
                written_back.append(
                    geometry.dram_channel.region.read(
                        dram_va, ATOMIC_OPERAND_BYTES
                    )
                )

        pool.listeners.append(Snoop())
        pool.remove_server("memserver0")
        assert geometry.fast_used == 0 and geometry.abandoned == 0
        assert geometry.demotions == 1 and not geometry.fast_enabled
        assert written_back == [payload]

    def test_dead_member_abandons_and_counts(self):
        tb, pool = build_tiered(servers=2)
        member = pool.members["memserver0"]
        geometry = tier_counters(pool, member=member, fast_blocks=2)
        geometry.promote(0)
        pool.fail_server("memserver0")
        assert geometry.fast_used == 0 and geometry.abandoned == 1
        assert not geometry.fast_enabled
        assert pool.metrics["blocks_abandoned"] == 1

    def test_dedicated_fast_member_hosts_the_window(self):
        tb = build_testbed(n_hosts=2, n_memory_servers=2)
        pool = TieredMemoryPool(
            tb.controller, fast_capacity_bytes=kib(1), seed=1
        )
        dram = pool.add_server(tb.memory_servers[0], tb.server_ports[0])
        fast = pool.add_server(
            tb.memory_servers[1], tb.server_ports[1], tier=TIER_FAST
        )
        assert pool.members_in_tier(TIER_FAST) == [fast]
        geometry = tier_counters(pool, fast_blocks=2)
        assert geometry.fast_channel in fast.channels
        assert geometry.dram_channel in dram.channels
        # Fast members never join the placement ring.
        assert pool.member_for(b"anything") is dram


# -- tiered state store: data path, metrics, degraded modes ---------------------


def drive_updates(tb, store, timed):
    """Issue ``store.update(index, 1)`` at each scheduled (t_ns, index)."""
    expected = {}
    for t_ns, index in timed:
        tb.sim.schedule(t_ns, store.update, index, 1)
        expected[index] = expected.get(index, 0) + 1
    return expected


def hot_cold_schedule(
    bursts=8, per_burst=20, gap_ns=300.0, quiet_ns=12_000.0,
    hot=0, cold_base=64, spread=8,
):
    """Bursty skew: ~75% of accesses hit one hot counter, the rest spray
    cold, with quiet gaps between bursts.  The gaps matter: a block with
    in-flight RDMA ops refuses to move, so promotion needs instants where
    the hot block has quiesced — exactly how a tiering policy catches a
    real working set between packet trains."""
    timed = []
    t = 0.0
    n = 0
    for _ in range(bursts):
        for _ in range(per_burst):
            index = hot if n % 4 != 3 else cold_base + (n % spread) * 16
            timed.append((t, index))
            t += gap_ns
            n += 1
        t += quiet_ns
    return timed


class TestTieredStateStore:
    def build_store(self, reliable=True, **pool_kwargs):
        tb, pool = build_tiered(**pool_kwargs)
        geometry = tier_counters(pool, fast_blocks=2)
        store = RemoteStateStore(
            tb.switch,
            config=StateStoreConfig(
                counters=256, reliable=reliable, retry_timeout_ns=usec(50)
            ),
            tiering=geometry,
        )
        tb.switch.program.use_state_store(store)
        return tb, pool, geometry, store

    def test_counts_exact_across_promotion_and_metrics_emitted(self):
        tb, pool, geometry, store = self.build_store()
        expected = drive_updates(tb, store, hot_cold_schedule())
        tb.sim.run()
        store.flush_all()
        tb.sim.run()
        for index, value in expected.items():
            assert store.read_counter_via_control_plane(index) == value
        # The hot block ended up fast and some operations rode it there.
        assert geometry.tier_of_block(0) == TIER_FAST
        assert pool.metrics["tier[fast].promotions"] >= 1
        assert pool.metrics["tier[fast].hits"] > 0
        assert pool.metrics["tier[dram].hits"] > 0
        assert (
            pool.metrics["tier[fast].hits"] + pool.metrics["tier[fast].misses"]
            == pool.metrics["tier[dram].hits"]
            + pool.metrics["tier[dram].misses"]
        )

    def test_fast_occupancy_never_exceeds_the_bound(self):
        tb, pool, geometry, store = self.build_store(
            fast_capacity_bytes=256
        )
        drive_updates(tb, store, hot_cold_schedule())
        tb.sim.run()
        store.flush_all()
        tb.sim.run()
        assert 0 < pool.metrics["tier[fast].occupancy_peak"] <= 256
        assert pool.metrics["tier[fast].occupancy"] <= 256

    def test_degrade_fast_demotes_and_stays_live_on_dram(self):
        tb, pool, geometry, store = self.build_store()
        expected = drive_updates(tb, store, hot_cold_schedule(bursts=4))
        tb.sim.run()
        assert geometry.fast_used > 0
        store.degrade_fast()
        assert geometry.fast_used == 0  # demoted, not dropped
        assert not geometry.fast_enabled
        # The store keeps serving on the DRAM home.
        for _ in range(20):
            store.update(0, 1)
        expected[0] = expected.get(0, 0) + 20
        store.flush_all()
        tb.sim.run()
        for index, value in expected.items():
            assert store.read_counter_via_control_plane(index) == value
        store.recover_fast()
        assert geometry.fast_enabled

    def test_tier_moves_appear_on_the_wire_trace(self):
        obs = Observability(trace=WireTrace())
        with obs.activate():
            tb, pool, geometry, store = self.build_store()
            drive_updates(tb, store, hot_cold_schedule())
            tb.sim.run()
        moves = [
            e for e in obs.trace.events if e.kind == KIND_TIER_MOVE
        ]
        assert moves, "promotion cycle emitted no TIER_MOVE events"
        assert all(e.node == "tiering:counters" for e in moves)
        assert any(e.channel == "counters:promote" for e in moves)


# -- chaos: blackout mid-promotion, K=2 replication, zero lost updates ----------


class TestTieringChaos:
    def test_blackout_mid_promotion_loses_zero_updates(self):
        """An RNIC blackout lands while the fast tier is absorbing the hot
        block.  Reliable per-replica retransmission plus demote-not-drop
        means every counter update survives; if the monitor declares the
        blacked-out member dead, the K=2 replica set still holds every
        update (the max rule)."""
        tb = build_testbed(n_hosts=2, n_memory_servers=2)
        program = CountingProgram()
        for host, port in zip(tb.hosts, tb.host_ports):
            program.install(host.eth.mac, port)
        tb.switch.bind_program(program)
        pool = TieredMemoryPool(
            tb.controller,
            policy="frequency",
            fast_capacity_bytes=kib(1),
            tick_ns=10_000.0,
            seed=1,
            fail_after=3,
        )
        for server, port in zip(tb.memory_servers, tb.server_ports):
            pool.add_server(server, port)

        config = StateStoreConfig(
            counters=256, reliable=True, retry_timeout_ns=usec(30)
        )

        def tiered_store(member):
            geometry = pool.tier_object(
                f"counters:{member.name}",
                ATOMIC_OPERAND_BYTES,
                config.counters,
                units_per_block=16,
                member=member,
                fast_blocks=2,
            )
            return RemoteStateStore(tb.switch, config=config, tiering=geometry)

        rep = ReplicatedStateStore(
            tb.switch, pool, config=config, replication=2,
            store_factory=tiered_store,
        )
        program.use_state_store(rep)

        expected = drive_updates(tb, rep, hot_cold_schedule(bursts=12))
        # Blackout one member's RNIC mid-stream: promotions are underway
        # (first tick fires at 10 µs) and updates keep arriving.
        plan = FaultPlan(seed=7)
        plan.at(
            usec(20),
            plan.on_rnic(tb.memory_servers[0].rnic, name="fastbox"),
            RnicBlackout(),
            duration_ns=usec(200),
        )
        plan.install(tb.sim)
        tb.sim.run()
        rep.flush_all()
        tb.sim.run()
        if len(rep.stores) < 2:
            rep.reconcile()
        for index, value in expected.items():
            assert rep.read_counter(index) == value, (
                f"counter {index} lost updates: "
                f"{rep.read_counter(index)} != {value}"
            )
        assert rep.cluster_stats.updates_unreplicated == 0
