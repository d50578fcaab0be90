"""Self-healing channels (DESIGN.md §11): breaker, reconnect, degraded modes.

The contract under test: a channel outage that outlives the go-back-N
budget is a managed episode, not a hang — the breaker opens on stall
evidence, the primitive degrades without losing state, half-open
reconnects the QP pair and probes, and recovery reconciles to exact
totals at a fixed seed.
"""

from types import SimpleNamespace

import pytest

from repro.apps.programs import CountingProgram, RemoteLookupProgram
from repro.cluster.health import HealthMonitor
from repro.cluster.pool import MemoryPool
from repro.core.channel import ChannelError
from repro.core.lookup_table import (
    ACTION_SET_DSCP,
    LookupTableConfig,
    RemoteAction,
    RemoteLookupTable,
)
from repro.core.rocegen import RoceRequestGenerator
from repro.core.state_store import RemoteStateStore, StateStoreConfig
from repro.experiments.chaos import run_chaos_recovery
from repro.testbed import build_testbed
from repro.faults.models import Blackout, GilbertElliottLoss, IidLoss
from repro.faults.plan import FaultPlan
from repro.net.headers import UdpHeader
from repro.obs import Observability
from repro.obs.trace import WireTrace
from repro.obs.trace import KIND_BREAKER, KIND_RECONNECT
from repro.rdma.constants import ATOMIC_OPERAND_BYTES
from repro.policies.breaker import BreakerPolicy
from repro.resilience.breaker import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
    CircuitBreakerConfig,
)
from repro.resilience.guard import SelfHealingChannel
from repro.sim.rng import SeedSequence
from repro.sim.units import usec
from repro.switches.hashing import FiveTuple
from repro.workloads.factory import udp_between
from repro.workloads.perftest import RawEthernetBw

COUNTERS = 1 << 10
SRC_PORT, DST_PORT = 10_000, 20_000


def quick_config(**overrides):
    """Breaker pacing matched to the tests' 50 µs retry watchdogs."""
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


# -- breaker state machine (unit) ---------------------------------------------


class TestCircuitBreaker:
    def make(self, sim, **overrides):
        return CircuitBreaker(
            sim,
            "ch",
            config=quick_config(probe_jitter_ns=0.0, **overrides),
        )

    def test_trips_after_consecutive_failures(self, sim):
        breaker = self.make(sim)
        breaker.record("strike")
        breaker.record("timeout")
        assert breaker.is_closed
        breaker.record("retries_exhausted")
        assert breaker.is_open
        assert breaker.opens == 1

    def test_progress_resets_the_failure_count(self, sim):
        breaker = self.make(sim)
        for _ in range(10):
            breaker.record("strike")
            breaker.record("strike")
            breaker.record("progress")
        assert breaker.is_closed
        assert breaker.opens == 0

    def test_nak_alone_is_not_stall_evidence(self, sim):
        breaker = self.make(sim, fail_threshold=1)
        for _ in range(50):
            breaker.record("nak")
        assert breaker.is_closed

    def test_unknown_event_raises(self, sim):
        breaker = self.make(sim)
        with pytest.raises(ValueError):
            breaker.record("melted")

    def test_half_open_probe_success_closes(self, sim):
        breaker = self.make(sim)
        transitions = []
        breaker.on_half_open.append(
            lambda b: (transitions.append(sim.now), b.record("progress"))
        )
        for _ in range(3):
            breaker.record("timeout")
        sim.run()
        assert breaker.is_closed
        assert breaker.closes == 1
        assert transitions == [usec(100)]  # open_timeout, zero jitter
        assert breaker.degraded_ns == usec(100)

    def test_probe_timeout_reopens_with_backoff(self, sim):
        breaker = self.make(sim)
        half_opens = []

        def on_half_open(b):
            half_opens.append(sim.now)
            if len(half_opens) == 2:  # second probe succeeds
                b.record("progress")

        breaker.on_half_open.append(on_half_open)
        for _ in range(3):
            breaker.record("strike")
        sim.run()
        # trip at 0 -> half-open at 100us; silent probe fails at 160us;
        # backed-off reopen waits 200us -> half-open again at 360us.
        assert half_opens == [usec(100), usec(360)]
        assert breaker.probe_failures == 1
        assert breaker.opens == 2
        assert breaker.is_closed

    def test_failure_during_half_open_counts_as_probe_failure(self, sim):
        breaker = self.make(sim)
        breaker.on_half_open.append(lambda b: b.record("strike"))
        for _ in range(3):
            breaker.record("strike")
        sim.run(until_ns=usec(150))
        assert breaker.probe_failures >= 1
        assert breaker.is_open

    def test_events_while_open_are_suppressed_not_counted(self, sim):
        breaker = self.make(sim)
        for _ in range(3):
            breaker.record("strike")
        assert breaker.is_open
        breaker.record("strike")
        breaker.record("progress")  # a late pre-trip response
        assert breaker.is_open
        assert breaker.metrics["events_while_open"] == 1
        assert breaker.opens == 1

    def test_disarm_cancels_pending_half_open(self, sim):
        breaker = self.make(sim)
        probes = []
        breaker.on_half_open.append(lambda b: probes.append(sim.now))
        for _ in range(3):
            breaker.record("strike")
        assert breaker.is_open
        breaker.disarm()
        sim.run()
        # The scheduled half-open never fires and the state is frozen
        # for post-mortem inspection.
        assert probes == []
        assert breaker.is_open
        assert breaker.disarmed
        assert breaker.degraded_ns == 0  # tripped and disarmed at t=0

    def test_disarmed_breaker_ignores_every_event(self, sim):
        breaker = self.make(sim)
        breaker.disarm()
        for _ in range(10):
            breaker.record("retries_exhausted")
        breaker.trip()
        assert breaker.is_closed
        assert breaker.opens == 0
        breaker.disarm()  # idempotent

    def test_disarm_inside_on_open_ends_the_episode(self, sim):
        # The escalation path disarms from within the trip's own on_open
        # callbacks (on_open -> fail_server -> member leave -> stop).
        # The trip schedules its half-open timer *after* the callbacks
        # run, under a fresh epoch — the disarm must still cancel it.
        breaker = self.make(sim)
        breaker.on_open.append(lambda b: b.disarm())
        probes = []
        breaker.on_half_open.append(lambda b: probes.append(sim.now))
        for _ in range(3):
            breaker.record("strike")
        sim.run()
        assert probes == []
        assert breaker.disarmed
        assert breaker.probe_failures == 0

    def test_probe_jitter_is_seeded(self, sim):
        def episode(seed, name):
            breaker = CircuitBreaker(
                sim,
                name,
                config=quick_config(),
                rng=SeedSequence(seed).stream("jitter"),
            )
            opened_at = sim.now
            waits = []
            breaker.on_half_open.append(
                lambda b: (waits.append(sim.now - opened_at),
                           b.record("progress"))
            )
            for _ in range(3):
                breaker.record("strike")
            sim.run()
            return waits

        first = episode(3, "a")
        # Jitter actually applied: the wait exceeds the bare open_timeout.
        assert usec(100) < first[0] <= usec(110)
        # Identical streams draw identical jitter.
        assert episode(3, "b") == first
        assert episode(4, "c") != first

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CircuitBreakerConfig(fail_threshold=0).validate()
        with pytest.raises(ValueError):
            CircuitBreakerConfig(open_timeout_ns=0.0).validate()
        with pytest.raises(ValueError):
            CircuitBreakerConfig(backoff=0.5).validate()
        with pytest.raises(ValueError):
            CircuitBreakerConfig(probe_jitter_ns=-1.0).validate()

    def test_watch_chains_the_existing_listener(self, sim):
        tb = build_testbed(n_hosts=1)
        channel = tb.controller.open_channel(tb.memory_server, tb.server_port, 4096)
        gen = RoceRequestGenerator(tb.switch, channel)
        seen = []
        gen.health_listeners.append(lambda g, e: seen.append(e))
        breaker = self.make(sim)
        breaker.watch(gen)
        for _ in range(3):
            gen.record_strike()
        assert seen == ["strike"] * 3  # the older listener still fires
        assert breaker.is_open

    def test_watch_requester_feeds_retries_exhausted(self, sim):
        seen = []
        rnic = SimpleNamespace(on_retry_exhausted=[seen.append])
        breaker = self.make(sim, fail_threshold=1)
        breaker.watch_requester(rnic)
        for listener in rnic.on_retry_exhausted:
            listener("qp")
        assert seen == ["qp"]
        assert breaker.is_open


# -- full scenario under every link fault model (satellite) -------------------


def build_store_scenario(seed=42, fault_factory=None, packets=1000,
                         outage_start=usec(300), outage_ns=usec(400)):
    tb = build_testbed(n_hosts=2, with_memory_server=True)
    program = CountingProgram()
    for host, port in zip(tb.hosts, tb.host_ports):
        program.install(host.eth.mac, port)
    tb.switch.bind_program(program)
    channel = tb.controller.open_channel(
        tb.memory_server, tb.server_port, COUNTERS * ATOMIC_OPERAND_BYTES
    )
    store = RemoteStateStore(
        tb.switch,
        channel,
        config=StateStoreConfig(
            counters=COUNTERS, reliable=True, retry_timeout_ns=usec(50)
        ),
    )
    program.use_state_store(store)
    guard = SelfHealingChannel(
        tb.controller,
        channel,
        store,
        policy=BreakerPolicy(
            config=quick_config(),
            rng=SeedSequence(seed).stream("breaker"),
        ),
    )
    if fault_factory is not None:
        plan = FaultPlan(seed=seed)
        plan.at(
            outage_start,
            plan.on_link(tb.server_link, name="server-link"),
            fault_factory(),
            duration_ns=outage_ns,
        )
        plan.install(tb.sim)

    src, dst = tb.hosts
    expected = {}
    for seq in range(packets):
        flow = FiveTuple(
            src_ip=src.eth.ip.value,
            dst_ip=dst.eth.ip.value,
            protocol=17,
            src_port=SRC_PORT + (seq % 16),
            dst_port=DST_PORT,
        )
        index = flow.hash() % COUNTERS
        expected[index] = expected.get(index, 0) + 1

    def stamp(packet, seq):
        packet.require(UdpHeader).src_port = SRC_PORT + (seq % 16)

    RawEthernetBw(
        tb.sim, src, dst,
        packet_size=128, rate_bps=1e9, count=packets,
        dst_port=DST_PORT, stamp=stamp,
    ).start()
    return tb, store, guard, expected


def drain(tb, store):
    tb.sim.run()
    for _ in range(64):
        if store.pending_value == 0 and store.outstanding == 0:
            break
        store.flush_all()
        tb.sim.run()


class TestBreakerUnderFaultModels:
    """Every total-outage link model must drive the full breaker cycle."""

    @pytest.mark.parametrize(
        "fault_factory",
        [
            lambda: IidLoss(1.0),
            lambda: GilbertElliottLoss(p_good_bad=1.0, p_bad_good=0.0),
            Blackout,
        ],
        ids=["iid-loss", "gilbert-elliott", "blackout"],
    )
    def test_outage_trips_probes_and_recovers_exactly(self, fault_factory):
        tb, store, guard, expected = build_store_scenario(
            fault_factory=fault_factory
        )
        drain(tb, store)
        breaker = guard.breaker
        assert breaker.opens >= 1, "the outage must trip the breaker"
        # The outage outlives the first half-open window, so at least one
        # probe dies and re-opens the breaker (the backoff path).
        assert breaker.probe_failures >= 1
        assert breaker.opens >= 2
        assert breaker.closes >= 1 and breaker.is_closed
        assert guard.reconnects >= 1
        recovered = {
            i: store.read_counter_via_control_plane(i) for i in expected
        }
        assert recovered == expected, "reconcile must land on exact totals"

    def test_healthy_run_never_trips(self):
        tb, store, guard, expected = build_store_scenario(
            fault_factory=None, packets=400
        )
        drain(tb, store)
        assert guard.breaker.opens == 0
        assert guard.breaker.is_closed
        recovered = {
            i: store.read_counter_via_control_plane(i) for i in expected
        }
        assert recovered == expected


# -- teardown unsubscribes listeners (satellite: close/reopen bugfix) ---------


class TestTeardownUnsubscribes:
    def build(self):
        tb = build_testbed(n_hosts=2, with_memory_server=True)
        channel = tb.controller.open_channel(
            tb.memory_server, tb.server_port, COUNTERS * ATOMIC_OPERAND_BYTES
        )
        store = RemoteStateStore(
            tb.switch, channel, config=StateStoreConfig(counters=COUNTERS)
        )
        return tb, channel, store

    def test_close_channel_detaches_monitor_watch(self):
        tb, channel, store = self.build()
        monitor = HealthMonitor(fail_after=3)
        monitor.watch("s0", store.rocegen)
        assert monitor.members["s0"].watched == 1
        tb.controller.close_channel(channel)
        assert monitor.members["s0"].watched == 0
        assert store.rocegen.health_listeners == []
        for _ in range(5):
            store.rocegen.record_strike()
        assert monitor.members["s0"].strikes == 0
        assert monitor.is_alive("s0")

    def test_close_then_reopen_does_not_double_count_strikes(self):
        tb, channel, store = self.build()
        monitor = HealthMonitor(fail_after=3)
        monitor.watch("s0", store.rocegen)
        tb.controller.close_channel(channel)

        channel2 = tb.controller.open_channel(
            tb.memory_server, tb.server_port, COUNTERS * ATOMIC_OPERAND_BYTES
        )
        store2 = RemoteStateStore(
            tb.switch, channel2, config=StateStoreConfig(counters=COUNTERS)
        )
        monitor.watch("s0", store2.rocegen)
        assert monitor.members["s0"].watched == 1
        # The regression: two strikes on the new channel plus one stale
        # event from the old generation used to cross the fail_after=3
        # threshold; with teardown unsubscription the member stays up.
        store.rocegen.record_strike()
        store2.rocegen.record_strike()
        store2.rocegen.record_strike()
        assert monitor.members["s0"].strikes == 2
        assert monitor.is_alive("s0")

    def test_unwatch_is_idempotent(self):
        tb, channel, store = self.build()
        monitor = HealthMonitor(fail_after=3)
        unwatch = monitor.watch("s0", store.rocegen)
        unwatch()
        unwatch()
        tb.controller.close_channel(channel)  # fires the stored unwatch too
        assert monitor.members["s0"].watched == 0

    def test_guard_goes_inert_after_teardown(self):
        tb, channel, store = self.build()
        guard = SelfHealingChannel(
            tb.controller, channel, store,
            policy=BreakerPolicy(config=quick_config()),
        )
        tb.controller.close_channel(channel)
        guard.breaker.trip()  # must not degrade or reconnect anything
        assert not store._degraded
        assert guard.reconnects == 0


class TestTierTagSurvivesReconnect:
    """Regression: reconnect on a tiered pool must keep the fast tag.

    A fast-tier region gets the fast RNIC service profile *through its
    tier tag*.  Recovery paths that rebuilt region state used to come
    back tier-less, silently downgrading the region to DRAM service
    until the next full reopen — the channel's own tag is authoritative
    and ``reconnect_channel`` must restamp it.
    """

    def build_fast_channel(self):
        from repro.sim.units import kib
        from repro.tiering.pool import TieredMemoryPool

        tb = build_testbed(n_hosts=2, with_memory_server=True)
        pool = TieredMemoryPool(
            tb.controller, fast_capacity_bytes=kib(1), seed=1
        )
        pool.add_server(tb.memory_server, tb.server_port)
        return tb, pool, self.fast_window(pool, "ring")

    @staticmethod
    def fast_window(pool, name):
        """The fast channel of a one-block tiered object (8 B units)."""
        return pool.tier_object(name, 8, 64, fast_blocks=1).fast_channel

    def test_reconnect_restamps_region_tier_on_fresh_qps(self):
        from repro.rdma.memory import TIER_FAST

        tb, pool, channel = self.build_fast_channel()
        assert channel.region.tier == TIER_FAST
        old_qpn = channel.switch_qp.qpn
        # The historical bug: a recovery path rebuilt region state without
        # the tier tag.  Reconnect must restore it from the channel.
        channel.region.tier = None
        tb.controller.reconnect_channel(channel)
        assert channel.switch_qp.qpn != old_qpn
        assert channel.tier == TIER_FAST
        assert channel.region.tier == TIER_FAST

    def test_close_then_reopen_keeps_budget_and_retags_fresh_rkey(self):
        from repro.rdma.memory import TIER_FAST
        from repro.sim.units import kib

        tb, pool, channel = self.build_fast_channel()
        old_rkey = channel.region.rkey
        tb.controller.close_channel(channel)
        assert pool.fast_free_bytes == kib(1) - 512  # the object keeps its window
        again = self.fast_window(pool, "ring2")
        assert pool.fast_free_bytes == 0
        assert again.region.rkey != old_rkey
        assert again.tier == TIER_FAST and again.region.tier == TIER_FAST


# -- pool failover on retry exhaustion (satellite) -----------------------------


class TestPoolRetryExhaustion:
    def build(self):
        tb = build_testbed(n_hosts=2, with_memory_server=True)
        pool = MemoryPool(tb.controller, fail_after=50)
        member = pool.add_server(tb.memory_server, tb.server_port)
        return tb, pool, member

    def test_exhaustion_drains_the_member_immediately(self):
        tb, pool, member = self.build()
        rnic = tb.hosts[0].rnic
        pool.watch_requester(member, rnic)
        qp = rnic.create_qp()
        # The RNIC's go-back-N machinery gives up on the QP: despite the
        # sky-high fail_after, the member must be drained at once.
        for listener in rnic.on_retry_exhausted:
            listener(qp)
        assert not pool.health.is_alive(member.name)
        assert not member.alive
        assert member.name not in pool.ring
        # The evidence still flowed through the monitor's counters.
        assert pool.health.members[member.name].timeouts == 1

    def test_unwatch_restores_the_hook(self):
        tb, pool, member = self.build()
        rnic = tb.hosts[0].rnic
        assert rnic.on_retry_exhausted == []
        unwatch = pool.watch_requester(member, rnic)
        assert len(rnic.on_retry_exhausted) == 2  # the monitor's, then the drain
        unwatch()
        assert rnic.on_retry_exhausted == []
        assert pool.health.is_alive(member.name)


# -- QP reconnect ---------------------------------------------------------------


class TestReconnect:
    def build(self):
        tb = build_testbed(n_hosts=2, with_memory_server=True)
        program = CountingProgram()
        for host, port in zip(tb.hosts, tb.host_ports):
            program.install(host.eth.mac, port)
        tb.switch.bind_program(program)
        channel = tb.controller.open_channel(
            tb.memory_server, tb.server_port, COUNTERS * ATOMIC_OPERAND_BYTES
        )
        return tb, program, channel

    def test_fresh_qps_same_region(self):
        tb, program, channel = self.build()
        old_switch_qpn = channel.switch_qp.qpn
        old_server_qpn = channel.server_qp.qpn
        old_rkey, old_base = channel.rkey, channel.base_address
        region = channel.region
        tb.controller.reconnect_channel(channel)
        assert channel.switch_qp.qpn != old_switch_qpn
        assert channel.server_qp.qpn != old_server_qpn
        assert channel.rkey == old_rkey
        assert channel.base_address == old_base
        assert channel.region is region
        # The old server QP is gone from the RNIC; the new one is live.
        assert old_server_qpn not in tb.memory_server.rnic.qps
        assert channel.server_qp.qpn in tb.memory_server.rnic.qps

    def test_traffic_flows_after_reconnect(self):
        tb, program, channel = self.build()
        store = RemoteStateStore(
            tb.switch, channel, config=StateStoreConfig(counters=COUNTERS)
        )
        program.use_state_store(store)
        store.update(3, 5)
        tb.sim.run()
        tb.controller.reconnect_channel(channel)
        store.update(4, 7)
        tb.sim.run()
        assert store.read_counter_via_control_plane(3) == 5
        assert store.read_counter_via_control_plane(4) == 7

    def test_reconnect_does_not_fire_teardown_callbacks(self):
        tb, program, channel = self.build()
        fired = []
        channel.teardown_callbacks.append(lambda: fired.append("torn"))
        tb.controller.reconnect_channel(channel)
        assert fired == []  # same logical channel, listeners stay attached
        tb.controller.close_channel(channel)
        assert fired == ["torn"]

    def test_reconnect_closed_channel_raises(self):
        tb, program, channel = self.build()
        tb.controller.close_channel(channel)
        with pytest.raises(ChannelError):
            tb.controller.reconnect_channel(channel)

    def test_reconnect_emits_trace_event(self):
        obs = Observability(trace=WireTrace())
        with obs.activate():
            tb, program, channel = self.build()
            tb.controller.reconnect_channel(channel)
        kinds = obs.trace.kinds()
        assert kinds.get(KIND_RECONNECT) == 1


# -- degraded modes per primitive ----------------------------------------------


class TestStoreDegradedMode:
    def build(self, **config_overrides):
        tb = build_testbed(n_hosts=2, with_memory_server=True)
        program = CountingProgram()
        for host, port in zip(tb.hosts, tb.host_ports):
            program.install(host.eth.mac, port)
        tb.switch.bind_program(program)
        channel = tb.controller.open_channel(
            tb.memory_server, tb.server_port, COUNTERS * ATOMIC_OPERAND_BYTES
        )
        store = RemoteStateStore(
            tb.switch,
            channel,
            config=StateStoreConfig(counters=COUNTERS, **config_overrides),
        )
        program.use_state_store(store)
        return tb, store

    def test_degrade_accumulates_and_recover_reconciles_exactly(self):
        tb, store = self.build(reliable=True, retry_timeout_ns=usec(50))
        store.update(0, 3)  # in flight when the breaker opens
        store.degrade()
        store.update(1, 4)
        store.update(1, 2)
        assert store.metrics["degraded_updates"] == 2
        assert store.pending_value == 6
        assert store.outstanding == 0  # watchdog stood down
        store.recover()
        tb.sim.run()
        for _ in range(64):
            if store.pending_value == 0 and store.outstanding == 0:
                break
            store.flush_all()
            tb.sim.run()
        assert store.read_counter_via_control_plane(0) == 3
        assert store.read_counter_via_control_plane(1) == 6
        # Exactly-once: whatever part of the suspended op the reconcile
        # READ found already applied is credited, the rest re-issued —
        # together they account for the full suspended value, once.
        assert store.metrics["reconcile_reads"] == 1
        applied = store.metrics["reconciled_applied"]
        reissued = store.metrics["reconciled_reissued"]
        assert applied + reissued == 3

    def test_updates_while_degraded_never_drive_the_wire(self):
        tb, store = self.build()
        store.degrade()
        writes_before = tb.memory_server.rnic.metrics["atomics_executed"]
        for i in range(20):
            store.update(i, 1)
        store.flush_all()  # must be a no-op while degraded
        tb.sim.run()
        assert (
            tb.memory_server.rnic.metrics["atomics_executed"] == writes_before
        )
        assert store.pending_value == 20


class TestLookupDegradedMode:
    def build(self):
        tb = build_testbed(n_hosts=2)
        program = RemoteLookupProgram()
        for host, port in zip(tb.hosts, tb.host_ports):
            program.install(host.eth.mac, port)
        tb.switch.bind_program(program)
        config = LookupTableConfig(entries=1 << 10, cache_entries=64)
        channel = tb.controller.open_channel(
            tb.memory_server,
            tb.server_port,
            config.entries * config.entry_bytes,
        )
        table = RemoteLookupTable(tb.switch, channel, config=config)
        program.use_lookup_table(table)
        received = []
        tb.hosts[1].packet_handlers.append(lambda p, i: received.append(p))
        return tb, table, received

    def send(self, tb, sport):
        tb.hosts[0].send(
            udp_between(
                tb.hosts[0], tb.hosts[1], 256, src_port=sport, dst_port=6000
            )
        )

    def flow(self, tb, sport):
        return FiveTuple(
            src_ip=tb.hosts[0].eth.ip.value,
            dst_ip=tb.hosts[1].eth.ip.value,
            protocol=17,
            src_port=sport,
            dst_port=6000,
        )

    def test_degraded_serves_cache_hits_and_default_action(self):
        tb, table, received = self.build()
        table.install(self.flow(tb, 5000), RemoteAction(ACTION_SET_DSCP, 46))
        self.send(tb, 5000)  # miss -> remote fetch -> cache fill
        tb.sim.run()
        assert len(received) == 1

        table.degrade()
        self.send(tb, 5000)  # SRAM cache hit: exact action, no wire
        self.send(tb, 5001)  # miss: default action, no wire
        tb.sim.run()
        assert len(received) == 3
        assert received[1].ipv4.dscp == 46
        assert received[2].ipv4.dscp == 0  # default is a NOP, still forwarded
        assert table.metrics["degraded_hits"] == 1
        assert table.metrics["degraded_defaults"] == 1
        # Degraded mode never touched the wire.
        assert table.metrics["remote_lookups"] == 1

        table.recover()
        table.install(self.flow(tb, 5002), RemoteAction(ACTION_SET_DSCP, 9))
        self.send(tb, 5002)
        tb.sim.run()
        assert received[-1].ipv4.dscp == 9  # remote lookups bounce again
        assert table.metrics["remote_lookups"] == 2

    def test_degrade_writes_off_inflight_bounces(self):
        tb, table, received = self.build()
        table.install(self.flow(tb, 5000), RemoteAction(ACTION_SET_DSCP, 46))
        tb.server_link.loss_probability = 1.0  # responses never return
        self.send(tb, 5000)
        tb.sim.run(until_ns=usec(50))
        assert len(table.rocegen.window) >= 1
        table.degrade()
        assert len(table.rocegen.window) == 0
        assert table.metrics["lookups_lost"] >= 1


# -- full-scenario determinism ---------------------------------------------------


class TestRecoveryDeterminism:
    def test_recovery_report_replays_exactly(self):
        first = run_chaos_recovery(packets=600)
        second = run_chaos_recovery(packets=600)
        assert first == second

    def test_recovery_trace_is_byte_identical(self):
        traces = []
        for _ in range(2):
            obs = Observability(trace=WireTrace())
            with obs.activate():
                run_chaos_recovery(packets=600)
            traces.append(obs.trace)
        assert traces[0].to_jsonl() == traces[1].to_jsonl()
        kinds = traces[0].kinds()
        assert kinds.get(KIND_BREAKER, 0) >= 4  # opens + closes, 2 channels
        assert kinds.get(KIND_RECONNECT, 0) >= 2

    def test_breaker_cycle_and_metrics_scope(self):
        report = run_chaos_recovery(packets=600)
        assert report["lost_updates"] == 0
        assert report["counters_wrong"] == 0
        assert report["lost_buffered"] == 0
        assert report["out_of_order"] == 0
        assert report["store_breaker_opens"] >= 2  # probe failure re-opened it
        assert report["store_probe_failures"] >= 1
        assert report["store_breaker_closes"] >= 1
        assert report["buffer_breaker_opens"] >= 1
        assert report["buffer_breaker_closes"] >= 1
        assert report["degraded_ms"] > 0
        assert report["goodput_degraded_per_ms"] > 0


# -- guard construction ------------------------------------------------------------


class TestSelfHealingChannelWiring:
    def test_rejects_primitives_without_the_protocol(self):
        tb = build_testbed(n_hosts=2, with_memory_server=True)
        channel = tb.controller.open_channel(
            tb.memory_server, tb.server_port, 4096
        )
        with pytest.raises(TypeError):
            SelfHealingChannel(tb.controller, channel, object())

    def test_rejects_foreign_channels(self):
        tb = build_testbed(n_hosts=2, with_memory_server=True)
        channel = tb.controller.open_channel(
            tb.memory_server, tb.server_port, COUNTERS * ATOMIC_OPERAND_BYTES
        )
        store = RemoteStateStore(
            tb.switch, channel, config=StateStoreConfig(counters=COUNTERS)
        )
        tb.controller.close_channel(channel)
        with pytest.raises(ValueError):
            SelfHealingChannel(tb.controller, channel, store)

    def test_breaker_states_are_exported_constants(self):
        assert {BREAKER_CLOSED, BREAKER_OPEN, BREAKER_HALF_OPEN} == {
            "closed",
            "open",
            "half-open",
        }
