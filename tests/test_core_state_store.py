"""Tests for the remote state-store primitive (Fetch-and-Add counters)."""

import pytest

from repro.apps.programs import CountingProgram
from repro.core.state_store import RemoteStateStore, StateStoreConfig
from repro.testbed import build_testbed
from repro.rdma.constants import ATOMIC_OPERAND_BYTES
from repro.rdma.headers import BthHeader
from repro.rdma.rnic import RnicConfig
from repro.sim.units import mib, usec
from repro.workloads.factory import udp_between
from repro.workloads.perftest import RawEthernetBw


def build(config=None, rnic_config=None):
    tb = build_testbed(n_hosts=2, rnic_config=rnic_config)
    program = CountingProgram()
    for host, port in zip(tb.hosts, tb.host_ports):
        program.install(host.eth.mac, port)
    tb.switch.bind_program(program)
    config = config or StateStoreConfig(counters=1 << 12)
    channel = tb.controller.open_channel(
        tb.memory_server,
        tb.server_port,
        config.counters * ATOMIC_OPERAND_BYTES,
    )
    store = RemoteStateStore(tb.switch, channel, config=config)
    program.use_state_store(store)
    return tb, program, store, channel


def send_n(tb, n, sport=7000, size=256, rate=40e9):
    gen = RawEthernetBw(
        tb.sim, tb.hosts[0], tb.hosts[1],
        packet_size=size, rate_bps=rate, count=n, src_port=sport,
    )
    gen.start()
    return gen


class TestCounting:
    def test_every_packet_counted_exactly(self):
        tb, program, store, channel = build()
        send_n(tb, 50)
        tb.sim.run()
        packet = udp_between(tb.hosts[0], tb.hosts[1], 256, src_port=7000)
        index = store.index_of(store.key_of(packet))
        # §5: "the updated value is 100% accurate".
        assert store.read_counter_via_control_plane(index) == 50
        assert store.pending_value == 0
        assert store.outstanding == 0

    def test_zero_cpu(self):
        tb, program, store, channel = build()
        send_n(tb, 50)
        tb.sim.run()
        assert tb.memory_server.cpu_packets == 0

    def test_original_traffic_still_forwarded(self):
        tb, program, store, channel = build()
        received = []
        tb.hosts[1].packet_handlers.append(lambda p, i: received.append(p))
        send_n(tb, 30)
        tb.sim.run()
        assert len(received) == 30

    def test_distinct_flows_distinct_counters(self):
        tb, program, store, channel = build()
        send_n(tb, 20, sport=7000)
        send_n(tb, 30, sport=7001)
        tb.sim.run()
        p_a = udp_between(tb.hosts[0], tb.hosts[1], 256, src_port=7000)
        p_b = udp_between(tb.hosts[0], tb.hosts[1], 256, src_port=7001)
        assert store.read_counter_via_control_plane(store.index_of(store.key_of(p_a))) == 20
        assert store.read_counter_via_control_plane(store.index_of(store.key_of(p_b))) == 30

    def test_outstanding_never_exceeds_cap(self):
        config = StateStoreConfig(counters=1 << 12, max_outstanding=4)
        tb, program, store, channel = build(config=config)
        peak = []
        original_issue = store._issue

        def tracking_issue(index, value):
            original_issue(index, value)
            peak.append(store.outstanding)

        store._issue = tracking_issue
        send_n(tb, 200)
        tb.sim.run()
        assert max(peak) <= 4
        # And accuracy still holds despite accumulation.
        packet = udp_between(tb.hosts[0], tb.hosts[1], 256, src_port=7000)
        assert store.read_counter_via_control_plane(store.index_of(store.key_of(packet))) == 200

    def test_accumulation_combines_updates(self):
        # A slow atomic engine forces local accumulation.
        rnic = RnicConfig(atomic_rate_ops=100_000.0)
        config = StateStoreConfig(counters=1 << 12, max_outstanding=2)
        tb, program, store, channel = build(config=config, rnic_config=rnic)
        send_n(tb, 300)
        tb.sim.run()
        assert store.metrics["updates_combined"] > 0
        assert store.metrics["operations_issued"] < 300
        packet = udp_between(tb.hosts[0], tb.hosts[1], 256, src_port=7000)
        assert store.read_counter_via_control_plane(store.index_of(store.key_of(packet))) == 300

    def test_rnic_atomic_engine_never_overflows(self):
        rnic = RnicConfig(atomic_rate_ops=100_000.0, max_outstanding_atomics=16)
        config = StateStoreConfig(counters=1 << 12, max_outstanding=16)
        tb, program, store, channel = build(config=config, rnic_config=rnic)
        send_n(tb, 500)
        tb.sim.run()
        assert tb.memory_server.rnic.metrics["atomic_overflow_drops"] == 0

    def test_bytes_mode(self):
        config = StateStoreConfig(counters=1 << 12, count_mode="bytes")
        tb, program, store, channel = build(config=config)
        send_n(tb, 10, size=500)
        tb.sim.run()
        packet = udp_between(tb.hosts[0], tb.hosts[1], 256, src_port=7000)
        assert store.read_counter_via_control_plane(store.index_of(store.key_of(packet))) == 5000

    def test_sampling_predicate(self):
        config = StateStoreConfig(
            counters=1 << 12,
            sample=lambda p: p.udp.src_port == 7000,
        )
        tb, program, store, channel = build(config=config)
        send_n(tb, 20, sport=7000)
        send_n(tb, 20, sport=7001)
        tb.sim.run()
        assert store.metrics["sampled_packets"] == 20

    def test_batching_reduces_operations(self):
        config = StateStoreConfig(counters=1 << 12, batch_size=10)
        tb, program, store, channel = build(config=config)
        send_n(tb, 100)
        tb.sim.run()
        assert store.metrics["operations_issued"] <= 10
        packet = udp_between(tb.hosts[0], tb.hosts[1], 256, src_port=7000)
        # Batched mode may hold back a partial batch (update delay, §7)...
        counted = store.read_counter_via_control_plane(store.index_of(store.key_of(packet)))
        assert counted + store.pending_value == 100
        assert counted >= 90

    def test_invalid_configs_rejected(self):
        tb = build_testbed()
        channel = tb.controller.open_channel(tb.memory_server, tb.server_port, mib(1))
        with pytest.raises(ValueError):
            RemoteStateStore(
                tb.switch, channel, StateStoreConfig(counters=1 << 30)
            )
        with pytest.raises(ValueError):
            RemoteStateStore(
                tb.switch, channel,
                StateStoreConfig(counters=16, batch_size=0),
            )
        with pytest.raises(ValueError):
            RemoteStateStore(
                tb.switch, channel,
                StateStoreConfig(counters=16, count_mode="flops"),
            )

    def test_accuracy_invariant_issued_plus_pending(self):
        """value_issued + pending == sampled counts, at every point."""
        config = StateStoreConfig(counters=1 << 12, max_outstanding=2)
        tb, program, store, channel = build(config=config)
        send_n(tb, 123)
        tb.sim.run()
        assert (
            store.metrics["value_issued"] + store.pending_value
            == store.metrics["sampled_packets"]
            == 123
        )


def test_a_best_effort_store_under_loss_leaks_no_outstanding_slot():
    """The wedge: each lost request or ACK leaked one slot of the outstanding
    window (it counted responses, not requests), until no update could leave
    the switch — here 1 575 of 3 000 pending, 16 outstanding.  A slot is the
    requester's window entry now, retired by a later ACK or written off by
    a NAK."""
    import random

    from repro.faults.models import IidLoss
    from repro.faults.plan import FaultPlan

    tb, program, store, channel = build(StateStoreConfig(counters=256))
    plan = FaultPlan(seed=1)
    plan.at(0.0, plan.on_link(tb.server_link, name="server-link"), IidLoss(0.01))
    plan.install(tb.sim)
    rng = random.Random(3)
    for n in range(3_000):
        burst, k = divmod(n, 40)
        tb.sim.schedule_at(1_000.0 + burst * 20_000.0 + k * 150.0, store.update, rng.randrange(256), 1)
    tb.sim.run()
    store.flush_all()
    tb.sim.run()
    assert store.metrics["naks_received"] > 0
    assert store.pending_value == 0 and store.outstanding == 0


def test_a_delayed_sequence_error_nak_rewinds_nothing():
    """A sequence-error NAK that arrives after the responder acknowledged
    past its PSN (a copy held back or duplicated on the wire) is stale.
    Resyncing on it rewound the QP onto executed PSNs, and the next
    Fetch-and-Add, answered from the responder's atomic replay cache, was
    committed without being applied."""
    from repro.rdma.constants import AethSyndrome
    from repro.rdma.packets import build_ack

    tb, program, store, channel = build(StateStoreConfig(counters=64, reliable=True))
    sent = []
    transmit = tb.switch.transmit
    tb.switch.transmit = lambda packet, port: sent.append(packet) or transmit(packet, port)
    for index in range(8):
        store.update(index, 1)
    tb.sim.run()
    assert store.outstanding == 0
    stale = sent[2]
    nak = build_ack(
        stale, channel.server_qp,
        syndrome=AethSyndrome.NAK_PSN_SEQUENCE_ERROR,
        psn_override=stale.require(BthHeader).psn,
    )
    tb.switch.receive(nak, tb.switch.port_interface(tb.server_port))
    tb.sim.run()
    store.update(8, 1)
    tb.sim.run()
    assert store.outstanding == 0
    assert [store.read_counter_via_control_plane(i) for i in range(9)] == [1] * 9
