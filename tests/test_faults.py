"""Fault injection and recovery: models, plans, ICRC, go-back-N, chaos.

The contract under test is DESIGN.md §10's: every injected fault is
seeded and replayable (same plan + same seed = byte-identical wire
trace), and with ``enable_retransmit`` the reliable paths lose nothing —
not to i.i.d. loss, not to bursts, not to a mid-run blackout.
"""

import pytest

from repro.cluster.health import HealthMonitor
from repro.faults.injectors import (
    AtomicEngineStall,
    LinkFaultInjector,
    RnicBlackout,
    RnicDropBurst,
)
from repro.faults.models import (
    Blackout,
    Corrupt,
    Duplicate,
    GilbertElliottLoss,
    IidLoss,
    Jitter,
    Reorder,
)
from repro.faults.plan import FaultPlan
from repro.hosts.server import Host, MemoryServer
from repro.net.link import connect
from repro.net.node import Node
from repro.obs import Observability
from repro.obs.trace import WireTrace
from repro.obs.trace import KIND_FAULT, KIND_RETX
from repro.rdma.packets import (
    build_write_request,
    integrity_protected,
    verify_icrc,
)
from repro.rdma.rnic import RnicConfig
from repro.rdma.verbs import RdmaClient, connect_qps
from repro.sim.simulator import Simulator
from repro.sim.units import gbps, usec
from tests.test_net_packet import make_udp_packet


# -- plumbing -----------------------------------------------------------------


class SinkNode(Node):
    """Records every delivered packet with its arrival time."""

    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.received = []

    def receive(self, packet, interface):
        self.received.append((self.sim.now, packet))


def make_wire(sim, **injector_kwargs):
    """A raw a<->b link with a fault injector installed."""
    a, b = SinkNode(sim, "a"), SinkNode(sim, "b")
    ia = a.add_interface("eth0", "02:00:00:00:00:0a")
    ib = b.add_interface("eth0", "02:00:00:00:00:0b")
    link = connect(sim, ia, ib, gbps(40), propagation_ns=250.0)
    injector = LinkFaultInjector(link, name="wire", **injector_kwargs)
    return a, b, ia, ib, link, injector


def make_rdma_pair(sim, client_config=None):
    """Client host + memory server over one link, QPs connected."""
    client = Host(
        sim, "c", "02:00:00:00:00:01", "10.0.0.1", rnic_config=client_config
    )
    server = MemoryServer(sim, "s", "02:00:00:00:00:02", "10.0.0.2")
    link = connect(sim, client.eth, server.eth, gbps(40))
    qp_c = client.rnic.create_qp()
    qp_s = server.rnic.create_qp()
    connect_qps(qp_c, qp_s)
    region = server.lend_memory(1 << 16)
    return client, server, link, RdmaClient(client.rnic, qp_c), region


RETX_CONFIG = dict(enable_retransmit=True, retransmit_timeout_ns=usec(20))


# -- link fault models --------------------------------------------------------


class TestLinkModels:
    def test_injector_without_models_is_pass_through(self, sim):
        _, b, ia, _, _, injector = make_wire(sim)
        packet = make_udp_packet()
        ia.send(packet)
        sim.run()
        (arrival, received), = b.received
        assert received is packet
        expected = packet.wire_len * 8 / 40e9 * 1e9 + 250.0
        assert arrival == pytest.approx(expected)
        assert injector.effects == {}

    def test_iid_loss_one_drops_everything(self, sim):
        _, b, ia, _, _, injector = make_wire(sim)
        injector.arm(IidLoss(1.0))
        for _ in range(10):
            ia.send(make_udp_packet())
        sim.run()
        assert b.received == []
        assert injector.effects["dropped"] == 10
        assert injector.dropped == 10

    def test_iid_loss_zero_delivers_everything(self, sim):
        _, b, ia, _, _, injector = make_wire(sim)
        injector.arm(IidLoss(0.0))
        for _ in range(10):
            ia.send(make_udp_packet())
        sim.run()
        assert len(b.received) == 10
        assert injector.dropped == 0

    def test_gilbert_elliott_loses_in_bursts(self, sim):
        _, b, ia, _, _, injector = make_wire(sim)
        # Deterministic worst case: first packet flips good->bad and the
        # channel never recovers, so everything after packet 1 is a burst.
        injector.arm(
            GilbertElliottLoss(p_good_bad=1.0, p_bad_good=0.0, loss_bad=1.0)
        )
        for _ in range(10):
            ia.send(make_udp_packet())
        sim.run()
        assert len(b.received) == 1
        assert injector.effects["burst_dropped"] == 9
        assert injector.dropped == 9

    def test_blackout_drops_all(self, sim):
        _, b, ia, _, _, injector = make_wire(sim)
        injector.arm(Blackout())
        for _ in range(5):
            ia.send(make_udp_packet())
        sim.run()
        assert b.received == []
        assert injector.effects["blackout_dropped"] == 5

    def test_duplicate_delivers_independent_clones(self, sim):
        _, b, ia, _, _, injector = make_wire(sim)
        injector.arm(Duplicate(1.0, copies=2))
        original = make_udp_packet(payload=b"dup-me")
        ia.send(original)
        sim.run()
        assert len(b.received) == 3
        packets = [p for _, p in b.received]
        assert original in packets
        clones = [p for p in packets if p is not original]
        assert len(clones) == 2
        assert all(p.payload == b"dup-me" for p in clones)
        assert injector.effects["duplicated"] == 2

    def test_jitter_delays_within_bounds(self, sim):
        _, b, ia, _, _, injector = make_wire(sim)
        injector.arm(Jitter(max_ns=100.0, min_ns=10.0))
        packet = make_udp_packet()
        ia.send(packet)
        sim.run()
        (arrival, _), = b.received
        base = packet.wire_len * 8 / 40e9 * 1e9 + 250.0
        assert base + 10.0 <= arrival <= base + 100.0
        assert injector.effects["jittered"] == 1

    def test_reorder_via_packet_trigger_swaps_arrival_order(self, sim):
        _, b, ia, _, _, injector = make_wire(sim)
        # Hold exactly the first packet long enough to land after the
        # second — when_packet arms on packet 1 and disarms before 2.
        injector.when_packet(1, Reorder(1.0, hold_ns=5_000.0), count=1)
        first, second = make_udp_packet(), make_udp_packet()
        ia.send(first)
        ia.send(second)
        sim.run()
        assert [p for _, p in b.received] == [second, first]
        assert injector.effects["reordered"] == 1

    def test_corrupt_delivers_a_damaged_clone(self, sim):
        _, b, ia, _, _, injector = make_wire(sim)
        injector.arm(Corrupt(1.0))
        original = make_udp_packet(payload=b"\x00" * 32)
        ia.send(original)
        sim.run()
        (_, received), = b.received
        assert received is not original  # sender's copy stays intact
        assert original.payload == b"\x00" * 32
        assert received.payload != original.payload
        assert len(received.payload) == 32
        assert injector.effects["corrupted"] == 1

    def test_direction_scoping_spares_the_reverse_path(self, sim):
        a, b, ia, ib, _, injector = make_wire(sim, direction="a2b")
        injector.arm(IidLoss(1.0))
        ia.send(make_udp_packet())
        ib.send(make_udp_packet())
        sim.run()
        assert b.received == []  # a->b impaired
        assert len(a.received) == 1  # b->a untouched
        assert injector.dropped == 1

    def test_bad_direction_rejected(self, sim):
        with pytest.raises(ValueError):
            make_wire(sim, direction="sideways")


# -- the plan -----------------------------------------------------------------


class TestFaultPlan:
    def test_at_with_duration_arms_and_disarms(self, sim):
        _, b, ia, _, link, _ = make_wire(sim)
        plan = FaultPlan(seed=3)
        wire = plan.on_link(link, name="wire")
        plan.at(usec(1), wire, Blackout(), duration_ns=usec(2))
        plan.install(sim)
        for at_ns in (0.0, usec(2), usec(5)):  # before / during / after
            sim.schedule_at(at_ns, ia.send, make_udp_packet())
        sim.run()
        assert len(b.received) == 2
        assert wire.effects["blackout_dropped"] == 1

    def test_on_link_memoizes_per_link(self, sim):
        _, _, _, _, link, _ = make_wire(sim)
        plan = FaultPlan(seed=1)
        assert plan.on_link(link) is plan.on_link(link)

    def test_on_packet_rejects_rnic_injectors(self, sim):
        client, *_ = make_rdma_pair(sim)
        plan = FaultPlan(seed=1)
        nic = plan.on_rnic(client.rnic)
        with pytest.raises(TypeError):
            plan.on_packet(nic, IidLoss(1.0), nth=1)

    def test_double_install_raises(self, sim):
        plan = FaultPlan(seed=1)
        plan.install(sim)
        with pytest.raises(RuntimeError):
            plan.install(sim)

    def _traced_lossy_run(self, seed):
        """40 writes over a 10%-lossy link; returns (trace jsonl, done)."""
        obs = Observability(trace=WireTrace())
        with obs.activate():
            sim = Simulator()
            client, server, link, rdma, region = make_rdma_pair(
                sim, client_config=RnicConfig(**RETX_CONFIG)
            )
            plan = FaultPlan(seed=seed)
            plan.at(0.0, plan.on_link(link, name="wire"), IidLoss(0.1))
            plan.install(sim)
            done = []
            for i in range(40):
                rdma.write(
                    region.base_address + i * 8,
                    region.rkey,
                    i.to_bytes(8, "big"),
                    done.append,
                )
            sim.run()
        return obs.trace.to_jsonl(), done

    def test_same_seed_replays_a_byte_identical_wire_trace(self):
        trace_a, done_a = self._traced_lossy_run(seed=7)
        trace_b, done_b = self._traced_lossy_run(seed=7)
        assert trace_a == trace_b
        assert len(done_a) == len(done_b) == 40
        assert all(c.success for c in done_a)
        # The run actually exercised the fault path.
        assert any('"FAULT"' in line for line in trace_a.splitlines())

    def test_different_seed_injects_differently(self):
        trace_a, _ = self._traced_lossy_run(seed=7)
        trace_b, _ = self._traced_lossy_run(seed=8)
        assert trace_a != trace_b


# -- ICRC ---------------------------------------------------------------------


class TestIcrc:
    def _write_packet(self, sim, compute_icrc):
        _, _, _, rdma, region = make_rdma_pair(sim)
        return build_write_request(
            rdma.qp,
            region.base_address,
            region.rkey,
            b"guarded-payload",
            compute_icrc=compute_icrc,
        )

    def test_unprotected_packets_always_verify(self, sim):
        packet = self._write_packet(sim, compute_icrc=False)
        assert verify_icrc(packet)
        packet.payload = b"tampered!-------"
        assert verify_icrc(packet)  # value 0 = integrity off (fast path)

    def test_protected_packet_rejects_payload_tampering(self, sim):
        packet = self._write_packet(sim, compute_icrc=True)
        assert verify_icrc(packet)
        packet.payload = b"tampered-payload"
        assert not verify_icrc(packet)

    def test_corruption_is_detected_and_repaired_end_to_end(self, sim):
        with integrity_protected():
            client, server, link, rdma, region = make_rdma_pair(
                sim, client_config=RnicConfig(**RETX_CONFIG)
            )
            plan = FaultPlan(seed=5)
            wire = plan.on_link(link, name="wire")
            # Corrupt exactly the first request on the wire; the ICRC
            # check at the responder must catch it, and go-back-N must
            # deliver the clean copy.
            plan.on_packet(wire, Corrupt(1.0), nth=1, count=1)
            plan.install(sim)
            done = []
            rdma.write(
                region.base_address, region.rkey, b"exact!!!", done.append
            )
            sim.run()
        assert done and done[0].success
        assert region.read(region.base_address, 8) == b"exact!!!"
        assert wire.effects["corrupted"] == 1
        assert (
            server.rnic.metrics["icrc_drops"] + client.rnic.metrics["icrc_drops"] >= 1
        )


# -- go-back-N ----------------------------------------------------------------


class TestGoBackN:
    def test_single_request_loss_recovers_all_writes(self, sim):
        client, server, link, rdma, region = make_rdma_pair(
            sim, client_config=RnicConfig(**RETX_CONFIG)
        )
        plan = FaultPlan(seed=2)
        wire = plan.on_link(link, name="wire")
        plan.on_packet(wire, IidLoss(1.0), nth=4, count=1)  # one mid-stream
        plan.install(sim)
        done = []
        for i in range(10):
            rdma.write(
                region.base_address + i * 8,
                region.rkey,
                i.to_bytes(8, "big"),
                done.append,
            )
        sim.run()
        assert len(done) == 10 and all(c.success for c in done)
        for i in range(10):
            stored = region.read(region.base_address + i * 8, 8)
            assert int.from_bytes(stored, "big") == i
        assert wire.dropped == 1
        assert client.rnic.metrics["retransmissions"] >= 1

    def test_timeouts_back_off_exponentially(self):
        obs = Observability(trace=WireTrace())
        with obs.activate():
            sim = Simulator()
            config = RnicConfig(
                enable_retransmit=True,
                retransmit_timeout_ns=usec(20),
                retransmit_backoff=2.0,
                max_retries=3,
            )
            client, server, link, rdma, region = make_rdma_pair(
                sim, client_config=config
            )
            plan = FaultPlan(seed=1)
            plan.at(0.0, plan.on_link(link, name="wire"), Blackout())
            plan.install(sim)
            done = []
            rdma.write(region.base_address, region.rkey, b"x", done.append)
            sim.run()
        retx_times = [
            e.t_ns for e in obs.trace.events if e.kind == KIND_RETX
        ]
        assert len(retx_times) == 3  # one per retry round
        gaps = [b - a for a, b in zip(retx_times, retx_times[1:])]
        # Each round waits retransmit_backoff x longer than the last.
        assert all(later > earlier for earlier, later in zip(gaps, gaps[1:]))
        assert gaps[1] == pytest.approx(2 * usec(20) * 2, rel=0.5)

    def test_exhaustion_completes_with_error_and_fires_hook(self, sim):
        config = RnicConfig(
            enable_retransmit=True,
            retransmit_timeout_ns=usec(10),
            max_retries=2,
        )
        client, server, link, rdma, region = make_rdma_pair(
            sim, client_config=config
        )
        plan = FaultPlan(seed=1)
        plan.at(0.0, plan.on_link(link, name="wire"), Blackout())
        plan.install(sim)
        exhausted = []
        client.rnic.on_retry_exhausted.append(exhausted.append)
        done = []
        rdma.write(region.base_address, region.rkey, b"x", done.append)
        sim.run()
        assert done and not done[0].success
        assert client.rnic.metrics["retries_exhausted"] == 1
        assert len(exhausted) == 1  # the QP whose window died

    def test_exhaustion_escalates_into_health_monitor(self, sim):
        config = RnicConfig(
            enable_retransmit=True,
            retransmit_timeout_ns=usec(10),
            max_retries=1,
        )
        client, server, link, rdma, region = make_rdma_pair(
            sim, client_config=config
        )
        monitor = HealthMonitor(fail_after=1)
        monitor.watch_requester("s0", client.rnic)
        plan = FaultPlan(seed=1)
        plan.at(0.0, plan.on_link(link, name="wire"), Blackout())
        plan.install(sim)
        rdma.write(region.base_address, region.rkey, b"x")
        sim.run()
        assert monitor.members["s0"].timeouts == 1
        assert not monitor.is_alive("s0")

    def test_disabled_retransmit_still_fails_fast(self, sim):
        client, server, link, rdma, region = make_rdma_pair(sim)
        plan = FaultPlan(seed=1)
        plan.at(0.0, plan.on_link(link, name="wire"), Blackout())
        plan.install(sim)
        done = []
        rdma.write(region.base_address, region.rkey, b"x", done.append)
        sim.run()
        assert done == []  # no recovery machinery, no completion
        assert client.rnic.metrics["retransmissions"] == 0


# -- RNIC-side faults ---------------------------------------------------------


class TestRnicFaults:
    def test_drop_burst_is_absorbed_by_retransmit(self, sim):
        client, server, link, rdma, region = make_rdma_pair(
            sim, client_config=RnicConfig(**RETX_CONFIG)
        )
        plan = FaultPlan(seed=1)
        nic = plan.on_rnic(server.rnic, name="server")
        plan.at(0.0, nic, RnicDropBurst(3))
        plan.install(sim)
        done = []
        for i in range(8):
            rdma.write(
                region.base_address + i * 8,
                region.rkey,
                i.to_bytes(8, "big"),
                done.append,
            )
        sim.run()
        assert len(done) == 8 and all(c.success for c in done)
        assert nic.effects["burst_drops"] == 3
        for i in range(8):
            stored = region.read(region.base_address + i * 8, 8)
            assert int.from_bytes(stored, "big") == i

    def test_blackout_window_recovers_after_healing(self, sim):
        client, server, link, rdma, region = make_rdma_pair(
            sim, client_config=RnicConfig(**RETX_CONFIG)
        )
        plan = FaultPlan(seed=1)
        nic = plan.on_rnic(server.rnic, name="server")
        plan.at(0.0, nic, RnicBlackout(), duration_ns=usec(30))
        plan.install(sim)
        done = []
        for i in range(6):
            rdma.write(
                region.base_address + i * 8, region.rkey, b"z", done.append
            )
        sim.run()
        assert len(done) == 6 and all(c.success for c in done)
        assert nic.effects["blackouts"] == 1
        assert nic.effects["blackout_drops"] >= 1
        assert not nic.blackout  # healed

    def test_atomic_stall_delays_fetch_add_completion(self, sim):
        client, server, link, rdma, region = make_rdma_pair(sim)
        plan = FaultPlan(seed=1)
        nic = plan.on_rnic(server.rnic, name="server")
        plan.at(0.0, nic, AtomicEngineStall(usec(50)))
        plan.install(sim)
        done = []
        rdma.fetch_add(region.base_address, region.rkey, 1, done.append)
        sim.run()
        assert done and done[0].success
        assert done[0].completion_time_ns >= usec(50)
        assert nic.effects["atomic_stalls"] == 1


# -- the chaos experiment -----------------------------------------------------


class TestChaosExperiment:
    def test_same_seed_runs_are_identical(self):
        from repro.experiments.chaos import run_chaos_point

        a = run_chaos_point(0.02, packets=400, seed=11)
        b = run_chaos_point(0.02, packets=400, seed=11)
        assert a == b
        assert a["link_drops"] > 0
        assert a["lost_updates"] == 0

    def test_unreliable_mode_actually_loses_updates(self):
        from repro.experiments.chaos import run_chaos_point

        row = run_chaos_point(0.05, packets=500, seed=11, reliable=False)
        assert row["link_drops"] > 0
        assert row["lost_updates"] > 0  # the ablation the paper's §5 implies

    def test_mid_run_blackout_loses_zero_state_store_updates(self):
        """Satellite acceptance: a dead link mid-count costs nothing."""
        from repro.api import (
            CountingProgram,
            FiveTuple,
            RemoteStateStore,
            StateStoreConfig,
            build_testbed,
        )
        from repro.net.headers import UdpHeader
        from repro.rdma.constants import ATOMIC_OPERAND_BYTES
        from repro.workloads.perftest import RawEthernetBw

        counters = 1 << 10
        packets = 800
        tb = build_testbed(n_hosts=2)
        program = CountingProgram()
        for host, port in zip(tb.hosts, tb.host_ports):
            program.install(host.eth.mac, port)
        tb.switch.bind_program(program)
        channel = tb.controller.open_channel(
            tb.memory_server, tb.server_port, counters * ATOMIC_OPERAND_BYTES
        )
        store = RemoteStateStore(
            tb.switch,
            channel,
            config=StateStoreConfig(
                counters=counters, reliable=True, retry_timeout_ns=50_000.0
            ),
        )
        program.use_state_store(store)

        plan = FaultPlan(seed=9)
        wire = plan.on_link(tb.server_link, name="server-link")
        plan.at(usec(300), wire, Blackout(), duration_ns=usec(80))
        plan.install(tb.sim)

        src, dst = tb.hosts
        expected = {}
        for seq in range(packets):
            flow = FiveTuple(
                src_ip=src.eth.ip.value,
                dst_ip=dst.eth.ip.value,
                protocol=17,
                src_port=10_000 + (seq % 16),
                dst_port=20_000,
            )
            index = flow.hash() % counters
            expected[index] = expected.get(index, 0) + 1

        def stamp(packet, seq):
            packet.require(UdpHeader).src_port = 10_000 + (seq % 16)

        RawEthernetBw(
            tb.sim, src, dst,
            packet_size=128, rate_bps=1e9, count=packets,
            dst_port=20_000, stamp=stamp,
        ).start()
        tb.sim.run()
        for _ in range(64):
            if store.pending_value == 0 and store.outstanding == 0:
                break
            store.flush_all()
            tb.sim.run()

        recovered = {
            i: store.read_counter_via_control_plane(i) for i in expected
        }
        assert wire.effects["blackout_dropped"] > 0  # the blackout bit
        assert recovered == expected  # ...and cost zero updates
