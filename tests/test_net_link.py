"""Tests for interfaces, queues and links: timing, drops, counters."""

import pytest

from repro.faults.injectors import LinkFaultInjector
from repro.faults.models import IidLoss
from repro.linkguard.guard import LinkGuard
from repro.net.link import connect
from repro.net.node import Node
from repro.net.packet import Packet
from repro.net.queues import TxQueue
from repro.sim.simulator import Simulator
from repro.sim.units import SEC, gbps
from repro.switches.pipeline import SwitchProgram
from repro.switches.switch import ProgrammableSwitch, SwitchConfig
from tests.test_net_packet import make_udp_packet


class SinkNode(Node):
    """Records every delivered packet with its arrival time."""

    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.received = []

    def receive(self, packet, interface):
        self.received.append((self.sim.now, packet))


def make_pair(sim, rate_bps=gbps(40), propagation_ns=250.0, **link_kwargs):
    a = SinkNode(sim, "a")
    b = SinkNode(sim, "b")
    ia = a.add_interface("eth0", "02:00:00:00:00:0a")
    ib = b.add_interface("eth0", "02:00:00:00:00:0b")
    link = connect(sim, ia, ib, rate_bps, propagation_ns=propagation_ns, **link_kwargs)
    return a, b, ia, ib, link


def test_delivery_time_is_serialization_plus_propagation():
    sim = Simulator()
    _, b, ia, _, _ = make_pair(sim)
    packet = make_udp_packet(payload=b"p" * 1458)  # 1500 B frame, 1520 B wire
    ia.send(packet)
    sim.run()
    (arrival, received), = b.received
    assert received is packet
    expected = packet.wire_len * 8 / 40e9 * 1e9 + 250.0
    assert arrival == pytest.approx(expected)


def test_back_to_back_packets_serialize_sequentially():
    sim = Simulator()
    _, b, ia, _, _ = make_pair(sim, propagation_ns=0.0)
    p1, p2 = make_udp_packet(), make_udp_packet()
    ia.send(p1)
    ia.send(p2)
    sim.run()
    t1, t2 = (t for t, _ in b.received)
    assert t2 == pytest.approx(2 * t1)


def test_duplex_directions_are_independent():
    sim = Simulator()
    a, b, ia, ib, _ = make_pair(sim)
    ia.send(make_udp_packet())
    ib.send(make_udp_packet())
    sim.run()
    assert len(a.received) == 1
    assert len(b.received) == 1


def test_tx_rx_counters():
    sim = Simulator()
    _, _, ia, ib, _ = make_pair(sim)
    packet = make_udp_packet()
    ia.send(packet)
    sim.run()
    assert ia.tx_packets == 1
    assert ia.tx_bytes == packet.wire_len
    assert ib.rx_packets == 1
    assert ib.rx_bytes == packet.wire_len


def test_drop_tail_queue_drops_when_full():
    sim = Simulator()
    a = SinkNode(sim, "a")
    b = SinkNode(sim, "b")
    queue = TxQueue(capacity_bytes=3000)
    ia = a.add_interface("eth0", "02:00:00:00:00:0a", queue=queue)
    ib = b.add_interface("eth0", "02:00:00:00:00:0b")
    connect(sim, ia, ib, gbps(1))
    packets = [make_udp_packet(payload=b"x" * 1458) for _ in range(5)]
    admitted = [ia.send(p) for p in packets]
    # First goes straight to the serializer; queue then holds 2 x 1500 B.
    assert admitted == [True, True, True, False, False]
    assert queue.dropped_packets == 2
    sim.run()
    assert len(b.received) == 3


def test_link_loss_probability_drops_packets():
    sim = Simulator()
    _, b, ia, _, link = make_pair(sim, loss_probability=1.0)
    ia.send(make_udp_packet())
    sim.run()
    assert b.received == []
    assert link.lost_packets == 1


def test_link_taps_observe_traffic():
    sim = Simulator()
    _, _, ia, _, link = make_pair(sim)
    seen = []
    link.taps.append(lambda src, pkt: seen.append((src, pkt)))
    packet = make_udp_packet()
    ia.send(packet)
    sim.run()
    assert seen == [(ia, packet)]


def test_queue_admits_checks_without_side_effects():
    queue = TxQueue(capacity_packets=1)
    p = make_udp_packet()
    assert queue.admits(p)
    assert queue.offer(p)
    assert not queue.admits(p)
    assert queue.dropped_packets == 0  # admits() never counts drops


class TestFastPath:
    """The precomputed ``_fast`` flag must track taps/loss/injector exactly
    and never change observable behaviour — only which branch runs."""

    def test_idle_link_starts_fast(self):
        sim = Simulator()
        *_, link = make_pair(sim)
        assert link._fast

    def test_lossy_link_starts_slow(self):
        sim = Simulator()
        *_, link = make_pair(sim, loss_probability=0.5)
        assert not link._fast
        link.loss_probability = 0.0
        assert link._fast

    def test_tap_mutations_toggle_flag(self):
        sim = Simulator()
        *_, link = make_pair(sim)
        tap = lambda src, pkt: None
        link.taps.append(tap)
        assert not link._fast
        link.taps.remove(tap)
        assert link._fast
        link.taps.extend([tap, tap])
        assert not link._fast
        link.taps.pop()
        assert not link._fast  # one tap left
        link.taps.clear()
        assert link._fast
        link.taps += [tap]
        assert not link._fast
        del link.taps[0]
        assert link._fast

    def test_loss_probability_setter_toggles_flag_and_validates(self):
        sim = Simulator()
        *_, link = make_pair(sim)
        link.loss_probability = 0.25
        assert not link._fast
        link.loss_probability = 0.0
        assert link._fast
        with pytest.raises(ValueError):
            link.loss_probability = 1.5
        with pytest.raises(ValueError):
            link.loss_probability = -0.1
        assert link._fast  # rejected assignment leaves the flag alone

    def test_fault_injector_setter_toggles_flag(self):
        sim = Simulator()
        *_, link = make_pair(sim)

        class _Injector:
            def carry(self, link, src, packet):
                link.sim.post(link.propagation_ns, link.peer_of(src).deliver, packet)

        link.fault_injector = _Injector()
        assert not link._fast
        link.fault_injector = None
        assert link._fast

    def test_slow_path_delivers_identically(self):
        """With a no-op tap forcing the slow path, arrival times and
        packets match the fast path exactly."""

        def run(slow):
            sim = Simulator()
            _, b, ia, _, link = make_pair(sim)
            if slow:
                link.taps.append(lambda src, pkt: None)
            assert link._fast is (not slow)
            for _ in range(3):
                ia.send(make_udp_packet())
            sim.run()
            return [(t, p.pack()) for t, p in b.received]

        assert run(slow=False) == run(slow=True)

    def test_foreign_interface_rejected_on_both_paths(self):
        sim = Simulator()
        *_, link = make_pair(sim)
        stranger = SinkNode(sim, "s").add_interface("eth0", "02:00:00:00:00:ff")
        with pytest.raises(ValueError):
            link.carry(stranger, make_udp_packet())
        link.taps.append(lambda src, pkt: None)  # force slow path
        with pytest.raises(ValueError):
            link.carry(stranger, make_udp_packet())


class _PassRecorder(SwitchProgram):
    """Records each pipeline pass as (time, ingress port, packet), then drops."""

    def __init__(self):
        self.passes = []

    def on_ingress(self, ctx, packet):
        self.passes.append((self.switch.sim.now, ctx.in_port, packet))
        ctx.drop()


class TestOneEventPerFrame:
    """On a fast link a frame's start posts its delivery, or into a switch
    port its pipeline pass; a change to the fast path while it serializes
    revokes that event (DESIGN.md §5.1-5.2)."""

    FRAME = 1458  # payload of a 1500 B frame: 304 ns on the wire at 40 G

    def _frame_mid_change(self, change, at_ns=100.0):
        """Send one 1500 B frame at t=0 and run *change(link)* at *at_ns*."""
        sim = Simulator()
        _, b, ia, _, link = make_pair(sim)
        packet = make_udp_packet(payload=b"p" * self.FRAME)
        ia.send(packet)
        sim.schedule(at_ns, change, link)
        sim.run()
        return b, link, packet

    def test_an_idle_fast_link_fires_one_event_per_frame(self):
        sim = Simulator()
        _, b, ia, _, _ = make_pair(sim)
        for k in range(3):
            sim.schedule(k * 1_000.0, ia.send, make_udp_packet())
        sim.run()
        assert len(b.received) == 3
        assert sim.events_processed == 3 + 3  # three sends, three deliveries

    def test_a_frame_serializing_when_loss_becomes_certain_is_dropped(self):
        b, link, _ = self._frame_mid_change(lambda link: setattr(link, "loss_probability", 1.0))
        assert b.received == [] and link.lost_packets == 1

    def test_a_frame_already_propagating_lands_where_it_was_bound(self):
        b, link, packet = self._frame_mid_change(
            lambda link: setattr(link, "loss_probability", 1.0), at_ns=400.0
        )
        assert [p for _, p in b.received] == [packet] and link.lost_packets == 0

    def test_a_guard_attached_mid_frame_governs_that_frame(self):
        guards = []
        b, _, packet = self._frame_mid_change(lambda link: guards.append(LinkGuard(link)))
        guard, = guards
        assert guard.counts["protected"] == 1
        assert [p.pack() for _, p in b.received] == [packet.pack()]  # unshimmed

    def test_a_fault_injector_attached_mid_frame_governs_that_frame(self):
        injectors = []

        def attach(link):
            injector = LinkFaultInjector(link)
            injector.arm(IidLoss(1.0))
            injectors.append(injector)

        b, _, _ = self._frame_mid_change(attach)
        assert b.received == [] and injectors[0].dropped == 1

    def test_a_queued_frame_starts_at_the_free_time_with_the_reserved_seq(self):
        """The wake sorts where a tx-complete event posted at the first
        frame's start would: after an event posted before that start for
        the same instant, before one posted after it."""
        sim = Simulator()
        _, b, ia, _, _ = make_pair(sim, propagation_ns=0.0)
        first = make_udp_packet(payload=b"p" * self.FRAME)
        tx = first.wire_len * 8 * SEC / gbps(40)  # the serializer's own expression
        seen = []
        sim.schedule(tx, lambda: seen.append(("before", ia.tx_packets)))
        ia.send(first)
        free_at, reserved = ia._free_at, ia._tx_seq
        sim.schedule(tx, lambda: seen.append(("after", ia.tx_packets)))
        second, third = make_udp_packet(), make_udp_packet()
        ia.send(second)
        ia.send(third)
        assert ia._wake[:2] == [free_at, reserved]
        sim.run()
        assert seen == [("before", 1), ("after", 2)]
        # The third frame waited behind the second: its start re-checked the queue.
        small = second.wire_len * 8 * SEC / gbps(40)
        t1, t2, t3 = (t for t, _ in b.received)
        assert t1 == free_at == tx
        assert (t2, t3) == (pytest.approx(tx + small), pytest.approx(tx + 2 * small))

    # -- into a switch port: the start pushes the pipeline pass itself --------

    PROPAGATION = 250.1  # odd values: the pass time's float expression matters
    LATENCY = 400.3

    def _switch_rig(self):
        sim = Simulator()
        host = SinkNode(sim, "a")
        ia = host.add_interface("eth0", "02:00:00:00:00:0a")
        switch = ProgrammableSwitch(sim, "sw", SwitchConfig(pipeline_latency_ns=self.LATENCY))
        port = switch.port_interface(switch.add_port("02:00:00:00:01:00"))
        link = connect(sim, ia, port, gbps(40), propagation_ns=self.PROPAGATION)
        program = _PassRecorder()
        switch.bind_program(program)
        return sim, ia, port, link, switch, program

    def test_a_frame_into_an_idle_switch_costs_one_event_to_its_pass(self):
        sim, ia, port, _, switch, program = self._switch_rig()
        packet = make_udp_packet()
        ia.send(packet)  # outside the run: the start pushes the pass
        free_at = ia._free_at
        sim.run()
        assert sim.events_processed == 1
        assert program.passes == [((free_at + self.PROPAGATION) + self.LATENCY, 0, packet)]
        assert (port.rx_packets, port.rx_bytes) == (1, packet.wire_len)
        assert switch.stats.rx_packets == 1

    def test_the_fused_pass_fires_where_the_posted_one_did(self):
        """Against a slow link (a no-op tap), which carries, delivers and
        posts the pass: the same pass times, two events fewer a frame."""

        def run(slow):
            sim, ia, _, link, _, program = self._switch_rig()
            if slow:
                link.taps.append(lambda src, packet: None)
            for k in range(3):
                sim.schedule(k * 1_000.0, ia.send, make_udp_packet(payload=b"p" * 500))
            sim.run()
            return [t for t, _, _ in program.passes], sim.events_processed

        (fused, fused_events), (posted, posted_events) = run(False), run(True)
        assert fused == posted
        assert (fused_events, posted_events) == (3 + 3, 3 + 3 * 3)

    @pytest.mark.parametrize("hook", ["rx_tap", "shadowed_deliver"])
    def test_a_hooked_port_sees_the_frame_as_it_lands(self, hook):
        sim, ia, port, _, switch, program = self._switch_rig()
        seen = []
        if hook == "rx_tap":
            port.rx_taps.append(lambda packet: seen.append((sim.now, packet)))
        else:
            deliver = port.deliver

            def shadow(packet):
                seen.append((sim.now, packet))
                deliver(packet)

            port.deliver = shadow
        packet = make_udp_packet()
        ia.send(packet)
        arrival = ia._free_at + self.PROPAGATION
        sim.run()
        assert seen == [(arrival, packet)]
        assert program.passes == [(arrival + self.LATENCY, 0, packet)]
        assert sim.events_processed == 2  # the delivery, then the posted pass
        assert (port.rx_packets, switch.stats.rx_packets) == (1, 1)

    def test_a_frame_serializing_when_loss_becomes_certain_never_reaches_the_pipeline(self):
        sim, ia, port, link, switch, program = self._switch_rig()
        ia.send(make_udp_packet(payload=b"p" * self.FRAME))
        sim.schedule(100.0, setattr, link, "loss_probability", 1.0)
        sim.run()
        assert program.passes == [] and link.lost_packets == 1
        assert (port.rx_packets, switch.stats.rx_packets, switch.stats.processed) == (0, 0, 0)


def test_interface_without_link_raises():
    sim = Simulator()
    node = SinkNode(sim, "lonely")
    iface = node.add_interface("eth0", "02:00:00:00:00:01")
    with pytest.raises(RuntimeError):
        iface.send(make_udp_packet())


def test_duplicate_interface_name_rejected():
    sim = Simulator()
    node = SinkNode(sim, "n")
    node.add_interface("eth0", "02:00:00:00:00:01")
    with pytest.raises(ValueError):
        node.add_interface("eth0", "02:00:00:00:00:02")
