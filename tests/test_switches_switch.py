"""Integration tests: programmable switch + traffic manager + static L2 program."""

import pytest

from repro.apps.programs import StaticL2Program
from repro.net.addresses import MacAddress
from repro.net.link import connect
from repro.net.node import Node
from repro.net.packet import Packet
from repro.net.headers import EthernetHeader
from repro.sim.simulator import Simulator
from repro.sim.units import gbps, kib
from repro.switches.pipeline import SwitchProgram
from repro.switches.switch import ProgrammableSwitch, SwitchConfig
from repro.switches.traffic_manager import HookVerdict, TrafficManagerConfig
from tests.test_net_packet import make_udp_packet


class SinkHost(Node):
    def __init__(self, sim, name, mac):
        super().__init__(sim, name)
        self.eth = self.add_interface("eth0", mac)
        self.received = []

    def receive(self, packet, interface):
        self.received.append((self.sim.now, packet))

    def send(self, packet):
        return self.eth.send(packet)


def build_fabric(sim, n_hosts=3, tm_config=None, switch_config=None):
    """n hosts star-wired to one switch forwarding by installed MACs."""
    switch = ProgrammableSwitch(
        sim, "sw", config=switch_config, tm_config=tm_config
    )
    program = StaticL2Program()
    switch.bind_program(program)
    hosts = []
    for i in range(n_hosts):
        host = SinkHost(sim, f"h{i}", MacAddress(0x0200_0000_0000 + i + 1))
        port = switch.add_port(MacAddress(0x0200_0000_1000 + i + 1))
        connect(sim, host.eth, switch.port_interface(port), gbps(40))
        program.install(host.eth.mac, port)
        hosts.append(host)
    return switch, hosts


def packet_between(hosts, src_idx, dst_idx, payload=b"x" * 100):
    packet = make_udp_packet(payload=payload)
    packet.pop()
    packet.push(
        EthernetHeader(dst=hosts[dst_idx].eth.mac, src=hosts[src_idx].eth.mac)
    )
    return packet


def test_forwarding_latency_includes_pipeline():
    sim = Simulator()
    config = SwitchConfig(pipeline_latency_ns=400.0)
    switch, hosts = build_fabric(sim, switch_config=config)
    packet = packet_between(hosts, 0, 1)
    hosts[0].send(packet)
    sim.run()
    arrival, _ = hosts[1].received[0]
    serialize = packet.wire_len * 8 / 40e9 * 1e9
    expected = 2 * serialize + 2 * 250.0 + 400.0
    assert arrival == pytest.approx(expected)


def test_shared_buffer_overflow_drops():
    sim = Simulator()
    tm = TrafficManagerConfig(buffer_bytes=kib(4))
    switch, hosts = build_fabric(sim, tm_config=tm)
    # Two senders at 40 Gbps into one 40 Gbps egress: 2:1 incast.
    for _ in range(20):
        hosts[0].send(packet_between(hosts, 0, 1, payload=b"y" * 1458))
        hosts[2].send(packet_between(hosts, 2, 1, payload=b"y" * 1458))
    sim.run()
    assert switch.tm.total_dropped_packets > 0
    assert len(hosts[1].received) < 40
    # Buffer accounting must return to zero once drained.
    assert switch.tm.used_bytes == 0


class EmittingProgram(SwitchProgram):
    """Forwards the packet and emits a clone out of port 0."""

    def on_ingress(self, ctx, packet):
        clone = packet.clone()
        clone.meta["is_clone"] = True
        ctx.emit(clone, 0)
        ctx.forward(1)


def test_emit_sends_a_copy_beside_the_verdict():
    sim = Simulator()
    switch = ProgrammableSwitch(sim, "sw")
    switch.bind_program(EmittingProgram())
    h0 = SinkHost(sim, "h0", MacAddress(1))
    h1 = SinkHost(sim, "h1", MacAddress(2))
    connect(sim, h0.eth, switch.port_interface(switch.add_port(MacAddress(0x10))), gbps(40))
    connect(sim, h1.eth, switch.port_interface(switch.add_port(MacAddress(0x11))), gbps(40))
    h0.send(make_udp_packet())
    sim.run()
    assert len(h1.received) == 1
    assert len(h0.received) == 1
    assert h0.received[0][1].meta.get("is_clone")


def test_egress_hook_can_consume_packets():
    sim = Simulator()
    switch, hosts = build_fabric(sim)
    consumed = []

    def hook(port, packet, queue):
        consumed.append((port, packet))
        return HookVerdict.CONSUMED

    switch.tm.egress_hook = hook
    hosts[0].send(packet_between(hosts, 0, 1))
    sim.run()
    assert [port for port, _ in consumed] == [1]
    assert all(len(h.received) == 0 for h in hosts)
    assert switch.tm.total_dropped_packets == 0


def test_dequeue_listener_fires():
    sim = Simulator()
    switch, hosts = build_fabric(sim)
    events = []
    switch.tm.dequeue_listeners.append(
        lambda port, packet, queue: events.append(port)
    )
    hosts[0].send(packet_between(hosts, 0, 1))
    sim.run()
    assert events == [1]
