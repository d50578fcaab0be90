"""Focused tests for smaller APIs: the switch, topology, rocegen."""

import pytest

from repro.apps.programs import StaticL2Program
from repro.core.rocegen import RoceRequestGenerator
from repro.testbed import build_testbed
from repro.net.addresses import MacAddress
from repro.net.queues import TxQueue
from repro.rdma.constants import AethSyndrome, Opcode
from repro.rdma.headers import AethHeader, BthHeader
from repro.sim.units import gbps, mib
from tests.test_net_packet import make_udp_packet


class TestSwitchMisc:
    def build(self):
        tb = build_testbed(n_hosts=2, with_memory_server=False)
        program = StaticL2Program()
        for host, port in zip(tb.hosts, tb.host_ports):
            program.install(host.eth.mac, port)
        tb.switch.bind_program(program)
        return tb

    def test_port_of_round_trips(self):
        tb = self.build()
        for port in tb.host_ports:
            iface = tb.switch.port_interface(port)
            assert tb.switch.port_of(iface) == port

    def test_transmit_invalid_port_rejected(self):
        tb = self.build()
        with pytest.raises(ValueError):
            tb.switch.transmit(make_udp_packet(), 99)

    def test_unbound_program_raises(self):
        from repro.switches.switch import ProgrammableSwitch
        from repro.sim.simulator import Simulator

        sim = Simulator()
        switch = ProgrammableSwitch(sim, "bare")
        switch.add_port(MacAddress(1))
        switch.receive(make_udp_packet(), switch.port_interface(0))
        with pytest.raises(RuntimeError):
            sim.run()

    def test_stats_track_processing(self):
        tb = self.build()
        packet = make_udp_packet()
        packet.headers[0].dst = tb.hosts[1].eth.mac
        tb.hosts[0].send(packet)
        tb.sim.run()
        assert tb.switch.stats.rx_packets == 1
        assert tb.switch.stats.processed == 1
        assert tb.switch.stats.tx_packets == 1


class TestTopology:
    def test_multiple_memory_servers_named_and_addressed(self):
        tb = build_testbed(n_hosts=1, n_memory_servers=3)
        names = [s.name for s in tb.memory_servers]
        assert names == ["memserver0", "memserver1", "memserver2"]
        ips = {str(s.eth.ip) for s in tb.memory_servers}
        assert len(ips) == 3
        assert len(tb.server_ports) == 3

    def test_single_server_keeps_plain_name(self):
        tb = build_testbed(n_hosts=1)
        assert tb.memory_server.name == "memserver"

    def test_no_memory_server(self):
        tb = build_testbed(n_hosts=2, with_memory_server=False)
        assert tb.memory_server is None
        assert tb.server_port is None
        assert tb.server_link is None

    def test_open_channels_one_per_server(self):
        tb = build_testbed(n_hosts=1, n_memory_servers=2)
        channels = tb.open_channels(mib(1))
        assert len(channels) == 2
        assert channels[0].server is not channels[1].server

    def test_custom_link_rate(self):
        tb = build_testbed(n_hosts=1, link_rate_bps=gbps(100))
        assert tb.host_links[0].rate_bps == gbps(100)

    def test_seeds_are_stable(self):
        a = build_testbed(n_hosts=1, seed=9)
        b = build_testbed(n_hosts=1, seed=9)
        assert a.seeds.stream("x").random() == b.seeds.stream("x").random()


class TestRoceGenMisc:
    def build(self):
        tb = build_testbed(n_hosts=1)
        program = StaticL2Program()
        program.install(tb.hosts[0].eth.mac, tb.host_ports[0])
        program.install(tb.memory_server.eth.mac, tb.server_port)
        tb.switch.bind_program(program)
        channel = tb.controller.open_channel(tb.memory_server, tb.server_port, mib(1))
        return tb, channel, RoceRequestGenerator(tb.switch, channel)

    def test_resync_only_on_sequence_error(self):
        """A sequence-error NAK naming e resyncs and loses the tracked
        suffix from e on, nothing before it; any other NAK loses the one
        request it names and does not resync."""
        tb, channel, _ = self.build()
        lost = []
        gen = RoceRequestGenerator(
            tb.switch, channel, lambda g, entries, cause: lost.append((entries, cause))
        )
        requests = [gen.read(channel.base_address, 4, name) for name in "abcd"]
        from repro.rdma.packets import build_ack

        access = build_ack(
            requests[3], channel.server_qp, syndrome=AethSyndrome.NAK_REMOTE_ACCESS_ERROR
        )
        assert gen.accept_response(access) == (Opcode.ACKNOWLEDGE, True, None)
        assert channel.switch_qp.next_psn == 4
        assert lost == [([(3, "d")], "nak")] and gen.window == {0: "a", 1: "b", 2: "c"}
        sequence = build_ack(
            requests[0], channel.server_qp,
            syndrome=AethSyndrome.NAK_PSN_SEQUENCE_ERROR, psn_override=1,
        )
        gen.accept_response(sequence)
        assert channel.switch_qp.next_psn == 1
        assert lost[1:] == [([(1, "b"), (2, "c")], "nak")] and gen.window == {0: "a"}

    def test_classify_counts_nak(self):
        tb, channel, gen = self.build()
        request = gen.read(channel.base_address, 4)
        from repro.rdma.packets import build_ack

        nak = build_ack(
            request, channel.server_qp,
            syndrome=AethSyndrome.NAK_PSN_SEQUENCE_ERROR,
        )
        assert gen.accept_response(nak)[:2] == (Opcode.ACKNOWLEDGE, True)
        assert gen.metrics["naks_received"] == 1
        assert gen.metrics["responses_handled"] == 1

    def test_a_response_to_another_qpn_reaches_no_handler(self):
        tb, channel, _ = self.build()
        handled = []
        RoceRequestGenerator(tb.switch, channel, on_response=lambda *args: handled.append(args))
        packet = make_udp_packet()
        packet.append(BthHeader(opcode=Opcode.ACKNOWLEDGE, dest_qp=0xBEEF, psn=0))
        tb.switch.receive(packet, tb.switch.port_interface(tb.host_ports[0]))
        tb.sim.run()
        assert handled == [] and tb.switch.stats.dropped_by_program == 1


class TestTxQueuePeek:
    def test_peek_does_not_dequeue(self):
        queue = TxQueue()
        p = make_udp_packet()
        queue.offer(p)
        assert queue.peek() is p
        assert len(queue) == 1
        assert queue.poll() is p
        assert queue.peek() is None

    def test_packet_capacity(self):
        queue = TxQueue(capacity_packets=2)
        assert queue.offer(make_udp_packet())
        assert queue.offer(make_udp_packet())
        assert not queue.offer(make_udp_packet())
        assert queue.dropped_packets == 1
