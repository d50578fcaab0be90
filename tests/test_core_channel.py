"""Tests for the RDMA channel controller and the request generator."""

import pytest

from repro.core.channel import ChannelError
from repro.core.rocegen import RoceRequestGenerator
from repro.rdma.constants import Opcode
from repro.testbed import build_testbed
from repro.rdma.qp import QpState
from repro.sim.units import mib


def open_channel(testbed, size=mib(1)):
    return testbed.controller.open_channel(
        testbed.memory_server, testbed.server_port, size
    )


class TestChannelController:
    def test_open_channel_registers_memory(self):
        tb = build_testbed()
        channel = open_channel(tb, size=mib(2))
        assert channel.length == mib(2)
        assert channel.region in tb.memory_server.lent_regions
        assert channel.rkey == channel.region.rkey
        assert channel.base_address == channel.region.base_address

    def test_qps_are_connected(self):
        tb = build_testbed()
        channel = open_channel(tb)
        assert channel.switch_qp.state is QpState.RTS
        assert channel.server_qp.state is QpState.RTS
        assert channel.switch_qp.dest_qpn == channel.server_qp.qpn
        assert channel.server_qp.dest_qpn == channel.switch_qp.qpn

    def test_channel_identity_comes_from_server_port(self):
        tb = build_testbed()
        channel = open_channel(tb)
        port_iface = tb.switch.port_interface(tb.server_port)
        assert channel.switch_qp.local_ip == port_iface.ip
        assert channel.switch_qp.local_mac == port_iface.mac

    def test_wrong_port_rejected(self):
        tb = build_testbed()
        with pytest.raises(ChannelError):
            tb.controller.open_channel(
                tb.memory_server, tb.host_ports[0], mib(1)
            )

    def test_nonexistent_port_rejected(self):
        tb = build_testbed()
        with pytest.raises(ChannelError):
            tb.controller.open_channel(tb.memory_server, 99, mib(1))

    def test_multiple_channels_disjoint(self):
        tb = build_testbed()
        a = open_channel(tb)
        b = open_channel(tb)
        assert a.rkey != b.rkey
        assert a.switch_qp.qpn != b.switch_qp.qpn
        assert a.end_address <= b.base_address

    def test_close_channel_invalidates(self):
        tb = build_testbed()
        channel = open_channel(tb)
        tb.controller.close_channel(channel)
        assert not channel.region.valid
        assert channel not in tb.controller.channels


class DummyProgram:
    """Minimal program so the switch pipeline can run."""

    seen = 0

    def attach(self, switch):
        pass

    def on_ingress(self, ctx, packet):
        self.seen += 1
        ctx.drop()


class TestRoceRequestGenerator:
    def make(self):
        tb = build_testbed()
        tb.switch.bind_program(DummyProgram())
        channel = open_channel(tb)
        gen = RoceRequestGenerator(tb.switch, channel)
        return tb, channel, gen

    def test_write_executes_remotely_with_zero_cpu(self):
        tb, channel, gen = self.make()
        gen.write(channel.base_address + 8, b"switch-data")
        tb.sim.run()
        assert channel.region.read(channel.base_address + 8, 11) == b"switch-data"
        assert tb.memory_server.cpu_packets == 0
        assert gen.metrics["writes_issued"] == 1

    def test_read_response_returns_to_switch(self):
        tb, channel, gen = self.make()
        channel.region.write(channel.base_address, b"stored")
        gen.read(channel.base_address, 6)
        tb.sim.run()
        # The response came back and hit the (dropping) pipeline.
        assert tb.switch.stats.rx_packets == 1

    def test_fetch_add_applies(self):
        tb, channel, gen = self.make()
        gen.fetch_add(channel.base_address, 41)
        tb.sim.run()
        value = int.from_bytes(channel.region.read(channel.base_address, 8), "big")
        assert value == 41
        assert gen.metrics["fetch_adds_issued"] == 1

    def test_out_of_range_rejected_locally(self):
        tb, channel, gen = self.make()
        with pytest.raises(ValueError):
            gen.write(channel.end_address, b"x")
        with pytest.raises(ValueError):
            gen.read(channel.base_address - 1, 1)

    def test_request_bytes_accounted(self):
        tb, channel, gen = self.make()
        request = gen.write(channel.base_address, b"abc")
        assert gen.metrics["request_wire_bytes"] == request.wire_len

    def test_a_response_reaches_its_requesters_handler(self):
        tb = build_testbed()
        program = DummyProgram()
        tb.switch.bind_program(program)
        channel = open_channel(tb)
        handled = []
        gen = RoceRequestGenerator(
            tb.switch, channel,
            on_response=lambda ctx, packet, *result: handled.append((ctx.dropped, *result)),
        )
        assert tb.switch.requesters == {channel.switch_qp.qpn: gen}
        gen.read(channel.base_address, 4, context="ctx")
        tb.sim.run()
        assert handled == [(True, Opcode.RDMA_READ_RESPONSE_ONLY, False, "ctx")]
        assert program.seen == 0  # the program never saw the response
        assert tb.switch.stats.dropped_by_program == 1
