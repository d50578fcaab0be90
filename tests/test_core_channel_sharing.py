"""Tests for region-shared channels (separate QPs, one memory region)."""

import pytest

from repro.apps.programs import StaticL2Program
from repro.core.channel import ChannelError
from repro.core.rocegen import RoceRequestGenerator
from repro.testbed import build_testbed
from repro.sim.units import mib


def make_shared_testbed(n_memory_servers=1):
    tb = build_testbed(n_hosts=1, n_memory_servers=n_memory_servers)
    program = StaticL2Program()
    program.install(tb.hosts[0].eth.mac, tb.host_ports[0])
    for server, port in zip(tb.memory_servers, tb.server_ports):
        program.install(server.eth.mac, port)
    tb.switch.bind_program(program)
    return tb


class TestSharedRegionChannels:
    def test_shared_channel_uses_same_region(self):
        tb = make_shared_testbed()
        primary = tb.controller.open_channel(
            tb.memory_server, tb.server_port, mib(1)
        )
        shared = tb.controller.open_channel(
            tb.memory_server, tb.server_port, share_region_with=primary
        )
        assert shared.region is primary.region
        assert shared.rkey == primary.rkey
        assert shared.base_address == primary.base_address
        # But the QPs are distinct (that is the point).
        assert shared.switch_qp.qpn != primary.switch_qp.qpn
        assert shared.server_qp.qpn != primary.server_qp.qpn

    def test_sharing_does_not_consume_more_dram(self):
        tb = make_shared_testbed()
        primary = tb.controller.open_channel(
            tb.memory_server, tb.server_port, mib(1)
        )
        before = tb.memory_server.dram.registered_bytes
        tb.controller.open_channel(
            tb.memory_server, tb.server_port, share_region_with=primary
        )
        assert tb.memory_server.dram.registered_bytes == before

    def test_both_qps_reach_the_same_memory(self):
        tb = make_shared_testbed()
        primary = tb.controller.open_channel(
            tb.memory_server, tb.server_port, mib(1)
        )
        shared = tb.controller.open_channel(
            tb.memory_server, tb.server_port, share_region_with=primary
        )
        writer = RoceRequestGenerator(tb.switch, primary)
        reader = RoceRequestGenerator(tb.switch, shared)
        writer.write(primary.base_address, b"via-qp-A")
        tb.sim.run()
        reader.read(shared.base_address, 8)
        tb.sim.run()
        assert primary.region.read(primary.base_address, 8) == b"via-qp-A"
        # Independent PSN streams: each QP advanced on its own.
        assert primary.switch_qp.next_psn == 1
        assert shared.switch_qp.next_psn == 1

    def test_cross_server_sharing_rejected(self):
        tb = make_shared_testbed(n_memory_servers=2)
        primary = tb.controller.open_channel(
            tb.memory_servers[0], tb.server_ports[0], mib(1)
        )
        with pytest.raises(ChannelError):
            tb.controller.open_channel(
                tb.memory_servers[1],
                tb.server_ports[1],
                share_region_with=primary,
            )
