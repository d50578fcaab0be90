"""Tests for the bare-metal virtual switch (§2.2)."""

import pytest

from repro.apps.virtual_switch import VipMapping, VirtualSwitchProgram
from repro.baselines.cpu_slowpath import CpuSlowPath, CpuSlowPathConfig
from repro.core.lookup_table import LookupTableConfig, RemoteLookupTable
from repro.testbed import build_testbed
from repro.net.addresses import Ipv4Address
from repro.net.headers import Ipv4Header
from repro.sim.units import usec
from repro.workloads.factory import udp_between


def build(mode, sram_entries=2, n_mappings=5):
    tb = build_testbed(n_hosts=2, with_memory_server=mode == "remote")
    blackbox, vm_host = tb.hosts
    program = VirtualSwitchProgram(sram_entries=sram_entries)
    program.install(blackbox.eth.mac, tb.host_ports[0])
    program.install(vm_host.eth.mac, tb.host_ports[1])
    tb.switch.bind_program(program)
    if mode == "remote":
        config = LookupTableConfig(entries=1 << 10, cache_entries=sram_entries)
        channel = tb.controller.open_channel(
            tb.memory_server, tb.server_port,
            config.entries * config.entry_bytes,
        )
        program.use_remote_table(RemoteLookupTable(tb.switch, channel, config=config))
    elif mode == "slowpath":
        program.use_slow_path(CpuSlowPath(tb.sim, CpuSlowPathConfig()))
    mappings = []
    for i in range(n_mappings):
        mapping = VipMapping(
            vip=Ipv4Address(f"172.16.0.{i + 1}"),
            pip=Ipv4Address(f"10.99.0.{i + 1}"),
            pip_mac=vm_host.eth.mac,
            egress_port=tb.host_ports[1],
        )
        program.add_mapping(mapping)
        mappings.append(mapping)
    return tb, program, mappings


def send_to_vip(tb, vip, received):
    packet = udp_between(tb.hosts[0], tb.hosts[1], 256)
    packet.require(Ipv4Header).dst = Ipv4Address(vip)
    tb.hosts[0].send(packet)
    return packet


class TestRemoteMode:
    def test_translation_rewrites_destination(self):
        tb, program, mappings = build("remote")
        received = []
        tb.hosts[1].packet_handlers.append(lambda p, i: received.append(p))
        send_to_vip(tb, "172.16.0.3", received)
        tb.sim.run()
        assert len(received) == 1
        assert received[0].ipv4.dst == Ipv4Address("10.99.0.3")
        assert received[0].eth.dst == tb.hosts[1].eth.mac

    def test_second_packet_to_same_vip_hits_cache(self):
        tb, program, mappings = build("remote")
        received = []
        tb.hosts[1].packet_handlers.append(lambda p, i: received.append(p))
        send_to_vip(tb, "172.16.0.1", received)
        tb.sim.run()
        send_to_vip(tb, "172.16.0.1", received)
        tb.sim.run()
        assert len(received) == 2
        assert program.lookup_table.metrics["remote_lookups"] == 1
        assert program.lookup_table.metrics["local_hits"] == 1

    def test_vip_keying_ignores_ports(self):
        """Different flows to the same VIP share one table entry."""
        tb, program, mappings = build("remote")
        received = []
        tb.hosts[1].packet_handlers.append(lambda p, i: received.append(p))
        for sport in (1000, 2000, 3000):
            packet = udp_between(
                tb.hosts[0], tb.hosts[1], 256, src_port=sport
            )
            packet.require(Ipv4Header).dst = Ipv4Address("172.16.0.2")
            tb.hosts[0].send(packet)
            tb.sim.run()
        assert len(received) == 3
        assert program.lookup_table.metrics["remote_lookups"] == 1

    def test_non_vip_traffic_forwards_normally(self):
        tb, program, mappings = build("remote")
        received = []
        tb.hosts[1].packet_handlers.append(lambda p, i: received.append(p))
        tb.hosts[0].send(udp_between(tb.hosts[0], tb.hosts[1], 256))
        tb.sim.run()
        assert len(received) == 1
        assert received[0].ipv4.dst == tb.hosts[1].eth.ip  # untouched

    def test_zero_cpu_on_memory_server(self):
        tb, program, mappings = build("remote")
        send_to_vip(tb, "172.16.0.1", [])
        tb.sim.run()
        assert tb.memory_server.cpu_packets == 0


class TestSlowPathMode:
    def test_sram_hits_are_fast(self):
        tb, program, mappings = build("slowpath", sram_entries=10)
        received = []
        tb.hosts[1].packet_handlers.append(lambda p, i: received.append(p))
        send_to_vip(tb, "172.16.0.1", received)
        tb.sim.run()
        assert len(received) == 1
        assert program.fast_translations == 1
        assert program.slow_path_translations == 0

    def test_sram_overflow_takes_slow_path(self):
        # SRAM holds 2 entries; the 5th VIP missed SRAM at install time.
        tb, program, mappings = build("slowpath", sram_entries=2)
        received = []
        arrival_times = []
        tb.hosts[1].packet_handlers.append(
            lambda p, i: (received.append(p), arrival_times.append(tb.sim.now))
        )
        send_to_vip(tb, "172.16.0.5", received)
        tb.sim.run()
        assert len(received) == 1
        assert program.slow_path_translations == 1
        assert received[0].ipv4.dst == Ipv4Address("10.99.0.5")
        # Software path costs tens of microseconds.
        assert arrival_times[0] > usec(20)

    def test_slow_path_latency_much_higher(self):
        tb, program, mappings = build("slowpath", sram_entries=2)
        times = {}

        def record(name):
            def handler(p, i):
                times[name] = tb.sim.now
            return handler

        tb.hosts[1].packet_handlers.append(record("first"))
        send_to_vip(tb, "172.16.0.1", [])  # SRAM hit
        tb.sim.run()
        fast_time = times["first"]
        tb2, program2, _ = build("slowpath", sram_entries=2)
        tb2.hosts[1].packet_handlers.append(
            lambda p, i: times.__setitem__("slow", tb2.sim.now)
        )
        packet = udp_between(tb2.hosts[0], tb2.hosts[1], 256)
        packet.require(Ipv4Header).dst = Ipv4Address("172.16.0.5")
        tb2.hosts[0].send(packet)
        tb2.sim.run()
        assert times["slow"] > 10 * fast_time

    def test_no_slow_path_configured_drops(self):
        tb, program, mappings = build("none", sram_entries=2)
        received = []
        tb.hosts[1].packet_handlers.append(lambda p, i: received.append(p))
        send_to_vip(tb, "172.16.0.5", received)
        tb.sim.run()
        assert received == []
        assert program.untranslatable_drops == 1


class TestCpuSlowPathModel:
    def test_latency_applied(self, sim):
        from repro.net.packet import Packet

        slow = CpuSlowPath(sim, CpuSlowPathConfig(latency_ns=usec(30)))
        done = []
        slow.submit(Packet(payload=b"x"), lambda p: done.append(sim.now))
        sim.run()
        assert done[0] == pytest.approx(usec(30))

    def test_rate_limits_throughput(self, sim):
        from repro.net.packet import Packet

        slow = CpuSlowPath(
            sim, CpuSlowPathConfig(latency_ns=usec(10), rate_pps=1e6)
        )
        done = []
        for _ in range(10):
            slow.submit(Packet(payload=b"x"), lambda p: done.append(sim.now))
        sim.run()
        # Completions spaced by the 1 us service time.
        deltas = [b - a for a, b in zip(done, done[1:])]
        assert all(d == pytest.approx(usec(1)) for d in deltas)

    def test_queue_overflow_drops(self, sim):
        from repro.net.packet import Packet

        slow = CpuSlowPath(sim, CpuSlowPathConfig(queue_packets=3))
        accepted = [
            slow.submit(Packet(payload=b"x"), lambda p: None) for _ in range(6)
        ]
        assert accepted.count(False) >= 2
        assert slow.stats.packets_dropped >= 2
