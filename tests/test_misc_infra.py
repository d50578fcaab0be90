"""Tests for the remaining infrastructure: hosts, RNG, pausing, module reach."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

from repro.hosts.server import Host, MemoryServer
from repro.net.link import connect
from repro.rdma.memory import AccessFlags
from repro.sim.rng import SeedSequence
from repro.sim.simulator import Simulator
from repro.sim.units import gbps, gib
from tests.test_net_packet import make_udp_packet


class TestSeedSequence:
    def test_streams_memoised(self):
        seeds = SeedSequence(1)
        assert seeds.stream("a") is seeds.stream("a")

    def test_streams_independent(self):
        seeds = SeedSequence(1)
        a = [seeds.stream("a").random() for _ in range(5)]
        b = [seeds.stream("b").random() for _ in range(5)]
        assert a != b

    def test_reproducible_across_instances(self):
        x = SeedSequence(42).stream("w").random()
        y = SeedSequence(42).stream("w").random()
        assert x == y

    def test_different_roots_differ(self):
        assert (
            SeedSequence(1).derive_seed("x") != SeedSequence(2).derive_seed("x")
        )

    def test_spawn_children_stable(self):
        child_a = SeedSequence(7).spawn("child")
        child_b = SeedSequence(7).spawn("child")
        assert child_a.root_seed == child_b.root_seed


class TestHosts:
    def make_pair(self):
        sim = Simulator()
        a = Host(sim, "a", "02:00:00:00:00:01", "10.0.0.1")
        b = MemoryServer(sim, "b", "02:00:00:00:00:02", "10.0.0.2")
        connect(sim, a.eth, b.eth, gbps(40))
        return sim, a, b

    def test_non_roce_traffic_reaches_handlers(self):
        sim, a, b = self.make_pair()
        seen = []
        b.packet_handlers.append(lambda p, i: seen.append(p))
        packet = make_udp_packet()
        packet.headers[0].dst = b.eth.mac
        a.send(packet)
        sim.run()
        assert len(seen) == 1
        assert b.cpu_packets == 1  # MemoryServer counts CPU deliveries

    def test_lend_memory_tracks_regions(self):
        sim, a, b = self.make_pair()
        region = b.lend_memory(4096, access=AccessFlags.REMOTE_READ)
        assert region in b.lent_regions
        assert region.access == AccessFlags.REMOTE_READ

    def test_default_dram_matches_testbed_servers(self):
        sim, a, b = self.make_pair()
        assert b.dram.capacity_bytes == gib(64)

    def test_rx_counters(self):
        sim, a, b = self.make_pair()
        packet = make_udp_packet()
        packet.headers[0].dst = b.eth.mac
        a.send(packet)
        sim.run()
        assert b.rx_packets == 1
        assert b.rx_bytes == packet.buffer_len


class TestInterfacePause:
    def test_pause_holds_queue(self):
        from repro.net.node import Node

        class Sink(Node):
            def __init__(self, sim, name):
                super().__init__(sim, name)
                self.eth = self.add_interface("eth0", "02:00:00:00:00:0a")
                self.got = []

            def receive(self, packet, interface):
                self.got.append(packet)

        sim = Simulator()
        a, b = Sink(sim, "a"), Sink(sim, "b")
        connect(sim, a.eth, b.eth, gbps(40))
        a.eth.set_paused(True)
        a.eth.send(make_udp_packet())
        sim.run()
        assert b.got == []
        a.eth.set_paused(False)
        sim.run()
        assert len(b.got) == 1

    def test_in_flight_packet_completes_despite_pause(self):
        from repro.net.node import Node

        class Sink(Node):
            def __init__(self, sim, name):
                super().__init__(sim, name)
                self.eth = self.add_interface("eth0", "02:00:00:00:00:0b")
                self.got = []

            def receive(self, packet, interface):
                self.got.append(packet)

        sim = Simulator()
        a, b = Sink(sim, "a"), Sink(sim, "b")
        connect(sim, a.eth, b.eth, gbps(40))
        a.eth.send(make_udp_packet())  # serialization starts immediately
        a.eth.set_paused(True)
        sim.run()
        assert len(b.got) == 1  # the wire finishes what it started


def test_every_module_is_imported_by_the_api_an_experiment_or_the_cli():
    """A module that none of the three entry points imports is code that
    nothing runs (only tests could reach it): delete it, or reach it."""
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        f"import sys; sys.path[:0] = [{str(src)!r}]\n"
        "import repro.api as api, repro.cli, repro.experiments as experiments\n"
        "[getattr(api, name) for name in api.__all__]\n"
        "[experiments.load(name) for name in experiments.REGISTRY]\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'repro'))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], stdout=subprocess.PIPE, text=True, check=True, timeout=120
    )
    modules = {
        ".".join(path.relative_to(src).with_suffix("").parts).replace(".__init__", "")
        for path in (src / "repro").rglob("*.py")
    }
    assert sorted(modules - set(ast.literal_eval(done.stdout))) == []
