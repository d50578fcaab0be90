"""Tests for the workload generators."""

import pytest

from repro.apps.programs import StaticL2Program
from repro.testbed import build_testbed
from repro.sim.units import gbps, msec, usec
from repro.workloads.factory import UDP_HEADER_BYTES, udp_between
from repro.workloads.flows import ZipfFlowWorkload, ZipfSampler
from repro.workloads.incast import IncastWorkload
from repro.workloads.netpipe import PingPong
from repro.workloads.perftest import PacketSink, RawEthernetBw


def forwarding_testbed(n_hosts=2, **kwargs):
    tb = build_testbed(n_hosts=n_hosts, with_memory_server=False, **kwargs)
    program = StaticL2Program()
    for host, port in zip(tb.hosts, tb.host_ports):
        program.install(host.eth.mac, port)
    tb.switch.bind_program(program)
    return tb


class TestFactory:
    def test_packet_size_is_total_frame(self):
        tb = forwarding_testbed()
        packet = udp_between(tb.hosts[0], tb.hosts[1], 512)
        assert packet.buffer_len == 512

    def test_minimum_size_enforced(self):
        tb = forwarding_testbed()
        with pytest.raises(ValueError):
            udp_between(tb.hosts[0], tb.hosts[1], UDP_HEADER_BYTES - 1)

    def test_addressing(self):
        tb = forwarding_testbed()
        packet = udp_between(tb.hosts[0], tb.hosts[1], 100)
        assert packet.eth.dst == tb.hosts[1].eth.mac
        assert packet.ipv4.src == tb.hosts[0].eth.ip


class TestRawEthernetBw:
    def test_sends_exact_count(self):
        tb = forwarding_testbed()
        sink = PacketSink(tb.hosts[1], dst_port=20_000)
        gen = RawEthernetBw(
            tb.sim, tb.hosts[0], tb.hosts[1],
            packet_size=256, rate_bps=gbps(10), count=37,
        )
        gen.start()
        tb.sim.run()
        assert gen.report.packets_sent == 37
        assert sink.packets == 37

    def test_offered_rate_close_to_target(self):
        tb = forwarding_testbed()
        gen = RawEthernetBw(
            tb.sim, tb.hosts[0], tb.hosts[1],
            packet_size=1500, rate_bps=gbps(20), count=200,
        )
        gen.start()
        tb.sim.run()
        # Offered rate is paced on wire bytes; frame-byte rate is slightly
        # below the wire target.
        measured = gen.report.offered_rate_bps()
        assert measured == pytest.approx(gbps(20) * 1500 / 1520, rel=0.02)

    def test_duration_bounded(self):
        tb = forwarding_testbed()
        gen = RawEthernetBw(
            tb.sim, tb.hosts[0], tb.hosts[1],
            packet_size=1500, rate_bps=gbps(40), duration_ns=usec(10),
        )
        gen.start()
        tb.sim.run()
        assert gen.report.duration_ns <= usec(10)
        assert gen.report.packets_sent > 10

    def test_requires_count_or_duration(self):
        tb = forwarding_testbed()
        with pytest.raises(ValueError):
            RawEthernetBw(tb.sim, tb.hosts[0], tb.hosts[1], rate_bps=gbps(1))

    def test_sink_filters_by_port(self):
        tb = forwarding_testbed()
        sink = PacketSink(tb.hosts[1], dst_port=999)
        gen = RawEthernetBw(
            tb.sim, tb.hosts[0], tb.hosts[1],
            packet_size=256, rate_bps=gbps(10), count=5, dst_port=20_000,
        )
        gen.start()
        tb.sim.run()
        assert sink.packets == 0


class TestPingPong:
    def test_completes_all_probes(self):
        tb = forwarding_testbed()
        pp = PingPong(tb.sim, tb.hosts[0], tb.hosts[1], packet_size=64, probes=10)
        pp.start()
        tb.sim.run()
        assert pp.completed == 10

    def test_latency_scales_with_size(self):
        small = forwarding_testbed()
        pp_small = PingPong(small.sim, small.hosts[0], small.hosts[1], 64, probes=5)
        pp_small.start()
        small.sim.run()
        big = forwarding_testbed()
        pp_big = PingPong(big.sim, big.hosts[0], big.hosts[1], 1024, probes=5)
        pp_big.start()
        big.sim.run()
        assert pp_big.median_oneway_ns() > pp_small.median_oneway_ns()

    def test_no_probes_raises(self):
        tb = forwarding_testbed()
        pp = PingPong(tb.sim, tb.hosts[0], tb.hosts[1], probes=5)
        with pytest.raises(RuntimeError):
            pp.median_rtt_ns()


class TestZipf:
    def test_sampler_bounds(self):
        import random

        sampler = ZipfSampler(100, 1.2, random.Random(1))
        samples = [sampler.sample() for _ in range(1000)]
        assert all(0 <= s < 100 for s in samples)

    def test_skew_orders_popularity(self):
        import random

        sampler = ZipfSampler(1000, 1.2, random.Random(1))
        counts = {}
        for _ in range(20_000):
            rank = sampler.sample()
            counts[rank] = counts.get(rank, 0) + 1
        assert counts.get(0, 0) > counts.get(500, 0)

    def test_alpha_zero_is_uniformish(self):
        import random

        sampler = ZipfSampler(10, 0.0, random.Random(1))
        counts = [0] * 10
        for _ in range(10_000):
            counts[sampler.sample()] += 1
        assert min(counts) > 700

    def test_invalid_geometry(self):
        import random

        with pytest.raises(ValueError):
            ZipfSampler(0, 1.0, random.Random(1))
        with pytest.raises(ValueError):
            ZipfSampler(10, -1.0, random.Random(1))

    def _workload(self, **kwargs):
        tb = forwarding_testbed()
        return ZipfFlowWorkload(tb.sim, tb.hosts[0], tb.hosts[1], flows=50, **kwargs)

    def test_workload_rejects_a_zero_rate(self):
        """It raised ZeroDivisionError from the gap arithmetic."""
        with pytest.raises(ValueError):
            self._workload(rate_bps=0)

    def test_workload_rejects_a_negative_rate(self):
        """It built, and its first tick raised SimulationError from inside
        ``sim.run()`` (a negative delay)."""
        with pytest.raises(ValueError):
            self._workload(rate_bps=-gbps(10))

    def test_workload_rejects_a_negative_count(self):
        """It built an empty schedule and sent nothing."""
        with pytest.raises(ValueError):
            self._workload(count=-1)

    def test_workload_counts_flows(self):
        tb = forwarding_testbed()
        workload = ZipfFlowWorkload(
            tb.sim, tb.hosts[0], tb.hosts[1],
            flows=50, alpha=1.0, count=300, rate_bps=gbps(10), seed=3,
        )
        workload.start()
        tb.sim.run()
        assert workload.packets_sent == 300
        assert sum(workload.sent_by_rank.values()) == 300
        assert 1 <= workload.distinct_flows_sent() <= 50

    def test_workload_deterministic_per_seed(self):
        def run(seed):
            tb = forwarding_testbed()
            w = ZipfFlowWorkload(
                tb.sim, tb.hosts[0], tb.hosts[1],
                flows=20, count=100, rate_bps=gbps(10), seed=seed,
            )
            w.start()
            tb.sim.run()
            return dict(w.sent_by_rank)

        assert run(5) == run(5)
        assert run(5) != run(6)

    def test_heavy_hitters_ground_truth(self):
        tb = forwarding_testbed()
        w = ZipfFlowWorkload(
            tb.sim, tb.hosts[0], tb.hosts[1],
            flows=100, alpha=1.5, count=500, rate_bps=gbps(10),
        )
        w.start()
        tb.sim.run()
        hh = w.heavy_hitters(threshold=20)
        assert all(count >= 20 for count in hh.values())


class TestIncastWorkload:
    def test_all_senders_fire(self):
        tb = forwarding_testbed(n_hosts=4)
        workload = IncastWorkload(
            tb.sim, tb.hosts[:3], tb.hosts[3],
            bytes_per_sender=15_000, packet_size=1500,
        )
        workload.start()
        tb.sim.run()
        report = workload.report()
        assert report.senders == 3
        assert report.packets_sent == 30
        assert report.packets_received <= 30

    def test_empty_senders_rejected(self):
        tb = forwarding_testbed()
        with pytest.raises(ValueError):
            IncastWorkload(tb.sim, [], tb.hosts[0], bytes_per_sender=1)
