"""Tests for statistics, monitors and reporting."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.monitors import (
    LatencyRecorder,
    LinkBandwidthMonitor,
    QueueDepthSampler,
)
from repro.analysis.reporting import format_gbps, format_table, format_usec
from repro.analysis.stats import Summary, percentile
from repro.apps.programs import StaticL2Program
from repro.testbed import build_testbed
from repro.sim.units import gbps, usec
from repro.workloads.perftest import RawEthernetBw


class TestPercentile:
    def test_median_odd(self):
        assert percentile([3, 1, 2], 50) == 2

    def test_interpolation(self):
        assert percentile([0, 10], 50) == 5

    def test_extremes(self):
        data = [5, 1, 9, 3]
        assert percentile(data, 0) == 1
        assert percentile(data, 100) == 9

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            percentile([1], 101)

    @given(st.lists(st.floats(0, 1e6), min_size=1, max_size=50),
           st.floats(0, 100))
    def test_within_bounds_property(self, data, p):
        value = percentile(data, p)
        assert min(data) <= value <= max(data)


class TestSummary:
    def test_basic(self):
        summary = Summary.of([1, 2, 3, 4, 5])
        assert summary.count == 5
        assert summary.mean == 3
        assert summary.median == 3
        assert summary.minimum == 1
        assert summary.maximum == 5

    def test_single_sample_stdev_zero(self):
        assert Summary.of([7]).stdev == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Summary.of([])


class TestReporting:
    def test_table_alignment(self):
        table = format_table(["a", "bbb"], [[1, 2], [333, 4]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert len(set(len(line.rstrip()) for line in lines[1:2])) == 1

    def test_title_included(self):
        assert format_table(["x"], [[1]], title="T").startswith("T\n")

    def test_format_units(self):
        assert format_gbps(2.5e9) == "2.50 Gbps"
        assert format_usec(1500.0) == "1.50 us"


def forwarding_testbed():
    tb = build_testbed(n_hosts=2, with_memory_server=False)
    program = StaticL2Program()
    for host, port in zip(tb.hosts, tb.host_ports):
        program.install(host.eth.mac, port)
    tb.switch.bind_program(program)
    return tb


class TestMonitors:
    def test_bandwidth_monitor_counts_directionally(self):
        tb = forwarding_testbed()
        monitor = LinkBandwidthMonitor(tb.sim, tb.host_links[0])
        gen = RawEthernetBw(
            tb.sim, tb.hosts[0], tb.hosts[1],
            packet_size=1500, rate_bps=gbps(10), count=50,
        )
        gen.start()
        tb.sim.run()
        # host_links[0].a is the host side: host -> switch is a2b.
        assert monitor.packets["a2b"] == 50
        assert monitor.packets["b2a"] == 0
        # wire bytes: 1500 B packet + 4 B FCS + 20 B preamble/IFG
        assert monitor.bytes["a2b"] == 50 * 1524

    def test_bandwidth_monitor_rate(self):
        tb = forwarding_testbed()
        monitor = LinkBandwidthMonitor(tb.sim, tb.host_links[0])
        gen = RawEthernetBw(
            tb.sim, tb.hosts[0], tb.hosts[1],
            packet_size=1500, rate_bps=gbps(10), count=100,
        )
        gen.start()
        tb.sim.run()
        assert monitor.rate_bps("a2b") == pytest.approx(gbps(10), rel=0.05)
        assert monitor.rate_bps("b2a") == 0.0

    def test_bandwidth_monitor_filter(self):
        tb = forwarding_testbed()
        monitor = LinkBandwidthMonitor(
            tb.sim, tb.host_links[0], accept=lambda p: False
        )
        gen = RawEthernetBw(
            tb.sim, tb.hosts[0], tb.hosts[1],
            packet_size=256, rate_bps=gbps(10), count=5,
        )
        gen.start()
        tb.sim.run()
        assert monitor.total_bytes() == 0

    def test_latency_recorder(self):
        tb = forwarding_testbed()
        recorder = LatencyRecorder(tb.hosts[1])
        gen = RawEthernetBw(
            tb.sim, tb.hosts[0], tb.hosts[1],
            packet_size=256, rate_bps=gbps(10), count=10,
        )
        gen.start()
        tb.sim.run()
        assert len(recorder.latencies_ns) == 10
        assert all(lat > 0 for lat in recorder.latencies_ns)

    def test_queue_depth_sampler(self):
        tb = forwarding_testbed()
        queue = tb.switch.port_queue(tb.host_ports[1])
        sampler = QueueDepthSampler(tb.sim, queue, period_ns=usec(1))
        sampler.start()
        gen = RawEthernetBw(
            tb.sim, tb.hosts[0], tb.hosts[1],
            packet_size=1500, rate_bps=gbps(40), count=100,
        )
        gen.start()
        tb.sim.run(until_ns=usec(50))
        sampler.stop()
        tb.sim.run()
        assert len(sampler.samples) >= 10
        assert sampler.peak_depth_bytes() >= 0

    def test_sampler_time_to_reach(self):
        tb = forwarding_testbed()
        queue = tb.switch.port_queue(tb.host_ports[1])
        sampler = QueueDepthSampler(tb.sim, queue, period_ns=100.0)
        sampler.start()
        tb.sim.run(until_ns=usec(1))
        assert sampler.time_to_reach(1) is None  # queue never filled


class TestJainFairness:
    def test_perfect_fairness(self):
        from repro.analysis.stats import jain_fairness

        assert jain_fairness([5, 5, 5, 5]) == pytest.approx(1.0)

    def test_single_hog(self):
        from repro.analysis.stats import jain_fairness

        assert jain_fairness([10, 0, 0, 0]) == pytest.approx(0.25)

    def test_scale_invariant(self):
        from repro.analysis.stats import jain_fairness

        assert jain_fairness([1, 2, 3]) == pytest.approx(
            jain_fairness([10, 20, 30])
        )

    def test_all_zero_is_fair(self):
        from repro.analysis.stats import jain_fairness

        assert jain_fairness([0, 0]) == 1.0

    def test_invalid_inputs(self):
        from repro.analysis.stats import jain_fairness

        with pytest.raises(ValueError):
            jain_fairness([])
        with pytest.raises(ValueError):
            jain_fairness([1, -1])
