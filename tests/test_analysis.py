"""Tests for statistics, monitors and reporting."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.monitors import LinkBandwidthMonitor
from repro.analysis.reporting import format_record, format_table
from repro.analysis.stats import percentile
from repro.apps.programs import StaticL2Program
from repro.testbed import build_testbed
from repro.sim.units import gbps
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


class TestReporting:
    def test_table_alignment(self):
        table = format_table(["a", "bbb"], [[1, 2], [333, 4]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert len(set(len(line.rstrip()) for line in lines[1:2])) == 1

    def test_title_included(self):
        assert format_table(["x"], [[1]], title="T").startswith("T\n")

    def test_record_layout(self):
        record = {
            "1": {"n": 1, "rate": 0.5},
            "2": {"n": 2, "rate": 2 / 3, "ok": True},
            "summary": {"lost": 0, "rates": [1.0, None]},
            "sweep": [{"a": 1}, {"a": 2}],
        }
        assert format_record(record, "T") == "\n".join([
            "T",
            "",
            "n  rate      ok",
            "-  --------  ---",
            "1  0.5       -",
            "2  0.666667  yes",
            "",
            "summary",
            "  lost   0",
            "  rates  [1, -]",
            "",
            "sweep",
            "a",
            "-",
            "1",
            "2",
        ])


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
