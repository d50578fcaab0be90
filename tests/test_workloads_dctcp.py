"""Tests for the DCTCP-style ECN loop and TM marking."""

import pytest

from repro.apps.programs import StaticL2Program
from repro.testbed import build_testbed
from repro.net.headers import Ipv4Header
from repro.sim.units import gbps, kib, msec, usec
from repro.switches.traffic_manager import TrafficManagerConfig
from repro.workloads.dctcp import DctcpConfig, DctcpReceiver, DctcpSender
from repro.workloads.perftest import RawEthernetBw


def forwarding_testbed(n_hosts=3, tm_config=None):
    tb = build_testbed(n_hosts=n_hosts, with_memory_server=False, tm_config=tm_config)
    program = StaticL2Program()
    for host, port in zip(tb.hosts, tb.host_ports):
        program.install(host.eth.mac, port)
    tb.switch.bind_program(program)
    return tb


class TestEcnMarking:
    def test_hot_queue_marks_ect_packets(self):
        tb = forwarding_testbed(
            tm_config=TrafficManagerConfig(ecn_threshold_bytes=kib(16))
        )
        receiver = DctcpReceiver(tb.hosts[2], dst_port=42_001)
        for i in (0, 1):
            DctcpSender(
                tb.sim, tb.hosts[i], tb.hosts[2],
                rate_bps=gbps(40), count=200, src_port=42_000 + 2 * i,
                config=DctcpConfig(gain=0.0, additive_increase_bps=0.0,
                                   min_rate_bps=gbps(40)),
            ).start()
        tb.sim.run()
        marked = sum(q.ecn_marked for q in tb.switch.tm.queues.values())
        assert marked > 0
        assert receiver.ce_packets == marked

    def test_cool_queue_marks_nothing(self):
        tb = forwarding_testbed(
            tm_config=TrafficManagerConfig(ecn_threshold_bytes=kib(16))
        )
        DctcpReceiver(tb.hosts[2], dst_port=42_001)
        DctcpSender(
            tb.sim, tb.hosts[0], tb.hosts[2],
            rate_bps=gbps(5), count=100, src_port=42_000,
        ).start()
        tb.sim.run()
        assert sum(q.ecn_marked for q in tb.switch.tm.queues.values()) == 0

    def test_non_ect_packets_never_marked(self):
        tb = forwarding_testbed(
            tm_config=TrafficManagerConfig(ecn_threshold_bytes=1)
        )
        received = []
        tb.hosts[2].packet_handlers.append(lambda p, i: received.append(p))
        for i in (0, 1):
            RawEthernetBw(
                tb.sim, tb.hosts[i], tb.hosts[2],
                packet_size=1500, rate_bps=gbps(40), count=50,
                src_port=10_000 + i,
            ).start()
        tb.sim.run()
        assert received
        assert all(p.ipv4.ecn == 0 for p in received)


class TestDctcpLoop:
    def test_senders_slow_under_persistent_overload(self):
        tb = forwarding_testbed(
            tm_config=TrafficManagerConfig(ecn_threshold_bytes=kib(32))
        )
        DctcpReceiver(tb.hosts[2], dst_port=42_001)
        senders = []
        for i in (0, 1):
            sender = DctcpSender(
                tb.sim, tb.hosts[i], tb.hosts[2],
                rate_bps=gbps(40), duration_ns=msec(2),
                src_port=42_000 + 2 * i,
                config=DctcpConfig(gain=0.4),
            )
            sender.start()
            senders.append(sender)
        tb.sim.run()
        # Aggregate must come down toward the 40 Gbps bottleneck.
        aggregate = sum(s.rate_bps for s in senders)
        assert aggregate < gbps(60)
        assert all(s.feedback_windows > 0 for s in senders)
        assert all(s.alpha > 0 for s in senders)

    def test_uncongested_sender_stays_fast(self):
        tb = forwarding_testbed(
            tm_config=TrafficManagerConfig(ecn_threshold_bytes=kib(32))
        )
        DctcpReceiver(tb.hosts[2], dst_port=42_001)
        sender = DctcpSender(
            tb.sim, tb.hosts[0], tb.hosts[2],
            rate_bps=gbps(20), duration_ns=msec(1), src_port=42_000,
        )
        sender.start()
        tb.sim.run()
        assert sender.rate_bps >= gbps(20)  # additive increase only

    def test_requires_duration_or_count(self):
        tb = forwarding_testbed()
        with pytest.raises(ValueError):
            DctcpSender(tb.sim, tb.hosts[0], tb.hosts[2])

    def test_data_packets_carry_ect(self):
        tb = forwarding_testbed()
        received = []
        tb.hosts[2].packet_handlers.append(lambda p, i: received.append(p))
        DctcpSender(
            tb.sim, tb.hosts[0], tb.hosts[2], count=5, src_port=42_000
        ).start()
        tb.sim.run()
        data = [p for p in received if p.find(Ipv4Header) is not None]
        assert len(data) == 5
        assert all(p.ipv4.ecn == 2 for p in data)  # ECT(0)


class TestPersistentCongestionExperiment:
    def test_modes_reject_unknown(self):
        from repro.experiments.persistent_congestion import run_persistent_congestion

        with pytest.raises(ValueError):
            run_persistent_congestion("magic")

    def test_ecn_beats_buffer_only(self):
        from repro.experiments.persistent_congestion import (
            run_persistent_congestion_comparison,
        )

        results = run_persistent_congestion_comparison(
            duration_ms=2.0, ring_entries_per_server=1200
        )
        buffer_only, with_ecn = results["buffer_only"], results["buffer+ecn"]
        # Without congestion control the ring fills and drops.
        assert buffer_only["ring_full_drops"] > 0
        assert buffer_only["aggregate_final_rate_gbps"] == pytest.approx(80.0)
        # With the co-designed ECN signal the senders back off...
        assert with_ecn["ce_marked"] > 0
        assert with_ecn["aggregate_final_rate_gbps"] < 60.0
        # ...and the system loses (far) less.
        assert with_ecn["loss_rate"] < buffer_only["loss_rate"]


class TestFairness:
    def test_three_senders_converge_fairly(self):
        """Jain's index near 1 for N ECN-reactive senders sharing a port."""
        from repro.analysis.stats import jain_fairness

        tb = forwarding_testbed(
            n_hosts=4,
            tm_config=TrafficManagerConfig(ecn_threshold_bytes=kib(32)),
        )
        DctcpReceiver(tb.hosts[3], dst_port=42_001)
        senders = []
        for i in range(3):
            sender = DctcpSender(
                tb.sim, tb.hosts[i], tb.hosts[3],
                rate_bps=gbps(40), duration_ns=msec(3),
                src_port=42_000 + 2 * i,
                config=DctcpConfig(gain=0.4),
            )
            sender.start()
            senders.append(sender)
        tb.sim.run()
        rates = [s.rate_bps for s in senders]
        assert jain_fairness(rates) > 0.85
        assert sum(rates) < gbps(70)  # well below the uncontrolled 120
