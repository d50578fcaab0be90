"""Tests for §7 robustness: memory-server failure and channel failover."""

import pytest

from repro.apps.programs import RemoteBufferProgram
from repro.core.packet_buffer import (
    ENTRY_SEQ_BYTES,
    PacketBufferConfig,
    RemotePacketBuffer,
)
from repro.testbed import build_testbed
from repro.sim.units import kib, usec
from repro.switches.traffic_manager import TrafficManagerConfig
from repro.workloads.perftest import PacketSink, RawEthernetBw

RECEIVER = 1


def build_striped(n_servers=2, failover_strikes=3, ring_entries=2048):
    tb = build_testbed(
        n_hosts=3,
        n_memory_servers=n_servers,
        tm_config=TrafficManagerConfig(buffer_bytes=kib(256)),
    )
    program = RemoteBufferProgram()
    for host, port in zip(tb.hosts, tb.host_ports):
        program.install(host.eth.mac, port)
    tb.switch.bind_program(program)
    entry_bytes = 1500 + ENTRY_SEQ_BYTES
    channels = tb.open_channels(ring_entries * entry_bytes)
    primitive = RemotePacketBuffer(
        tb.switch,
        channels,
        protected_port=tb.host_ports[RECEIVER],
        config=PacketBufferConfig(
            entry_bytes=entry_bytes,
            high_watermark_bytes=kib(64),
            low_watermark_bytes=kib(8),
            read_timeout_ns=usec(50),
            failover_strikes=failover_strikes,
        ),
    )
    program.use_packet_buffer(primitive)
    return tb, program, primitive, channels


def blast(tb, count=200, senders=(0, 2)):
    sink = PacketSink(tb.hosts[RECEIVER], dst_port=20_000)
    for s in senders:
        RawEthernetBw(
            tb.sim, tb.hosts[s], tb.hosts[RECEIVER],
            packet_size=1500, rate_bps=40e9, count=count,
            src_port=10_000 + s,
        ).start()
    return sink


class TestStriping:
    def test_stores_spread_across_servers(self):
        tb, program, primitive, channels = build_striped()
        sink = blast(tb)
        tb.sim.run()
        assert primitive.metrics["stored_packets"] > 0
        writes = [s.rnic.metrics["writes_executed"] for s in tb.memory_servers]
        assert all(w > 0 for w in writes)
        # Round-robin striping keeps the split near 50/50.
        assert abs(writes[0] - writes[1]) <= 2
        assert sink.packets == 400
        assert sink.out_of_order == 0

    def test_cross_channel_release_is_in_order(self):
        tb, program, primitive, channels = build_striped(n_servers=4)
        sink = blast(tb, count=300)
        tb.sim.run()
        assert sink.packets == 600
        assert sink.out_of_order == 0
        assert primitive.metrics["reorder_peak"] >= 1


class TestFailover:
    def test_dead_server_is_detected_and_excluded(self):
        tb, program, primitive, channels = build_striped()
        sink = blast(tb, count=400)
        # Kill server 1's link mid-burst, permanently.
        tb.sim.schedule(
            usec(20),
            lambda: setattr(tb.server_links[1], "loss_probability", 1.0),
        )
        tb.sim.run(max_events=5_000_000)
        assert primitive.metrics["channels_failed"] == 1
        assert 1 in primitive._failed_channels
        assert primitive.alive_channels == [0]
        # The system keeps working: everything is delivered or accounted
        # as a loss — never wedged, never duplicated.
        accounted = (
            sink.packets
            + primitive.metrics["lost_to_failover"]
            + primitive.metrics["lost_in_transit"]
            + primitive.metrics["ring_full_drops"]
            + tb.switch.tm.total_dropped_packets
        )
        assert accounted == 800
        assert sink.out_of_order == 0
        assert primitive.metrics["lost_to_failover"] > 0
        # Fully drained afterwards.
        assert primitive.stored_entries == 0
        assert not primitive.is_buffering

    def test_new_stores_avoid_failed_channel(self):
        tb, program, primitive, channels = build_striped()
        blast(tb, count=150)
        tb.sim.schedule(
            usec(10),
            lambda: setattr(tb.server_links[1], "loss_probability", 1.0),
        )
        tb.sim.run(max_events=5_000_000)
        writes_before = tb.memory_servers[1].rnic.metrics["writes_executed"]
        # Second burst: all stores must go to the surviving server.
        sink2 = blast(tb, count=150)
        tb.sim.run(max_events=5_000_000)
        assert (
            tb.memory_servers[1].rnic.metrics["writes_executed"] == writes_before
        )
        assert sink2.packets > 0

    def test_all_channels_failed_degrades_to_droptail(self):
        tb, program, primitive, channels = build_striped(failover_strikes=2)
        blast(tb, count=300)
        for link in tb.server_links:
            tb.sim.schedule(
                usec(10), lambda l=link: setattr(l, "loss_probability", 1.0)
            )
        tb.sim.run(max_events=5_000_000)
        assert primitive.metrics["channels_failed"] == 2
        assert primitive.alive_channels == []
        # The system quiesced (no wedged buffering mode)...
        assert primitive.stored_entries == 0
        # ...and a fresh overload now behaves like a plain drop-tail ToR:
        # nothing new reaches any memory server, overflow is dropped.
        writes_before = sum(
            s.rnic.metrics["writes_executed"] for s in tb.memory_servers
        )
        sink2 = blast(tb, count=300)
        tb.sim.run(max_events=5_000_000)
        writes_after = sum(
            s.rnic.metrics["writes_executed"] for s in tb.memory_servers
        )
        assert writes_after == writes_before
        drops = (
            primitive.metrics["ring_full_drops"]
            + tb.switch.tm.total_dropped_packets
        )
        assert drops > 0
        assert sink2.packets + drops >= 600

    def test_no_failover_without_config(self):
        tb, program, primitive, channels = build_striped(failover_strikes=None)
        blast(tb, count=200)
        tb.sim.schedule(
            usec(10),
            lambda: setattr(tb.server_links[1], "loss_probability", 1.0),
        )
        # Without failover the primitive retries the dead channel forever;
        # a bounded window is enough to observe that no channel is failed.
        tb.sim.run(until_ns=usec(2000), max_events=1_000_000)
        assert primitive.metrics["channels_failed"] == 0
        assert primitive.metrics["read_recoveries"] > 0  # still retrying

    def test_transient_outage_does_not_trigger_failover(self):
        tb, program, primitive, channels = build_striped(failover_strikes=10)
        sink = blast(tb, count=300)
        tb.sim.schedule(
            usec(10),
            lambda: setattr(tb.server_links[1], "loss_probability", 1.0),
        )
        tb.sim.schedule(
            usec(120),
            lambda: setattr(tb.server_links[1], "loss_probability", 0.0),
        )
        tb.sim.run(max_events=5_000_000)
        assert primitive.metrics["channels_failed"] == 0
        assert primitive.metrics["read_recoveries"] >= 1
        assert sink.out_of_order == 0
        assert primitive.stored_entries == 0
