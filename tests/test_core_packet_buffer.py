"""Tests for the remote packet buffer primitive."""

import pytest

from repro.apps.programs import RemoteBufferProgram
from repro.core.packet_buffer import (
    ENTRY_SEQ_BYTES,
    PacketBufferConfig,
    RemotePacketBuffer,
)
from repro.testbed import build_testbed
from repro.sim.units import kib, mib, usec
from repro.switches.traffic_manager import TrafficManagerConfig
from repro.workloads.perftest import PacketSink, RawEthernetBw

RECEIVER = 1  # hosts[1] is always the receiver behind the protected port


def build(
    buffer_bytes=kib(256),
    high=kib(64),
    low=kib(8),
    ring_entries=2048,
    entry_bytes=1600 + ENTRY_SEQ_BYTES,
    n_hosts=3,
    read_timeout_ns=None,
):
    """Hosts + memory server; the remote buffer protects the receiver port."""
    tb = build_testbed(
        n_hosts=n_hosts,
        tm_config=TrafficManagerConfig(buffer_bytes=buffer_bytes),
    )
    program = RemoteBufferProgram()
    for host, port in zip(tb.hosts, tb.host_ports):
        program.install(host.eth.mac, port)
    tb.switch.bind_program(program)
    channel = tb.controller.open_channel(
        tb.memory_server, tb.server_port, ring_entries * entry_bytes
    )
    primitive = RemotePacketBuffer(
        tb.switch,
        channel,
        protected_port=tb.host_ports[RECEIVER],
        config=PacketBufferConfig(
            entry_bytes=entry_bytes,
            high_watermark_bytes=high,
            low_watermark_bytes=low,
            read_timeout_ns=read_timeout_ns,
        ),
    )
    program.use_packet_buffer(primitive)
    return tb, program, primitive, channel


def blast(tb, count, packet_size=1500, rate=40e9, senders=(0, 2)):
    """Overload the receiver: each listed sender blasts `count` packets."""
    sink = PacketSink(tb.hosts[RECEIVER], dst_port=20_000)
    generators = []
    for s in senders:
        gen = RawEthernetBw(
            tb.sim,
            tb.hosts[s],
            tb.hosts[RECEIVER],
            packet_size=packet_size,
            rate_bps=rate,
            count=count,
            src_port=10_000 + s,
        )
        gen.start()
        generators.append(gen)
    return sink, generators


class TestNormalOperation:
    def test_below_watermark_no_remote_traffic(self):
        tb, program, primitive, channel = build()
        sink, _ = blast(tb, count=5, senders=(0,))
        tb.sim.run()
        assert sink.packets == 5
        assert primitive.metrics["stored_packets"] == 0
        assert tb.memory_server.rnic.metrics["requests_received"] == 0

    def test_overload_diverts_instead_of_dropping(self):
        tb, program, primitive, channel = build()
        sink, gens = blast(tb, count=100)
        tb.sim.run()
        assert primitive.metrics["stored_packets"] > 0
        assert primitive.metrics["loaded_packets"] == primitive.metrics["stored_packets"]
        assert sink.packets == 200  # every packet eventually delivered
        assert tb.switch.tm.total_dropped_packets == 0

    def test_no_reordering_across_store_load(self):
        tb, program, primitive, channel = build()
        sink, _ = blast(tb, count=150)
        tb.sim.run()
        assert primitive.metrics["stored_packets"] > 0
        assert sink.packets == 300
        assert sink.out_of_order == 0

    def test_ring_drains_and_mode_resets(self):
        tb, program, primitive, channel = build()
        blast(tb, count=100)
        tb.sim.run()
        assert primitive.stored_entries == 0
        assert not primitive.is_buffering
        assert primitive.metrics["buffering_episodes"] >= 1

    def test_zero_cpu_on_memory_server(self):
        tb, program, primitive, channel = build()
        blast(tb, count=100)
        tb.sim.run()
        assert tb.memory_server.cpu_packets == 0

    def test_packet_contents_survive_round_trip(self):
        tb, program, primitive, channel = build()
        received = []
        tb.hosts[RECEIVER].packet_handlers.append(
            lambda p, i: received.append(p)
        )
        sink, _ = blast(tb, count=250, packet_size=700)
        tb.sim.run()
        assert primitive.metrics["stored_packets"] > 0
        assert all(p.ipv4.dst == tb.hosts[RECEIVER].eth.ip for p in received)
        assert {p.buffer_len for p in received} == {700}

    def test_remote_ring_actually_holds_frames(self):
        tb, program, primitive, channel = build()
        blast(tb, count=100)
        tb.sim.run()
        # The server region saw one WRITE and one READ per diverted packet.
        assert channel.region.writes == primitive.metrics["stored_packets"]
        assert channel.region.reads == primitive.metrics["stored_packets"]


class TestEdgeCases:
    def test_ring_full_drops_counted(self):
        tb, program, primitive, channel = build(ring_entries=4)
        assert primitive.capacity_entries == 4
        sink, _ = blast(tb, count=200)
        tb.sim.run()
        assert primitive.metrics["ring_full_drops"] > 0
        assert sink.packets < 400

    def test_oversize_packet_dropped_not_corrupted(self):
        tb, program, primitive, channel = build(entry_bytes=256)
        sink, _ = blast(tb, count=60, packet_size=1500)
        tb.sim.run()
        assert primitive.metrics["oversize_drops"] > 0
        # Nothing undersized was ever loaded back corrupted.
        assert primitive.metrics["loaded_packets"] == primitive.metrics["stored_packets"]

    def test_protected_port_cannot_be_server_port(self):
        tb = build_testbed()
        channel = tb.controller.open_channel(
            tb.memory_server, tb.server_port, mib(1)
        )
        with pytest.raises(ValueError):
            RemotePacketBuffer(
                tb.switch, channel, protected_port=tb.server_port
            )

    def test_channel_smaller_than_entry_rejected(self):
        tb = build_testbed()
        channel = tb.controller.open_channel(
            tb.memory_server, tb.server_port, 100
        )
        with pytest.raises(ValueError):
            RemotePacketBuffer(tb.switch, channel, protected_port=0)

    def test_second_hook_rejected(self):
        tb, program, primitive, channel = build()
        channel2 = tb.controller.open_channel(
            tb.memory_server, tb.server_port, mib(1)
        )
        with pytest.raises(RuntimeError):
            RemotePacketBuffer(tb.switch, channel2, protected_port=0)

    def test_ring_wraps_correctly(self):
        tb, program, primitive, channel = build(ring_entries=8)
        sink, _ = blast(tb, count=100)
        tb.sim.run()
        assert primitive.metrics["stored_packets"] > 8  # wrapped at least once
        assert sink.out_of_order == 0
        assert (
            sink.packets
            + primitive.metrics["ring_full_drops"]
            + tb.switch.tm.total_dropped_packets
            == 200
        )


class TestLossRecovery:
    def test_lost_write_becomes_lost_packet_not_duplicate(self):
        tb, program, primitive, channel = build(read_timeout_ns=usec(100))
        # Lose a slice of traffic on the server link mid-burst.
        sink, _ = blast(tb, count=150)
        tb.sim.schedule(
            usec(10), lambda: setattr(tb.server_link, "loss_probability", 0.2)
        )
        tb.sim.schedule(
            usec(25), lambda: setattr(tb.server_link, "loss_probability", 0.0)
        )
        tb.sim.run(max_events=2_000_000)
        total_accounted = (
            sink.packets
            + primitive.metrics["lost_in_transit"]
            + primitive.metrics["ring_full_drops"]
            + tb.switch.tm.total_dropped_packets
        )
        # Every sent packet is either delivered or accounted as a loss —
        # never delivered twice.
        assert sink.packets < 300
        assert total_accounted == 300
        assert sink.out_of_order == 0

    def test_watchdog_recovers_read_chain(self):
        tb, program, primitive, channel = build(read_timeout_ns=usec(50))
        sink, _ = blast(tb, count=100)
        # Kill the server link entirely for a while: reads stall.
        tb.sim.schedule(
            usec(8), lambda: setattr(tb.server_link, "loss_probability", 1.0)
        )
        tb.sim.schedule(
            usec(60), lambda: setattr(tb.server_link, "loss_probability", 0.0)
        )
        tb.sim.run(max_events=2_000_000)
        assert primitive.metrics["read_recoveries"] >= 1
        # After healing, the ring drains completely.
        assert primitive.stored_entries == 0
        assert not primitive.is_buffering


class TestRefusedRequests:
    def test_a_write_the_switch_refuses_does_not_strand_the_ring(self):
        """A 2:1 incast at 40 Gbps into a 256 KiB switch: the server port's
        queue refuses ring WRITEs.  A refused WRITE was never marked
        flushed, so the load pass stopped at its entry for good, and on
        the shared QP the NAK for the PSN gap never restarted the read
        chain: 907 of 1 000 frames stranded, still buffering."""
        tb, program, primitive, channel = build()
        sink, _ = blast(tb, count=500)
        tb.sim.run()
        assert tb.switch.port_queue(tb.server_port).dropped_packets > 0
        assert primitive.metrics["lost_in_transit"] > 0
        assert primitive.stored_entries == 0 and not primitive.is_buffering
        lost = primitive.metrics["lost_in_transit"] + primitive.metrics["ring_full_drops"]
        assert sink.packets + lost == 1000
        assert sink.out_of_order == 0
        # One restart per loss event: the responder NAKs every request
        # behind a gap, and acting on each echo made 177 restarts here.
        # There are 42 loss events: a reissued request the queue refuses
        # again is a new one.
        assert primitive.metrics["read_recoveries"] <= 50
