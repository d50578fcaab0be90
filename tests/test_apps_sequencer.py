"""Tests for the in-network sequencer over remote memory (§6)."""

import pytest

from repro.apps.sequencer import SEQUENCER_PORT, SeqHeader, SequencerProgram
from repro.testbed import build_testbed
from repro.net.headers import UdpHeader
from repro.sim.units import gbps
from repro.workloads.factory import udp_between
from repro.workloads.perftest import RawEthernetBw


def build(max_outstanding=16, n_hosts=3):
    tb = build_testbed(n_hosts=n_hosts)
    program = SequencerProgram(max_outstanding=max_outstanding)
    for host, port in zip(tb.hosts, tb.host_ports):
        program.install(host.eth.mac, port)
    tb.switch.bind_program(program)
    channel = tb.controller.open_channel(tb.memory_server, tb.server_port, 4096)
    program.use_channel(tb.switch, channel)
    return tb, program, channel


def collect_sequenced(tb, receiver_idx=1):
    out = []

    def handler(packet, interface):
        udp = packet.find(UdpHeader)
        if udp is not None and udp.dst_port == SEQUENCER_PORT:
            out.append(
                (SeqHeader.unpack(packet.payload).sequence, packet.meta.get("seq"))
            )

    tb.hosts[receiver_idx].packet_handlers.append(handler)
    return out


class TestSequencer:
    def test_sequence_numbers_gap_free_and_ordered(self):
        tb, program, channel = build()
        sequenced = collect_sequenced(tb)
        gen = RawEthernetBw(
            tb.sim, tb.hosts[0], tb.hosts[1],
            packet_size=256, rate_bps=gbps(1), count=50,
            dst_port=SEQUENCER_PORT,
        )
        gen.start()
        tb.sim.run()
        assert program.stats.sequenced == 50
        numbers = [s for s, _ in sequenced]
        assert numbers == list(range(50))  # gap-free from zero
        # Arrival order preserved (sender seq meta rides along).
        sender_seqs = [m for _, m in sequenced]
        assert sender_seqs == sorted(sender_seqs)

    def test_two_senders_get_globally_unique_numbers(self):
        tb, program, channel = build()
        sequenced = collect_sequenced(tb)
        for i in (0, 2):
            RawEthernetBw(
                tb.sim, tb.hosts[i], tb.hosts[1],
                packet_size=256, rate_bps=gbps(10), count=40,
                src_port=10_000 + i, dst_port=SEQUENCER_PORT,
            ).start()
        tb.sim.run()
        numbers = [s for s, _ in sequenced]
        assert sorted(numbers) == list(range(80))
        assert len(set(numbers)) == 80  # no duplicates, ever

    def test_counter_lives_in_server_dram(self):
        tb, program, channel = build()
        collect_sequenced(tb)
        RawEthernetBw(
            tb.sim, tb.hosts[0], tb.hosts[1],
            packet_size=256, rate_bps=gbps(1), count=25,
            dst_port=SEQUENCER_PORT,
        ).start()
        tb.sim.run()
        value = int.from_bytes(channel.region.read(channel.base_address, 8), "big")
        assert value == 25
        assert tb.memory_server.cpu_packets == 0

    def test_rate_capped_by_atomic_engine(self):
        tb, program, channel = build()
        sequenced = collect_sequenced(tb)
        # Line-rate 64 B packets arrive far faster than 2.4 Mops.
        gen = RawEthernetBw(
            tb.sim, tb.hosts[0], tb.hosts[1],
            packet_size=64, rate_bps=gbps(40), count=400,
            dst_port=SEQUENCER_PORT,
        )
        gen.start()
        tb.sim.run()
        assert program.stats.sequenced == 400
        # Outstanding window forced parking during the burst.
        assert program.stats.parked_peak > 16

    def test_parking_bound_drops_excess(self):
        tb, program, channel = build()
        program.max_parked = 8
        sequenced = collect_sequenced(tb)
        RawEthernetBw(
            tb.sim, tb.hosts[0], tb.hosts[1],
            packet_size=64, rate_bps=gbps(40), count=200,
            dst_port=SEQUENCER_PORT,
        ).start()
        tb.sim.run()
        assert program.stats.dropped_window_full > 0
        # Sequenced + dropped = offered; numbers still gap-free.
        assert program.stats.sequenced + program.stats.dropped_window_full == 200
        numbers = sorted(s for s, _ in sequenced)
        assert numbers == list(range(program.stats.sequenced))

    def test_non_sequencer_traffic_unaffected(self):
        tb, program, channel = build()
        received = []
        tb.hosts[1].packet_handlers.append(lambda p, i: received.append(p))
        tb.hosts[0].send(udp_between(tb.hosts[0], tb.hosts[1], 200))
        tb.sim.run()
        assert len(received) == 1
        assert program.stats.sequenced == 0

    def test_seq_header_round_trip(self):
        header = SeqHeader(sequence=2**40 + 7)
        assert SeqHeader.unpack(header.pack()) == header
        assert len(header.pack()) == 8


def test_loss_on_the_server_link_holds_no_packet_forever():
    """The wedge: a NAK popped the parked head and freed one slot, whatever
    the loss cost, and a lost ACK freed none — 16 parked and 2 449 unissued
    of 3 000 at 1 % loss.  Packets now pair with their Fetch-and-Adds by
    PSN; one whose Fetch-and-Add drew no ACK is dropped, never stamped with
    a guess."""
    tb, program, channel = build()
    sequenced = collect_sequenced(tb)
    tb.server_links[0].loss_probability = 0.01
    RawEthernetBw(
        tb.sim, tb.hosts[0], tb.hosts[1],
        packet_size=64, rate_bps=gbps(40), count=3000,
        dst_port=SEQUENCER_PORT,
    ).start()
    tb.sim.run()
    assert not program._unissued and program.parked == 0
    assert program.stats.naks > 0 and program.stats.lost > 0
    numbers = [s for s, _ in sequenced]
    assert len(set(numbers)) == len(numbers) == program.stats.sequenced
    assert program.stats.sequenced + program.stats.lost == 3000
