"""Loss behaviour of the lookup-table primitive (§7 drop discussion)."""

import pytest

from repro.apps.programs import RemoteLookupProgram
from repro.core.lookup_table import (
    ACTION_SET_DSCP,
    LookupTableConfig,
    RemoteAction,
    RemoteLookupTable,
)
from repro.testbed import build_testbed
from repro.sim.units import gbps, usec
from repro.switches.hashing import FiveTuple
from repro.workloads.perftest import PacketSink, RawEthernetBw


def build(mode="bounce", cache_entries=0):
    tb = build_testbed(n_hosts=2)
    program = RemoteLookupProgram()
    for host, port in zip(tb.hosts, tb.host_ports):
        program.install(host.eth.mac, port)
    tb.switch.bind_program(program)
    config = LookupTableConfig(
        entries=1 << 10, cache_entries=cache_entries, mode=mode
    )
    channel = tb.controller.open_channel(
        tb.memory_server, tb.server_port, config.entries * config.entry_bytes
    )
    table = RemoteLookupTable(tb.switch, channel, config=config)
    program.use_lookup_table(table)
    flow = FiveTuple(
        src_ip=tb.hosts[0].eth.ip.value,
        dst_ip=tb.hosts[1].eth.ip.value,
        protocol=17,
        src_port=10_000,
        dst_port=20_000,
    )
    table.install(flow, RemoteAction(ACTION_SET_DSCP, 7))
    return tb, program, table


def run_lossy(tb, count=200, loss_start=usec(5), loss_end=usec(30), loss=0.3):
    sink = PacketSink(tb.hosts[1], dst_port=20_000)
    gen = RawEthernetBw(
        tb.sim, tb.hosts[0], tb.hosts[1],
        packet_size=512, rate_bps=gbps(10), count=count, src_port=10_000,
    )
    gen.start()
    tb.sim.schedule(
        loss_start, lambda: setattr(tb.server_link, "loss_probability", loss)
    )
    tb.sim.schedule(
        loss_end, lambda: setattr(tb.server_link, "loss_probability", 0.0)
    )
    tb.sim.run(max_events=4_000_000)
    return sink


class TestBounceUnderLoss:
    def test_lost_bounce_means_lost_packet_never_duplicate(self):
        """§7: 'an RDMA packet drop would lead to dropping the original
        packet' — and the system recovers instead of wedging."""
        tb, program, table = build()
        sink = run_lossy(tb)
        # Some packets were lost with their bounces...
        assert sink.packets < 200
        assert table.rocegen.metrics["naks_received"] > 0
        # ...but the stream recovered after the lossy window: later
        # packets resolve and arrive (more than the pre-loss handful).
        assert sink.packets > 20
        # Nothing was delivered twice and nothing is left pending.
        assert sink.out_of_order == 0
        assert len(table.rocegen.window) == 0
        # Accounting: every lookup either hit remotely or was lost.
        assert (
            table.metrics["remote_hits"]
            + table.metrics["remote_invalid"]
            + table.metrics["fingerprint_mismatches"]
            <= table.metrics["remote_lookups"]
        )

    def test_psn_resync_lets_later_lookups_succeed(self):
        tb, program, table = build()
        run_lossy(tb, count=100, loss_start=usec(2), loss_end=usec(10), loss=1.0)
        # After total loss and healing, the QP resynced and lookups resumed.
        assert table.metrics["remote_hits"] > 0
        assert table.rocegen.metrics["naks_received"] > 0

    def test_cache_softens_loss(self):
        """With a warm cache, packets survive server-link loss entirely."""
        tb, program, table = build(cache_entries=64)
        # Warm the cache with one packet.
        sink = PacketSink(tb.hosts[1], dst_port=20_000)
        gen = RawEthernetBw(
            tb.sim, tb.hosts[0], tb.hosts[1],
            packet_size=512, rate_bps=gbps(1), count=1, src_port=10_000,
        )
        gen.start()
        tb.sim.run()
        assert table.metrics["cache_inserts"] == 1
        # Kill the server link entirely; cached flow keeps flowing.
        tb.server_link.loss_probability = 1.0
        gen2 = RawEthernetBw(
            tb.sim, tb.hosts[0], tb.hosts[1],
            packet_size=512, rate_bps=gbps(1), count=50, src_port=10_000,
        )
        gen2.start()
        tb.sim.run()
        assert sink.packets == 51
        assert table.metrics["local_hits"] == 50
