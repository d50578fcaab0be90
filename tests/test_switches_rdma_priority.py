"""Tests for the §7 RDMA prioritization / bandwidth-cap TM features.

Contention scenario: the remote lookup table *bounces* data packets
through server DRAM, so its RDMA WRITEs are full packet size.  Two hosts
blasting the memory-server port at 2:1 oversubscription peg the egress
queue; without protection, bounced packets drop in the TM and are lost.
Strict priority plus reserved headroom (§7: prioritize RDMA "so that they
are less likely to be dropped") protects them at the background traffic's
expense.  A token-bucket cap (§7: "a bandwidth cap to prevent RDMA packets
taking too much bandwidth") polices the other direction.

(A note on small RDMA packets: an 86 B Fetch-and-Add essentially never
drops in a byte-based drop-tail queue pegged by 1500 B packets — the
residual headroom always fits it.  That is real behaviour, so these tests
exercise the packet-sized RDMA of the bounce path instead.)
"""

import pytest

from repro.apps.programs import CountingProgram, RemoteLookupProgram
from repro.core.lookup_table import (
    ACTION_SET_DSCP,
    LookupTableConfig,
    RemoteAction,
    RemoteLookupTable,
)
from repro.core.state_store import RemoteStateStore, StateStoreConfig
from repro.testbed import build_testbed
from repro.rdma.headers import BthHeader
from repro.sim.units import gbps, kib
from repro.switches.hashing import FiveTuple
from repro.switches.traffic_manager import TrafficManagerConfig
from repro.workloads.factory import udp_between
from repro.workloads.perftest import PacketSink, RawEthernetBw


def build_contended(tm_config=None):
    """Bounced lookups while background UDP congests the server port."""
    tb = build_testbed(
        n_hosts=3,
        tm_config=tm_config or TrafficManagerConfig(buffer_bytes=kib(64)),
    )
    program = RemoteLookupProgram()
    for host, port in zip(tb.hosts, tb.host_ports):
        program.install(host.eth.mac, port)
    program.install(tb.memory_server.eth.mac, tb.server_port)
    tb.switch.bind_program(program)
    config = LookupTableConfig(entries=1 << 10, cache_entries=0)
    channel = tb.controller.open_channel(
        tb.memory_server, tb.server_port, config.entries * config.entry_bytes
    )
    table = RemoteLookupTable(tb.switch, channel, config=config)
    program.use_lookup_table(table)
    # Only the measured flow consults the remote table; the background
    # congestion traffic is plain L2.
    from repro.net.headers import UdpHeader

    program.lookup_filter = (
        lambda p: p.find(UdpHeader) is not None
        and p.find(UdpHeader).dst_port == 20_000
    )
    flow = FiveTuple(
        src_ip=tb.hosts[0].eth.ip.value,
        dst_ip=tb.hosts[1].eth.ip.value,
        protocol=17,
        src_port=10_000,
        dst_port=20_000,
    )
    table.install(flow, RemoteAction(ACTION_SET_DSCP, 5))
    return tb, program, table


def run_contended(tb, lookups=200, background_packets=3000):
    sink = PacketSink(tb.hosts[1], dst_port=20_000)
    gen = RawEthernetBw(
        tb.sim, tb.hosts[0], tb.hosts[1],
        packet_size=1400, rate_bps=gbps(2), count=lookups,
        src_port=10_000,
    )
    gen.start()
    # 2:1 oversubscription keeps the server port queue pegged full.
    for i, host in enumerate((tb.hosts[1], tb.hosts[2])):
        bg = RawEthernetBw(
            tb.sim, host, tb.memory_server,
            packet_size=1500, rate_bps=gbps(40),
            count=background_packets // 2,
            src_port=31_000 + i, dst_port=31_001,
        )
        bg.start()
    tb.sim.run(max_events=4_000_000)
    return sink


class TestRdmaPriority:
    def test_congestion_without_priority_loses_bounced_packets(self):
        tb, program, table = build_contended()
        sink = run_contended(tb)
        # The RDMA leg itself suffered: fewer lookups resolved than issued
        # (bounce WRITEs/READs were dropped in the TM, triggering NAKs).
        assert table.metrics["remote_hits"] < table.metrics["remote_lookups"]
        assert table.rocegen.metrics["naks_received"] > 0
        assert sink.packets < 200

    def test_priority_and_reserve_protect_bounces(self):
        tm = TrafficManagerConfig(
            buffer_bytes=kib(64),
            rdma_priority=True,
            rdma_reserved_bytes=kib(16),
        )
        tb, program, table = build_contended(tm_config=tm)
        sink = run_contended(tb)
        # Every bounce survived the RDMA path: no NAKs, all lookups hit.
        assert table.metrics["remote_hits"] == 200
        assert table.rocegen.metrics["naks_received"] == 0
        # Any residual loss is the *resolved original* competing for the
        # shared pool at the destination port — accounted, not leaked.
        host_queue = tb.switch.port_queue(tb.host_ports[1])
        assert sink.packets + host_queue.dropped_packets == 200
        # Protection came at the background traffic's expense.
        server_queue = tb.switch.port_queue(tb.server_port)
        assert server_queue.dropped_packets > 0
        assert server_queue.rdma_policer_drops == 0

    def test_priority_beats_baseline_delivery(self):
        baseline_tb, _, baseline_table = build_contended()
        baseline = run_contended(baseline_tb)
        tm = TrafficManagerConfig(
            buffer_bytes=kib(64),
            rdma_priority=True,
            rdma_reserved_bytes=kib(16),
        )
        prio_tb, _, prio_table = build_contended(tm_config=tm)
        protected = run_contended(prio_tb)
        assert protected.packets > baseline.packets

    def test_rdma_served_at_strict_priority(self):
        tm = TrafficManagerConfig(
            buffer_bytes=kib(256),
            rdma_priority=True,
            rdma_reserved_bytes=kib(32),
        )
        tb, program, table = build_contended(tm_config=tm)
        order = []
        tb.switch.tm.dequeue_listeners.append(
            lambda port, p, q: order.append(
                "rdma" if p.find(BthHeader) is not None else "bulk"
            )
            if port == tb.server_port
            else None
        )
        run_contended(tb, lookups=50, background_packets=400)
        assert "rdma" in order
        first_rdma = order.index("rdma")
        assert first_rdma < 40  # overtook a pegged bulk queue


class TestRdmaRateCap:
    def make_counting(self, tm_config):
        tb = build_testbed(n_hosts=2, tm_config=tm_config)
        program = CountingProgram()
        for host, port in zip(tb.hosts, tb.host_ports):
            program.install(host.eth.mac, port)
        tb.switch.bind_program(program)
        config = StateStoreConfig(counters=1 << 10)
        channel = tb.controller.open_channel(
            tb.memory_server, tb.server_port, (1 << 10) * 8
        )
        store = RemoteStateStore(tb.switch, channel, config=config)
        program.use_state_store(store)
        return tb, store

    def run_counting(self, tb, packets=400):
        gen = RawEthernetBw(
            tb.sim, tb.hosts[0], tb.hosts[1],
            packet_size=256, rate_bps=gbps(2), count=packets,
        )
        gen.start()
        tb.sim.run(max_events=3_000_000)

    def test_cap_polices_rdma_volume(self):
        tm = TrafficManagerConfig(
            rdma_rate_cap_bps=gbps(0.05),
            rdma_cap_burst_bytes=1024,
        )
        tb, store = self.make_counting(tm)
        self.run_counting(tb)
        queue = tb.switch.port_queue(tb.server_port)
        assert queue.rdma_policer_drops > 0

    def test_generous_cap_is_invisible(self):
        tm = TrafficManagerConfig(rdma_rate_cap_bps=gbps(20))
        tb, store = self.make_counting(tm)
        self.run_counting(tb)
        queue = tb.switch.port_queue(tb.server_port)
        assert queue.rdma_policer_drops == 0
        probe = udp_between(tb.hosts[0], tb.hosts[1], 256)
        assert store.read_counter_via_control_plane(store.index_of(store.key_of(probe))) == 400
