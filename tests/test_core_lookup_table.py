"""Tests for the remote lookup table primitive."""

import pytest

from repro.apps.programs import RemoteLookupProgram
from repro.core.lookup_table import (
    ACTION_DROP,
    ACTION_SET_DSCP,
    LookupTableConfig,
    RemoteAction,
    RemoteLookupTable,
    fingerprint_of,
)
from repro.core.channel import ChannelError
from repro.testbed import build_testbed
from repro.net.headers import UdpHeader
from repro.sim.units import mib
from repro.switches.hashing import FiveTuple
from repro.workloads.factory import udp_between


def build(config=None, n_hosts=2, default_action=None):
    tb = build_testbed(n_hosts=n_hosts)
    program = RemoteLookupProgram()
    for host, port in zip(tb.hosts, tb.host_ports):
        program.install(host.eth.mac, port)
    tb.switch.bind_program(program)
    config = config or LookupTableConfig(entries=1 << 10, cache_entries=64)
    channel = tb.controller.open_channel(
        tb.memory_server,
        tb.server_port,
        config.entries * config.entry_bytes,
    )
    table = RemoteLookupTable(
        tb.switch, channel, config=config, default_action=default_action
    )
    program.use_lookup_table(table)
    return tb, program, table, channel


def send_flow_packet(tb, dscp=0, sport=5000, dport=6000, size=256):
    packet = udp_between(
        tb.hosts[0], tb.hosts[1], size, src_port=sport, dst_port=dport, dscp=dscp
    )
    received = []
    tb.hosts[1].packet_handlers.append(lambda p, i: received.append(p))
    tb.hosts[0].send(packet)
    return packet, received


class TestRemoteLookup:
    def test_miss_fetches_action_and_applies_dscp(self):
        tb, program, table, channel = build()
        flow = FiveTuple(
            src_ip=tb.hosts[0].eth.ip.value,
            dst_ip=tb.hosts[1].eth.ip.value,
            protocol=17,
            src_port=5000,
            dst_port=6000,
        )
        table.install(flow, RemoteAction(ACTION_SET_DSCP, 46))
        packet, received = send_flow_packet(tb)
        tb.sim.run()
        assert len(received) == 1
        assert received[0].ipv4.dscp == 46
        assert table.metrics["remote_lookups"] == 1
        assert table.metrics["remote_hits"] == 1
        assert tb.memory_server.cpu_packets == 0

    def test_bounce_stores_packet_remotely(self):
        tb, program, table, channel = build()
        flow = FiveTuple(
            src_ip=tb.hosts[0].eth.ip.value,
            dst_ip=tb.hosts[1].eth.ip.value,
            protocol=17,
            src_port=5000,
            dst_port=6000,
        )
        table.install(flow, RemoteAction(ACTION_SET_DSCP, 10))
        send_flow_packet(tb)
        tb.sim.run()
        # One WRITE (the bounced packet) and one READ (the entry fetch),
        # plus the control-plane install.
        assert channel.region.writes == 2
        assert channel.region.reads == 1

    def test_second_packet_hits_cache(self):
        tb, program, table, channel = build()
        flow = FiveTuple(
            src_ip=tb.hosts[0].eth.ip.value,
            dst_ip=tb.hosts[1].eth.ip.value,
            protocol=17,
            src_port=5000,
            dst_port=6000,
        )
        table.install(flow, RemoteAction(ACTION_SET_DSCP, 46))
        _, received = send_flow_packet(tb)
        tb.sim.run()
        tb.hosts[0].send(
            udp_between(tb.hosts[0], tb.hosts[1], 256, src_port=5000, dst_port=6000)
        )
        tb.sim.run()
        assert len(received) == 2
        assert table.metrics["remote_lookups"] == 1  # only the first missed
        assert table.metrics["local_hits"] == 1
        assert received[1].ipv4.dscp == 46

    def test_cache_disabled_every_packet_goes_remote(self):
        config = LookupTableConfig(entries=1 << 10, cache_entries=0)
        tb, program, table, channel = build(config=config)
        flow = FiveTuple(
            src_ip=tb.hosts[0].eth.ip.value,
            dst_ip=tb.hosts[1].eth.ip.value,
            protocol=17,
            src_port=5000,
            dst_port=6000,
        )
        table.install(flow, RemoteAction(ACTION_SET_DSCP, 1))
        _, received = send_flow_packet(tb)
        tb.sim.run()
        tb.hosts[0].send(
            udp_between(tb.hosts[0], tb.hosts[1], 256, src_port=5000, dst_port=6000)
        )
        tb.sim.run()
        assert len(received) == 2
        assert table.metrics["remote_lookups"] == 2
        assert table.metrics["local_hits"] == 0

    def test_unpopulated_entry_uses_default_action(self):
        tb, program, table, channel = build(
            default_action=RemoteAction(ACTION_SET_DSCP, 7)
        )
        _, received = send_flow_packet(tb)
        tb.sim.run()
        assert len(received) == 1
        assert received[0].ipv4.dscp == 7
        assert table.metrics["remote_invalid"] == 1

    def test_drop_action_drops(self):
        tb, program, table, channel = build()
        flow = FiveTuple(
            src_ip=tb.hosts[0].eth.ip.value,
            dst_ip=tb.hosts[1].eth.ip.value,
            protocol=17,
            src_port=5000,
            dst_port=6000,
        )
        table.install(flow, RemoteAction(ACTION_DROP, 0))
        _, received = send_flow_packet(tb)
        tb.sim.run()
        assert received == []

    def test_fingerprint_mismatch_falls_back_to_default(self):
        tb, program, table, channel = build()
        flow_a = FiveTuple(
            src_ip=tb.hosts[0].eth.ip.value,
            dst_ip=tb.hosts[1].eth.ip.value,
            protocol=17,
            src_port=5000,
            dst_port=6000,
        )
        # Manufacture a colliding install: write flow A's entry but with a
        # different flow's fingerprint.
        index = table.index_of(flow_a)
        other = FiveTuple(1, 2, 17, 3, 4)
        entry = RemoteAction(ACTION_SET_DSCP, 63).pack_with(fingerprint_of(other))
        channel.region.write(table.entry_address(index), entry)
        _, received = send_flow_packet(tb)
        tb.sim.run()
        assert len(received) == 1
        assert received[0].ipv4.dscp == 0  # action NOT applied
        assert table.metrics["fingerprint_mismatches"] == 1

    def test_cache_eviction_fifo(self):
        config = LookupTableConfig(entries=1 << 10, cache_entries=2)
        tb, program, table, channel = build(config=config)
        received = []
        tb.hosts[1].packet_handlers.append(lambda p, i: received.append(p))
        for sport in (100, 200, 300):
            flow = FiveTuple(
                src_ip=tb.hosts[0].eth.ip.value,
                dst_ip=tb.hosts[1].eth.ip.value,
                protocol=17,
                src_port=sport,
                dst_port=20_000,
            )
            table.install(flow, RemoteAction(ACTION_SET_DSCP, sport % 64))
            tb.hosts[0].send(
                udp_between(
                    tb.hosts[0], tb.hosts[1], 256,
                    src_port=sport, dst_port=20_000,
                )
            )
            tb.sim.run()
        assert table.metrics["cache_inserts"] == 3
        assert table.metrics["cache_evictions"] == 1
        assert len(table.cache) == 2

    def test_payload_survives_bounce(self):
        tb, program, table, channel = build()
        payload = bytes(range(200))
        packet = udp_between(
            tb.hosts[0], tb.hosts[1], 256, src_port=5000, payload=payload
        )
        received = []
        tb.hosts[1].packet_handlers.append(lambda p, i: received.append(p))
        tb.hosts[0].send(packet)
        tb.sim.run()
        assert len(received) == 1
        assert received[0].payload == payload
        assert received[0].require(UdpHeader).src_port == 5000

    def test_table_bigger_than_channel_rejected(self):
        tb = build_testbed()
        channel = tb.controller.open_channel(tb.memory_server, tb.server_port, mib(1))
        with pytest.raises(ValueError):
            RemoteLookupTable(
                tb.switch,
                channel,
                config=LookupTableConfig(entries=1 << 20),
            )

    def test_unknown_mode_rejected(self):
        tb = build_testbed()
        channel = tb.controller.open_channel(tb.memory_server, tb.server_port, mib(8))
        with pytest.raises(ValueError):
            RemoteLookupTable(
                tb.switch,
                channel,
                config=LookupTableConfig(entries=16, mode="telepathy"),
            )


class TestCuckooLayout:
    def build_cuckoo(self, seed=3, cache_entries=64, cache_policy="fifo"):
        config = LookupTableConfig(
            entries=1 << 10,
            cache_entries=cache_entries,
            layout="cuckoo",
            hash_seed=seed,
            policy=cache_policy,
            policy_seed=seed,
        )
        tb, program, table, channel = build(config=config)
        tb.controller.install_hash_seeds(table, seed)
        return tb, program, table, channel

    def _flow(self, tb, sport):
        return FiveTuple(
            src_ip=tb.hosts[0].eth.ip.value,
            dst_ip=tb.hosts[1].eth.ip.value,
            protocol=17,
            src_port=sport,
            dst_port=6000,
        )

    def test_miss_resolves_in_exactly_one_read(self):
        tb, program, table, channel = self.build_cuckoo(cache_entries=0)
        for sport in range(5000, 5050):
            table.install(
                self._flow(tb, sport), RemoteAction(ACTION_SET_DSCP, sport % 64)
            )
        received = []
        tb.hosts[1].packet_handlers.append(lambda p, i: received.append(p))
        for sport in range(5000, 5050):
            tb.hosts[0].send(
                udp_between(
                    tb.hosts[0], tb.hosts[1], 256,
                    src_port=sport, dst_port=6000,
                )
            )
        tb.sim.run()
        assert len(received) == 50
        assert all(p.ipv4.dscp == (p.udp.src_port % 64) for p in received)
        assert table.metrics["remote_lookups"] == 50
        assert table.metrics["remote_hits"] == 50
        # The one-READ property at the wire: one bucket-pair READ per
        # miss, never a bounce-retry second READ.
        assert channel.region.reads == table.metrics["remote_lookups"]

    def test_kicked_flows_stay_readable(self):
        """Install enough flows to force kicks; every flow must still
        resolve via the data plane's single bucket choice."""
        tb, program, table, channel = self.build_cuckoo(cache_entries=0)
        flows = [self._flow(tb, 1024 + i) for i in range(700)]
        for flow in flows:
            table.install(flow, RemoteAction(ACTION_SET_DSCP, 5))
        for flow in flows:
            ref = table.directory.slot_ref(table.directory.location[flow])
            assert table.dataplane.read_index(flow.pack()) == ref.index

    def test_install_hash_seeds_requires_cuckoo_layout(self):
        tb, program, table, channel = build()  # direct layout
        with pytest.raises(ChannelError):
            tb.controller.install_hash_seeds(table, 7)

    def test_install_hash_seeds_on_populated_table_raises(self):
        tb, program, table, channel = self.build_cuckoo()
        table.install(self._flow(tb, 5000), RemoteAction(ACTION_SET_DSCP, 1))
        with pytest.raises(ChannelError):
            tb.controller.install_hash_seeds(table, 99)

    def test_cuckoo_region_needs_bucket_pairs(self):
        """The channel must fit the cuckoo geometry, not just
        entries * entry_bytes."""
        config = LookupTableConfig(entries=1 << 10, layout="cuckoo")
        tb = build_testbed()
        channel = tb.controller.open_channel(
            tb.memory_server, tb.server_port, config.region_bytes - 1
        )
        with pytest.raises(ValueError):
            RemoteLookupTable(tb.switch, channel, config=config)

    def test_unknown_layout_rejected(self):
        tb = build_testbed()
        channel = tb.controller.open_channel(
            tb.memory_server, tb.server_port, mib(8)
        )
        with pytest.raises(ValueError):
            RemoteLookupTable(
                tb.switch,
                channel,
                config=LookupTableConfig(entries=16, layout="hopscotch"),
            )


class TestCachePolicyIntegration:
    def _send(self, tb, sport):
        tb.hosts[0].send(
            udp_between(
                tb.hosts[0], tb.hosts[1], 256, src_port=sport, dst_port=6000
            )
        )
        tb.sim.run()

    def _install(self, tb, table, sport):
        flow = FiveTuple(
            src_ip=tb.hosts[0].eth.ip.value,
            dst_ip=tb.hosts[1].eth.ip.value,
            protocol=17,
            src_port=sport,
            dst_port=6000,
        )
        table.install(flow, RemoteAction(ACTION_SET_DSCP, sport % 64))

    def test_unknown_cache_policy_rejected(self):
        config = LookupTableConfig(entries=1 << 10, policy="arc")
        tb = build_testbed()
        channel = tb.controller.open_channel(
            tb.memory_server, tb.server_port, config.region_bytes
        )
        with pytest.raises(ValueError):
            RemoteLookupTable(tb.switch, channel, config=config)

    def test_lru_keeps_recently_touched_flow(self):
        config = LookupTableConfig(
            entries=1 << 10, cache_entries=2, policy="lru"
        )
        tb, program, table, channel = build(config=config)
        for sport in (100, 200):
            self._install(tb, table, sport)
            self._send(tb, sport)
        self._send(tb, 100)  # touch 100: now most recent
        assert table.metrics["local_hits"] == 1
        self._install(tb, table, 300)
        self._send(tb, 300)  # evicts 200 (LRU), not 100
        self._send(tb, 100)
        assert table.metrics["local_hits"] == 2
        self._send(tb, 200)
        assert table.metrics["remote_lookups"] == 4  # 100, 200, 300, 200-again

    def test_fifo_policy_matches_legacy_eviction(self):
        """The default policy reproduces the original FIFO behavior."""
        config = LookupTableConfig(
            entries=1 << 10, cache_entries=2, policy="fifo"
        )
        tb, program, table, channel = build(config=config)
        for sport in (100, 200):
            self._install(tb, table, sport)
            self._send(tb, sport)
        self._send(tb, 100)  # recency must NOT protect 100 under FIFO
        self._install(tb, table, 300)
        self._send(tb, 300)
        self._send(tb, 100)  # evicted despite the touch: goes remote
        assert table.metrics["remote_lookups"] == 4
        # Two evictions: 300 pushed 100 out, then 100's re-fetch pushed
        # out the next-oldest resident.
        assert table.metrics["cache_evictions"] == 2

    def test_hit_rate_snapshot_matches_counters(self):
        config = LookupTableConfig(entries=1 << 10, cache_entries=4)
        tb, program, table, channel = build(config=config)
        self._install(tb, table, 100)
        self._send(tb, 100)
        self._send(tb, 100)
        self._send(tb, 100)
        metrics = table.metrics
        assert metrics["hit_rate"] == pytest.approx(
            metrics["local_hits"] / (metrics["local_hits"] + metrics["remote_lookups"])
        )
        assert metrics["hit_rate"] == pytest.approx(2 / 3)


class TestRecirculateMode:
    def build_recirc(self):
        config = LookupTableConfig(
            entries=1 << 10, cache_entries=64, mode="recirculate"
        )
        return build(config=config)

    def test_lookup_resolves_without_bouncing_packet(self):
        tb, program, table, channel = self.build_recirc()
        flow = FiveTuple(
            src_ip=tb.hosts[0].eth.ip.value,
            dst_ip=tb.hosts[1].eth.ip.value,
            protocol=17,
            src_port=5000,
            dst_port=6000,
        )
        table.install(flow, RemoteAction(ACTION_SET_DSCP, 12))
        _, received = send_flow_packet(tb)
        tb.sim.run()
        assert len(received) == 1
        assert received[0].ipv4.dscp == 12
        # Recirculate mode never WRITEs the packet (only the install wrote).
        assert channel.region.writes == 1
        assert table.metrics["recirculation_passes"] >= 1

    def test_recirculate_saves_remote_bandwidth(self):
        tb_b, _, table_b, _ = build()
        tb_r, _, table_r, _ = self.build_recirc()
        for tb, table in ((tb_b, table_b), (tb_r, table_r)):
            flow = FiveTuple(
                src_ip=tb.hosts[0].eth.ip.value,
                dst_ip=tb.hosts[1].eth.ip.value,
                protocol=17,
                src_port=5000,
                dst_port=6000,
            )
            table.install(flow, RemoteAction(ACTION_SET_DSCP, 1))
            send_flow_packet(tb)
            tb.sim.run()
        bounce_bytes = table_b.rocegen.metrics["request_wire_bytes"]
        recirc_bytes = table_r.rocegen.metrics["request_wire_bytes"]
        assert recirc_bytes < bounce_bytes


def test_a_frame_larger_than_the_packet_slot_is_dropped_as_a_lost_lookup():
    """A frame the entry's slot cannot hold is dropped in the pipeline:
    counted lost, no request issued, and ``sim.run()`` does not raise."""
    tb, program, table, channel = build(
        LookupTableConfig(entries=1 << 10, cache_entries=64, packet_slot_bytes=256)
    )
    _, received = send_flow_packet(tb, size=1000)
    tb.sim.run()
    assert received == []
    assert table.metrics["lookups_lost"] == 1
    assert table.metrics["remote_lookups"] == 0
    assert table.rocegen.metrics["writes_issued"] == table.rocegen.metrics["reads_issued"] == 0
    # A frame that fits still bounces, one READ for its one miss.
    send_flow_packet(tb, size=200)
    tb.sim.run()
    assert table.metrics["remote_lookups"] == 1
    assert table.rocegen.metrics["reads_issued"] == 1
