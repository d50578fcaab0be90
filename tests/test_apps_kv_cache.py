"""Tests for the in-network KV cache application."""

import pytest

from repro.apps.kv_cache import (
    ENTRY_BYTES,
    KEY_BYTES,
    KV_UDP_PORT,
    KvCacheProgram,
    KvHeader,
    KvStorageServer,
    RemoteValueStore,
    VALUE_BYTES,
    normalize_key,
    pack_entry,
    unpack_entry,
)
from repro.baselines.cpu_slowpath import CpuSlowPath, CpuSlowPathConfig
from repro.experiments.kv_cache import run_kv_cache, run_kv_cache_comparison
from repro.testbed import build_testbed
from repro.net.headers import HeaderError, UdpHeader
from repro.net.packet import Packet
from repro.sim.units import usec
from repro.workloads.factory import udp_between


class TestKvHeader:
    def test_round_trip(self):
        header = KvHeader(
            op=KvHeader.OP_REPLY,
            key=normalize_key(b"alpha"),
            value=b"v" * VALUE_BYTES,
            hit=True,
        )
        assert KvHeader.unpack(header.pack()) == header

    def test_length(self):
        header = KvHeader(op=KvHeader.OP_GET, key=normalize_key(b"k"))
        assert len(header.pack()) == KvHeader.LENGTH

    def test_bad_key_length_rejected(self):
        with pytest.raises(HeaderError):
            KvHeader(op=KvHeader.OP_GET, key=b"short")

    def test_short_buffer_rejected(self):
        with pytest.raises(HeaderError):
            KvHeader.unpack(b"\x01\x00")


class TestEntryCodec:
    def test_round_trip(self):
        entry = pack_entry(b"mykey", b"myvalue")
        valid, key, value = unpack_entry(entry)
        assert valid
        assert key == normalize_key(b"mykey")
        assert value.rstrip(b"\x00") == b"myvalue"

    def test_entry_size(self):
        assert len(pack_entry(b"k", b"v")) == ENTRY_BYTES

    def test_normalize_trims_long_keys(self):
        assert len(normalize_key(b"x" * 100)) == KEY_BYTES


def kv_testbed(mode="sram+remote", sram_entries=8, keys=100):
    tb = build_testbed(n_hosts=2, with_memory_server=True)
    client, storage_host = tb.hosts
    program = KvCacheProgram(sram_entries=sram_entries)
    program.install(client.eth.mac, tb.host_ports[0])
    program.install(storage_host.eth.mac, tb.host_ports[1])
    tb.switch.bind_program(program)
    server = KvStorageServer(storage_host, CpuSlowPath(tb.sim, CpuSlowPathConfig()))
    channel = tb.controller.open_channel(
        tb.memory_server, tb.server_port, (1 << 12) * ENTRY_BYTES
    )
    store = RemoteValueStore(channel, buckets=1 << 12)
    for i in range(keys):
        key = normalize_key(f"key-{i}".encode())
        value = f"value-{i}".encode().ljust(VALUE_BYTES, b"\x00")
        store.populate(key, value)
        server.put(key, value)
    program.use_remote_store(tb.switch, store)
    program.use_server_port(tb.host_ports[1])
    return tb, program, server, store


def watch_replies(tb, replies):
    """Register (once) a handler collecting KV replies at the client."""

    def handler(p, i):
        udp = p.find(UdpHeader)
        if udp is not None and udp.src_port == KV_UDP_PORT:
            replies.append(KvHeader.unpack(p.payload))

    tb.hosts[0].packet_handlers.append(handler)


def send_get(tb, key):
    client = tb.hosts[0]
    query = udp_between(
        client, tb.hosts[1], 128,
        src_port=40_000, dst_port=KV_UDP_PORT,
        payload=KvHeader(op=KvHeader.OP_GET, key=normalize_key(key)).pack(),
    )
    client.send(query)


class TestKvCacheProgram:
    def test_remote_fetch_returns_value(self):
        tb, program, server, store = kv_testbed()
        replies = []
        watch_replies(tb, replies)
        send_get(tb, b"key-7")
        tb.sim.run()
        assert len(replies) == 1
        assert replies[0].hit
        assert replies[0].value.rstrip(b"\x00") == b"value-7"
        assert program.stats.remote_hits == 1
        assert server.cpu_queries == 0

    def test_second_query_hits_sram(self):
        tb, program, server, store = kv_testbed()
        replies = []
        watch_replies(tb, replies)
        send_get(tb, b"key-3")
        tb.sim.run()
        send_get(tb, b"key-3")
        tb.sim.run()
        assert len(replies) == 2
        assert program.stats.sram_hits == 1
        assert program.stats.remote_fetches == 1

    def test_unknown_key_falls_back_to_server(self):
        tb, program, server, store = kv_testbed()
        replies = []
        watch_replies(tb, replies)
        send_get(tb, b"no-such-key")
        tb.sim.run()
        assert len(replies) == 1
        assert not replies[0].hit
        assert program.stats.remote_misses == 1
        assert server.cpu_queries == 1  # collision/miss fallback only

    def test_sram_eviction_fifo(self):
        tb, program, server, store = kv_testbed(sram_entries=2)
        replies = []
        watch_replies(tb, replies)
        for i in range(3):
            send_get(tb, f"key-{i}".encode())
            tb.sim.run()
        assert program.stats.cache_evictions == 1
        assert len(program.sram) == 2

    def test_non_kv_traffic_forwards(self):
        tb, program, server, store = kv_testbed()
        received = []
        tb.hosts[1].packet_handlers.append(lambda p, i: received.append(p))
        tb.hosts[0].send(udp_between(tb.hosts[0], tb.hosts[1], 200))
        tb.sim.run()
        assert len(received) == 1

    def test_zero_cpu_for_populated_keys(self):
        tb, program, server, store = kv_testbed()
        replies = []
        watch_replies(tb, replies)
        for i in range(20):
            send_get(tb, f"key-{i}".encode())
        tb.sim.run()
        assert len(replies) == 20
        assert all(r.hit for r in replies)
        assert server.cpu_queries == 0
        assert tb.memory_server.cpu_packets == 0


class TestKvStorageServer:
    def test_answers_after_software_latency(self):
        tb, program, server, store = kv_testbed()
        program.rocegen = None  # disable the remote path: misses go to CPU
        program.value_store = None
        replies = []
        times = []
        watch_replies(tb, replies)
        tb.hosts[0].packet_handlers.append(
            lambda p, i: times.append(tb.sim.now)
        )
        send_get(tb, b"key-1")
        tb.sim.run()
        assert len(replies) == 1
        assert replies[0].hit
        assert server.cpu_queries == 1
        assert times[0] > usec(30)


class TestKvExperiment:
    def test_comparison_shape(self):
        results = run_kv_cache_comparison(keys=1000, queries=600)
        assert results["server"]["server_bypass_rate"] == 0.0
        assert results["sram"]["server_bypass_rate"] > 0.3
        assert results["sram+remote"]["server_bypass_rate"] > 0.9
        # Everyone answers everything eventually.
        for r in results.values():
            assert r["reply_rate"] == 1.0
        # The remote path removes the CPU tail.
        assert (
            results["sram+remote"]["p99_latency_us"]
            <= results["server"]["p99_latency_us"]
        )

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            run_kv_cache("quantum")
