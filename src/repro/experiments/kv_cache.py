"""§2.2/§6 application study: an in-network KV cache over remote memory.

NetCache-class systems answer hot keys from switch SRAM and push misses to
the storage server's CPU.  This experiment measures what the paper's
remote lookup capability changes: cold keys are answered with an RDMA READ
from server DRAM, so the storage server's CPU receives *zero* GETs.

Modes:

* ``server``      — no switch cache at all; every query hits the CPU.
* ``sram``        — hottest keys pre-installed in SRAM (NetCache-style);
  misses go to the CPU.
* ``sram+remote`` — SRAM cache plus the remote value store for misses.
"""

from __future__ import annotations

from typing import Dict, List

from ..analysis.stats import percentile
from ..apps.kv_cache import (
    ENTRY_BYTES,
    KV_UDP_PORT,
    KvCacheProgram,
    KvHeader,
    KvStorageServer,
    RemoteValueStore,
    VALUE_BYTES,
    normalize_key,
)
from ..baselines.cpu_slowpath import CpuSlowPath, CpuSlowPathConfig
from ..net.headers import UdpHeader
from ..net.packet import Packet
from ..sim.units import SEC, gbps, to_usec
from ..switches.tables import ActionEntry
from ..workloads.factory import udp_between
from ..workloads.flows import ZipfSampler
from ..testbed import build_testbed
from . import Experiment

MODES = ("server", "sram", "sram+remote")


def _value_for(key_id: int) -> bytes:
    return f"value-{key_id}".encode().ljust(VALUE_BYTES, b"\x00")


def _key_for(key_id: int) -> bytes:
    return normalize_key(f"key-{key_id}".encode())


def run_kv_cache(
    mode: str,
    keys: int = 10_000,
    sram_entries: int = 64,
    queries: int = 4_000,
    alpha: float = 1.1,
    rate_bps: float = gbps(2),
    seed: int = 0,
) -> dict:
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; pick from {MODES}")
    tb = build_testbed(n_hosts=2, with_memory_server=mode == "sram+remote")
    client, storage_host = tb.hosts

    program = KvCacheProgram(
        sram_entries=sram_entries if mode != "server" else 1,
        cache_fill=mode == "sram+remote",
    )
    program.install(client.eth.mac, tb.host_ports[0])
    program.install(storage_host.eth.mac, tb.host_ports[1])
    tb.switch.bind_program(program)

    server = KvStorageServer(
        storage_host, CpuSlowPath(tb.sim, CpuSlowPathConfig())
    )
    for key_id in range(keys):
        server.put(_key_for(key_id), _value_for(key_id))

    if mode == "sram+remote":
        # Size the bucket array for a tiny collision rate (expected
        # colliding fraction ~= keys / buckets); DRAM is cheap — that is
        # the paper's whole premise.
        buckets = 1 << 16
        while buckets < 64 * keys and buckets < (1 << 22):
            buckets <<= 1
        channel = tb.controller.open_channel(
            tb.memory_server, tb.server_port, buckets * ENTRY_BYTES
        )
        store = RemoteValueStore(channel, buckets=buckets)
        for key_id in range(keys):
            store.populate(_key_for(key_id), _value_for(key_id))
        program.use_remote_store(tb.switch, store)
        # Bucket collisions still fall back to the server (correctness).
        program.use_server_port(tb.host_ports[1])
    else:
        program.use_server_port(tb.host_ports[1])
        if mode == "sram":
            # NetCache-style: the controller pre-installs the hottest keys.
            for key_id in range(min(sram_entries, keys)):
                program.sram.insert(
                    _key_for(key_id),
                    ActionEntry("value", {"value": _value_for(key_id)}),
                )

    # -- query workload -------------------------------------------------------
    sampler = ZipfSampler(keys, alpha, tb.seeds.stream(f"kv-{seed}"))
    latencies: List[float] = []
    hits = [0]
    replies = [0]

    def on_reply(packet: Packet, interface) -> None:
        udp = packet.find(UdpHeader)
        if udp is None or udp.src_port != KV_UDP_PORT:
            return
        header = KvHeader.unpack(packet.payload)
        if header.op != KvHeader.OP_REPLY:
            return
        replies[0] += 1
        if header.hit:
            hits[0] += 1
        sent_at = packet.meta.get("sent_at")
        if sent_at is not None:
            latencies.append(tb.sim.now - sent_at)

    client.packet_handlers.append(on_reply)

    template = udp_between(client, storage_host, 256, dst_port=KV_UDP_PORT)
    interval_ns = template.wire_len * 8 * SEC / rate_bps
    state = {"sent": 0}

    def send_next() -> None:
        if state["sent"] >= queries:
            return
        key_id = sampler.sample()
        query = udp_between(
            client, storage_host, 128,
            src_port=40_000, dst_port=KV_UDP_PORT,
            payload=KvHeader(op=KvHeader.OP_GET, key=_key_for(key_id)).pack(),
        )
        query.meta["sent_at"] = tb.sim.now
        client.send(query)
        state["sent"] += 1
        tb.sim.schedule(interval_ns, send_next)

    tb.sim.schedule(0.0, send_next)
    tb.sim.run()

    sent = state["sent"]
    return {
        "mode": mode,
        "keys": keys,
        "sram_entries": sram_entries,
        "queries": sent,
        "replies": replies[0],
        "hits": hits[0],
        "median_latency_us": (
            to_usec(percentile(latencies, 50)) if latencies else float("nan")
        ),
        "p99_latency_us": (
            to_usec(percentile(latencies, 99)) if latencies else float("nan")
        ),
        "server_cpu_queries": server.cpu_queries,
        "server_drops": server.dropped_queries,
        "switch_answered": program.stats.sram_hits + program.stats.remote_hits,
        "reply_rate": replies[0] / sent if sent else 0.0,
        "server_bypass_rate": 1.0 - server.cpu_queries / sent if sent else 0.0,
    }


def run_kv_cache_comparison(**kwargs) -> Dict[str, dict]:
    return {mode: run_kv_cache(mode, **kwargs) for mode in MODES}


def _checks(record) -> dict:
    server, sram, remote = (record[mode] for mode in MODES)
    return {
        "every query answered": all(r["reply_rate"] == 1.0 for r in record.values()),
        "server-only never bypasses the server": server["server_bypass_rate"] == 0.0,
        "SRAM bypasses over 30%": sram["server_bypass_rate"] > 0.3,
        "SRAM + remote bypasses over 95%": remote["server_bypass_rate"] > 0.95,
        "remote median under a fifth of the server's": (
            remote["median_latency_us"] < server["median_latency_us"] / 5
        ),
    }


EXPERIMENT = Experiment(
    name="kv-cache", run=run_kv_cache_comparison, checks=_checks,
    quick={"keys": 2000, "queries": 1500},
    full={"keys": 10_000, "sram_entries": 64, "queries": 5000},
)
