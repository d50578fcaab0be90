"""An in-network key-value cache over remote memory (§2.2 / §6).

The paper names NetCache [19] as a prime beneficiary: an in-network KV
cache answers hot keys at switch line rate but is capped by SRAM; cold
keys fall back to the storage server's CPU.  With a remote value store in
server DRAM the switch can answer *misses* from the data plane too, by
issuing an RDMA READ for the value — the storage server's CPU serves only
writes/population.

Wire protocol (UDP, :class:`KvHeader`): GET(key) → REPLY(key, value, hit).
Remote value-store entry layout, one slot per hash bucket::

    0        1        16+1          16+1+VALUE_BYTES
    +--------+--------+-------------+
    | valid  | key    | value       |
    +--------+--------+-------------+
      u8       16 B     VALUE_BYTES

The stored key doubles as the collision check (full key compare, stronger
than the lookup-table fingerprint, since KV correctness is absolute).

Three modes, compared by :mod:`repro.experiments.kv_cache`:

* ``server``      — no cache; every GET hits the storage server's CPU.
* ``sram``        — hot keys cached in switch SRAM; misses go to the CPU.
* ``sram+remote`` — misses are answered with an RDMA READ instead; the
  server CPU sees no GETs at all.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Any, Dict, Optional

from ..baselines.cpu_slowpath import CpuSlowPath
from ..core.channel import RemoteMemoryChannel
from ..core.rocegen import RoceRequestGenerator
from ..hosts.server import Host
from ..net.headers import EthernetHeader, HeaderError, Ipv4Header, UdpHeader
from ..net.node import Interface
from ..net.packet import Packet
from ..rdma.constants import Opcode
from ..switches.hashing import crc32
from ..switches.pipeline import PipelineContext
from ..switches.tables import ActionEntry, ExactMatchTable
from .programs import StaticL2Program

KV_UDP_PORT = 5800
KEY_BYTES = 16
VALUE_BYTES = 64
ENTRY_BYTES = 1 + KEY_BYTES + VALUE_BYTES


@dataclass
class KvHeader:
    """The KV query/reply header carried as UDP payload prefix."""

    OP_GET = 1
    OP_REPLY = 2

    op: int
    key: bytes
    value: bytes = b"\x00" * VALUE_BYTES
    hit: bool = False

    LENGTH = 1 + 1 + KEY_BYTES + VALUE_BYTES

    def __post_init__(self) -> None:
        if len(self.key) != KEY_BYTES:
            raise HeaderError(f"KV key must be {KEY_BYTES} B, got {len(self.key)}")
        if len(self.value) != VALUE_BYTES:
            raise HeaderError(
                f"KV value must be {VALUE_BYTES} B, got {len(self.value)}"
            )

    def pack(self) -> bytes:
        return (
            struct.pack("!BB", self.op, int(self.hit)) + self.key + self.value
        )

    @classmethod
    def unpack(cls, data: bytes) -> "KvHeader":
        if len(data) < cls.LENGTH:
            raise HeaderError(f"short KV header: {len(data)} bytes")
        op, hit = struct.unpack("!BB", data[:2])
        key = data[2 : 2 + KEY_BYTES]
        value = data[2 + KEY_BYTES : cls.LENGTH]
        return cls(op=op, key=key, value=value, hit=bool(hit))

    @property
    def byte_len(self) -> int:
        return self.LENGTH


def normalize_key(key: bytes) -> bytes:
    """Pad/trim an application key to the fixed KEY_BYTES width."""
    return key[:KEY_BYTES].ljust(KEY_BYTES, b"\x00")


def pack_entry(key: bytes, value: bytes) -> bytes:
    """Serialize a remote value-store entry."""
    return (
        b"\x01"
        + normalize_key(key)
        + value[:VALUE_BYTES].ljust(VALUE_BYTES, b"\x00")
    )


def unpack_entry(data: bytes):
    """Returns (valid, key, value) from a remote value-store entry."""
    if len(data) < ENTRY_BYTES:
        raise HeaderError(f"short KV entry: {len(data)} bytes")
    return bool(data[0]), data[1 : 1 + KEY_BYTES], data[1 + KEY_BYTES : ENTRY_BYTES]


@dataclass
class KvCacheStats:
    queries: int = 0
    sram_hits: int = 0
    remote_fetches: int = 0
    remote_hits: int = 0
    remote_misses: int = 0
    server_forwards: int = 0
    cache_fills: int = 0
    cache_evictions: int = 0


class RemoteValueStore:
    """Control-plane view of the value array in server DRAM."""

    def __init__(self, channel: RemoteMemoryChannel, buckets: int) -> None:
        needed = buckets * ENTRY_BYTES
        if needed > channel.length:
            raise ValueError(
                f"{buckets} buckets need {needed} B, channel has "
                f"{channel.length} B"
            )
        self.channel = channel
        self.buckets = buckets

    def bucket_of(self, key: bytes) -> int:
        # CRC32 alone is GF(2)-linear, so structured keys ("key-7" vs
        # "key-57") collide systematically in the low bits.  A
        # multiplicative finalizer (Fibonacci hashing) models the second
        # independent hash stage real designs pipeline after the CRC unit.
        digest = crc32(normalize_key(key))
        mixed = (digest * 0x9E3779B1) & 0xFFFFFFFF
        mixed ^= mixed >> 16
        return mixed % self.buckets

    def address_of(self, key: bytes) -> int:
        return self.channel.base_address + self.bucket_of(key) * ENTRY_BYTES

    def populate(self, key: bytes, value: bytes) -> None:
        """Install a key/value pair (the storage server's write path)."""
        self.channel.region.write(self.address_of(key), pack_entry(key, value))


class KvCacheProgram(StaticL2Program):
    """NetCache-style switch program with a remote-memory miss path."""

    def __init__(
        self,
        sram_entries: int = 64,
        cache_fill: bool = True,
    ) -> None:
        super().__init__()
        self.sram = ExactMatchTable("kv.sram", sram_entries)
        self.cache_fill = cache_fill
        self.stats = KvCacheStats()
        self.value_store: Optional[RemoteValueStore] = None
        self.rocegen: Optional[RoceRequestGenerator] = None
        self.server_port: Optional[int] = None

    # -- wiring -----------------------------------------------------------------

    def use_remote_store(self, switch, store: RemoteValueStore) -> None:
        self.value_store = store
        # Each READ carries its (query, key) in the requester's window; a
        # fetch that draws no response loses its query with it.
        self.rocegen = RoceRequestGenerator(
            switch, store.channel, on_response=self._handle_remote_value
        )

    def use_server_port(self, port: int) -> None:
        """Fallback: forward misses to the storage server on *port*."""
        self.server_port = port

    # -- data plane -------------------------------------------------------------

    def on_ingress(self, ctx: PipelineContext, packet: Packet) -> None:
        query = self._parse_query(packet)
        if query is None:
            self.forward_by_mac(ctx, packet)
            return
        self.stats.queries += 1
        cached = self.sram.lookup(query.key)
        if cached is not None:
            self.stats.sram_hits += 1
            reply = self._make_reply(packet, query.key, cached.params["value"], hit=True)
            self._send_reply(ctx, reply)
            ctx.drop()
            return
        if self.rocegen is not None and self.value_store is not None:
            # Miss path A: fetch the value from remote memory; the switch
            # holds only the tiny query context while the READ is in
            # flight.
            self.stats.remote_fetches += 1
            self.rocegen.read(
                self.value_store.address_of(query.key), ENTRY_BYTES, (packet, query.key)
            )
            ctx.drop()
            return
        if self.server_port is not None:
            # Miss path B (baseline): punt to the storage server's CPU.
            self.stats.server_forwards += 1
            ctx.forward(self.server_port)
            return
        ctx.drop()

    def _parse_query(self, packet: Packet) -> Optional[KvHeader]:
        udp = packet.find(UdpHeader)
        if udp is None or udp.dst_port != KV_UDP_PORT:
            return None
        try:
            header = KvHeader.unpack(packet.payload)
        except HeaderError:
            return None
        return header if header.op == KvHeader.OP_GET else None

    def _handle_remote_value(
        self,
        ctx: PipelineContext,
        packet: Packet,
        opcode: Optional[Opcode],
        is_nak: bool,
        pending: Any,
    ) -> None:
        if opcode != Opcode.RDMA_READ_RESPONSE_ONLY or pending is None:
            return  # a NAK, or the response to a fetch already written off
        query, key = pending
        valid, stored_key, value = unpack_entry(packet.payload)
        hit = valid and stored_key == normalize_key(key)
        if hit:
            self.stats.remote_hits += 1
            if self.cache_fill:
                self._fill_sram(key, value)
            reply = self._make_reply(query, key, value, hit=True)
            self._send_reply(ctx, reply)
            return
        # Bucket collision or unpopulated key: fall back to the storage
        # server if one is wired, else answer an authoritative miss.
        self.stats.remote_misses += 1
        if self.server_port is not None:
            self.stats.server_forwards += 1
            ctx.emit(query, self.server_port)
        else:
            reply = self._make_reply(query, key, b"\x00" * VALUE_BYTES, hit=False)
            self._send_reply(ctx, reply)

    def _fill_sram(self, key: bytes, value: bytes) -> None:
        if self.sram.is_full and not self.sram.contains(key):
            self.sram.evict_oldest()
            self.stats.cache_evictions += 1
        self.sram.insert(key, ActionEntry("value", {"value": value}))
        self.stats.cache_fills += 1

    def _make_reply(
        self, query: Packet, key: bytes, value: bytes, hit: bool
    ) -> Packet:
        """Craft the KV reply in the data plane (addresses swapped)."""
        eth = query.require(EthernetHeader)
        ip = query.require(Ipv4Header)
        udp = query.require(UdpHeader)
        reply = Packet(
            headers=[
                EthernetHeader(dst=eth.src, src=eth.dst),
                Ipv4Header(src=ip.dst, dst=ip.src),
                UdpHeader(src_port=KV_UDP_PORT, dst_port=udp.src_port),
            ],
            payload=KvHeader(
                op=KvHeader.OP_REPLY,
                key=normalize_key(key),
                value=value,
                hit=hit,
            ).pack(),
            meta=dict(query.meta),
        )
        reply.fixup_lengths()
        return reply

    def _send_reply(self, ctx: PipelineContext, reply: Packet) -> None:
        eth = reply.require(EthernetHeader)
        port = self.mac_to_port.get(eth.dst.value)
        if port is not None:
            ctx.emit(reply, port)


class KvStorageServer:
    """The software KV server (baseline miss target).

    Answers GETs after the usual software latency; its ``cpu_queries``
    counter is the load metric the remote-memory design drives to zero.
    """

    def __init__(
        self,
        host: Host,
        slow_path: CpuSlowPath,
        store: Optional[Dict[bytes, bytes]] = None,
    ) -> None:
        self.host = host
        self.slow_path = slow_path
        self.store: Dict[bytes, bytes] = dict(store or {})
        self.cpu_queries = 0
        self.dropped_queries = 0
        host.packet_handlers.append(self._handle)

    def put(self, key: bytes, value: bytes) -> None:
        self.store[normalize_key(key)] = value[:VALUE_BYTES].ljust(
            VALUE_BYTES, b"\x00"
        )

    def _handle(self, packet: Packet, interface: Interface) -> None:
        udp = packet.find(UdpHeader)
        if udp is None or udp.dst_port != KV_UDP_PORT:
            return
        try:
            header = KvHeader.unpack(packet.payload)
        except HeaderError:
            return
        if header.op != KvHeader.OP_GET:
            return
        self.cpu_queries += 1
        if not self.slow_path.submit(packet, self._reply):
            self.dropped_queries += 1

    def _reply(self, query: Packet) -> None:
        header = KvHeader.unpack(query.payload)
        key = normalize_key(header.key)
        value = self.store.get(key)
        reply = Packet(
            headers=[
                EthernetHeader(
                    dst=query.eth.src, src=self.host.eth.mac
                ),
                Ipv4Header(src=self.host.eth.ip, dst=query.ipv4.src),
                UdpHeader(
                    src_port=KV_UDP_PORT, dst_port=query.udp.src_port
                ),
            ],
            payload=KvHeader(
                op=KvHeader.OP_REPLY,
                key=key,
                value=value if value is not None else b"\x00" * VALUE_BYTES,
                hit=value is not None,
            ).pack(),
            meta=dict(query.meta),
        )
        reply.fixup_lengths()
        self.host.send(reply)
