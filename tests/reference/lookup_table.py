"""The lookup path before it was budgeted (PR 24): traffic generation, the
sharded front, the bounce and the response pass, as they stood."""

from __future__ import annotations

import struct
from typing import Deque, Dict, Optional, Tuple

from repro.cluster.pool import PoolMember
from repro.cluster.sharded_lookup import ShardedLookupTable
from repro.core.lookup_table import (
    ACTION_BYTES,
    ACTION_DROP,
    RemoteAction,
    RemoteLookupTable,
    fingerprint_of,
)
from repro.core.rocegen import RoceRequestGenerator
from repro.net.headers import HeaderError
from repro.net.packet import Packet
from repro.rdma.constants import Opcode, psn_distance
from repro.rdma.headers import BthHeader
from repro.rdma.memory import TIER_FAST
from repro.switches.hashing import FiveTuple
from repro.switches.pipeline import PipelineContext
from repro.workloads.zipf import OpenLoopZipfTraffic

_ACTION_FORMAT = "!BBII6x"


def reference_unpack(data: bytes) -> Tuple[bool, RemoteAction, int]:
    """``RemoteAction.unpack`` as it stood: slice, then parse the format."""
    valid, action_id, param, fingerprint = struct.unpack(_ACTION_FORMAT, data[:ACTION_BYTES])
    return bool(valid), RemoteAction(action_id=action_id, param=param), fingerprint


def reference_stamp_ports(template: Packet, src_port: int, dst_port: int) -> Packet:
    """``stamp_ports`` as it stood: a generic clone, then two field stores."""
    if not (0 <= src_port <= 0xFFFF and 0 <= dst_port <= 0xFFFF):
        raise HeaderError(f"UDP port out of range: {src_port}, {dst_port}")
    packet = template.clone()
    udp = packet.udp
    udp.src_port = src_port
    udp.dst_port = dst_port
    return packet


class ReferenceZipfTraffic(OpenLoopZipfTraffic):
    """A ``FlowKey`` and a clone per packet, a per-rank ledger kept by the
    tick, the tick re-armed with a cancellable event."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._sent_by_rank: Dict[int, int] = {}
        self._packets_sent = 0

    def packet_for(self, rank: int) -> Packet:
        key = self.flow_key(rank)
        packet = reference_stamp_ports(self._template, key.src_port, key.dst_port)
        packet.meta["flow_rank"] = rank
        packet.meta["sent_at"] = self.sim.now
        return packet

    def _gap_ns(self) -> float:
        if self.arrival == "poisson":
            return self._arrival_rng.expovariate(1.0) * self._mean_gap_ns
        return self._mean_gap_ns

    def _tick(self) -> None:
        if self._cursor >= self.count:
            if self.on_done is not None:
                self.on_done()
            return
        rank = self.schedule[self._cursor]
        self._cursor += 1
        self.src.send(self.packet_for(rank))
        self._sent_by_rank[rank] = self._sent_by_rank.get(rank, 0) + 1
        self._packets_sent += 1
        self.sim.schedule(self._gap_ns(), self._tick)


class ReferenceLookupTable(RemoteLookupTable):
    """In-flight lookups as dicts, the key re-extracted and re-packed by
    every helper, one ``RemoteAction`` per slot scanned — every data-plane
    method as it stood, over the live class's control plane."""

    def _locate(self, index: int) -> "Tuple[RoceRequestGenerator, int, Optional[int]]":
        if self._tiering is None:
            return self.rocegen, self.entry_address(index), None
        tier, address = self._tiering.resolve(index)
        self._tiering.record_access(index, tier)
        gen = self._fastgen if tier == TIER_FAST else self.rocegen
        return gen, address, self._tiering.block_of(index)

    def _pending_of(self, gen: RoceRequestGenerator) -> Deque[dict]:
        if self._fastgen is not None and gen is self._fastgen:
            return self._pending_fast
        return self._pending

    def _hold_block(self, block: Optional[int]) -> None:
        if block is not None:
            self._busy_blocks[block] = self._busy_blocks.get(block, 0) + 1

    def _release_pending(self, pending: dict) -> None:
        block = pending.get("block")
        if block is None:
            return
        count = self._busy_blocks.get(block, 0) - 1
        if count <= 0:
            self._busy_blocks.pop(block, None)
        else:
            self._busy_blocks[block] = count

    def lookup(self, ctx: PipelineContext, packet: Packet) -> bool:
        flow = self.flow_of(packet)
        if self.cache is not None:
            action = self.cache.lookup(flow)
            if action is not None:
                self._m_local_hits.inc()
                if self._degraded:
                    self._m_degraded_hits.inc()
                self._apply(ctx, packet, action)
                return True
        if self._degraded:
            self._m_degraded_defaults.inc()
            self._apply(ctx, packet, self.default_action)
            return True
        self._remote_lookup(ctx, packet, flow)
        return False

    def _remote_lookup(self, ctx: PipelineContext, packet: Packet, flow: FiveTuple) -> None:
        self._m_remote_lookups.inc()
        index = self.index_of(flow)
        gen, address, block = self._locate(index)
        action_bytes = (
            self.config.bucket_pair_bytes
            if self.config.layout == "cuckoo"
            else ACTION_BYTES
        )
        pending = {
            "flow": flow,
            "index": index,
            "block": block,
            "meta": dict(packet.meta),
            "issued_at": self.switch.sim.now,
        }
        if self.config.mode == "bounce":
            frame = packet.pack()
            slot_space = self.config.packet_slot_bytes
            if len(frame) > slot_space:
                raise ValueError(
                    f"packet of {len(frame)} B exceeds the "
                    f"{slot_space} B packet slot"
                )
            gen.write(address + action_bytes, frame)
            request = gen.read(address, action_bytes + len(frame))
        else:
            pending["parked"] = packet
            request = gen.read(address, action_bytes)
        pending["read_psn"] = request.require(BthHeader).psn
        self._hold_block(block)
        self._pending_of(gen).append(pending)
        ctx.drop()

    def try_handle(self, ctx: PipelineContext, packet: Packet) -> bool:
        bth = packet.find(BthHeader)
        if bth is None:
            return False
        gen, fastgen = self.rocegen, self._fastgen
        if bth.dest_qp != gen.channel.switch_qp.qpn:
            if fastgen is None or bth.dest_qp != fastgen.channel.switch_qp.qpn:
                return False
            gen = fastgen
        ctx.drop()
        opcode, is_nak, psn = gen.accept_response(packet)
        if is_nak:
            self._handle_nak(gen, packet)
            return True
        if opcode is not Opcode.RDMA_READ_RESPONSE_ONLY:
            return True
        fifo = self._pending_of(gen)
        while fifo and fifo[0]["read_psn"] != psn:
            self._release_pending(fifo.popleft())
            self._m_lookups_lost.inc()
        if not fifo:
            return True
        pending = fifo.popleft()
        self._release_pending(pending)
        self._m_latency.observe(self.switch.sim.now - pending["issued_at"])
        entry = packet.payload
        flow: FiveTuple = pending["flow"]
        action, action_bytes = self._resolve_entry(entry, flow)
        if self.config.mode == "bounce":
            try:
                original = Packet.parse(entry, action_bytes)
            except HeaderError:
                self._m_lookups_lost.inc()
                return True
            original.meta = pending["meta"]
        else:
            original = pending["parked"]
            waited = self.switch.sim.now - pending["issued_at"]
            passes = max(1, int(waited // self.switch.config.recirculation_latency_ns))
            self._m_recirc_passes.inc(passes)
        self._mutate(ctx, original, action)
        port = self.resolve_egress(original, action)
        if port is not None and action.action_id != ACTION_DROP:
            ctx.emit(original, port)
        return True

    def _resolve_entry(self, entry: bytes, flow: FiveTuple) -> Tuple[RemoteAction, int]:
        expected_fp = fingerprint_of(flow)
        if self.config.layout == "cuckoo":
            action_bytes = self.config.bucket_pair_bytes
            any_valid = False
            for offset in range(0, action_bytes, ACTION_BYTES):
                valid, action, stored_fp = reference_unpack(
                    entry[offset:offset + ACTION_BYTES]
                )
                if not valid:
                    continue
                any_valid = True
                if stored_fp == expected_fp:
                    self._m_remote_hits.inc()
                    if self.cache is not None and self.config.cache_fill:
                        self._cache_fill(flow, action)
                    return action, action_bytes
            if any_valid:
                self._m_fp_mismatches.inc()
            else:
                self._m_remote_invalid.inc()
            return self.default_action, action_bytes
        valid, action, stored_fp = reference_unpack(entry)
        if not valid:
            self._m_remote_invalid.inc()
            action = self.default_action
        elif stored_fp != expected_fp:
            self._m_fp_mismatches.inc()
            action = self.default_action
        else:
            self._m_remote_hits.inc()
            if self.cache is not None and self.config.cache_fill:
                self._cache_fill(flow, action)
        return action, ACTION_BYTES

    def _handle_nak(self, gen: RoceRequestGenerator, packet: Packet) -> None:
        expected = packet.require(BthHeader).psn
        if not gen.fresh_nak(expected):
            return
        gen.record_strike()
        gen.maybe_resync(packet)
        fifo = self._pending_of(gen)
        while fifo and psn_distance(
            expected, fifo[-1]["read_psn"]
        ) < (1 << 23):
            self._release_pending(fifo.pop())
            self._m_lookups_lost.inc()

    def degrade(self, channel=None) -> None:
        if self._degraded:
            return
        self._degraded = True
        for fifo in (self._pending, self._pending_fast):
            while fifo:
                self._release_pending(fifo.popleft())
                self._m_lookups_lost.inc()

    def degrade_fast(self) -> None:
        if self._tiering is None or self._fast_degraded:
            return
        self._fast_degraded = True
        while self._pending_fast:
            self._release_pending(self._pending_fast.popleft())
            self._m_lookups_lost.inc()
        self._tiering.fast_enabled = False
        self._tiering.demote_all(force=True)


class ReferenceShardedLookup(ShardedLookupTable):
    """The key extracted at the front and again in the shard, the owner
    found through ``pool.member_for`` (a one-element ``replicas`` list),
    the BTH found by steering and again by the shard."""

    def _open_shard(self, member: PoolMember) -> RemoteLookupTable:
        channel = self.pool.open_channel(
            member,
            self.region_bytes_per_member,
            name=f"lookup:{member.name}",
        )
        shard = ReferenceLookupTable(
            self.switch,
            channel,
            config=self.config,
            default_action=self.default_action,
        )
        if self._resolve_egress is not None:
            shard.resolve_egress = self._resolve_egress
        shard.flow_of = self._flow_of
        self.pool.watch(member, shard.rocegen)
        self.shards[member.name] = shard
        self._steering.refresh()
        return shard

    def _shard_key(self, flow: FiveTuple) -> int:
        return flow.hash()

    def shard_for(self, flow: FiveTuple) -> RemoteLookupTable:
        owner = self.pool.ring.replicas(self._shard_key(flow), 1)[0]
        return self.shards[self.pool.member(owner).name]

    def lookup(self, ctx: PipelineContext, packet: Packet) -> bool:
        if not self.shards:
            return super().lookup(ctx, packet)  # pool fully dead: unchanged
        return self.shard_for(self._flow_of(packet)).lookup(ctx, packet)

    def try_handle(self, ctx: PipelineContext, packet: Packet) -> bool:
        shard = self._steering.owner_of(packet)
        return shard is not None and shard.try_handle(ctx, packet)
