"""The lookup-table primitive, sharded across a memory pool.

One :class:`~repro.core.lookup_table.RemoteLookupTable` shard per pool
member, each with its own channel and an *equal per-server region size*
(``config.entries`` entries per shard).  A flow's shard is chosen by the
pool's consistent-hash ring over the flow hash, so the data plane can
compute placement from the packet alone — every miss is still exactly one
WRITE + one READ to exactly one server, now spread over as many server
links as the pool has members.

Live shard migration follows the ring's minimal-movement property.  The
control plane journals every installed ``flow → action``; on membership
change it re-installs only the flows whose ring owner moved:

* **join** — the new member's shard opens, moved flows are written into
  its region (re-register), and the dispatch map re-points; the old
  copies are simply never consulted again.
* **graceful leave** — the ring re-points first (no new lookups reach the
  leaver), moved flows are re-installed, and the leaver's channels stay
  open under a drain hold until its in-flight lookups complete.
* **failure** — the health monitor pulls the member; in-flight lookups on
  it are accounted lost (bounce mode parks the packet remotely — §7's
  loss semantics), and journaled flows are re-installed onto survivors.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..core.lookup_table import (
    ACTION_DROP,
    LookupTableConfig,
    RemoteAction,
    RemoteLookupTable,
    ResolveEgress,
)
from ..net.packet import Packet
from ..switches.hashing import FiveTuple
from ..switches.pipeline import PipelineContext
from ..switches.switch import ProgrammableSwitch
from .pool import MemoryPool, PoolMember


@dataclass
class ClusterLookupStats:
    """Cluster-level counters layered over the per-shard metrics."""

    members_joined: int = 0
    members_left: int = 0
    members_failed: int = 0
    #: Journaled flows re-installed because their ring owner moved.
    flows_migrated: int = 0
    #: In-flight lookups abandoned when their member failed.
    lookups_lost_on_failure: int = 0
    #: Graceful drains that completed (all in-flight lookups answered).
    drains_completed: int = 0
    #: Lookups offered while the pool had no live members (the packet
    #: falls back to the default action locally; not lost).
    lookups_unplaced: int = 0


class ShardedLookupTable:
    """Pool-backed drop-in for :class:`RemoteLookupTable`.

    Exposes the same program-facing surface (``lookup`` / ``install`` /
    ``resolve_egress`` / ``flow_of``), so
    :class:`~repro.apps.programs.RemoteLookupProgram` drives it unchanged;
    each shard's responses reach it through the switch's response table.
    """

    def __init__(
        self,
        switch: ProgrammableSwitch,
        pool: MemoryPool,
        config: Optional[LookupTableConfig] = None,
        default_action: Optional[RemoteAction] = None,
        drain_poll_ns: float = 10_000.0,
        drain_timeout_ns: float = 1_000_000.0,
    ) -> None:
        self.switch = switch
        self.pool = pool
        self.config = config if config is not None else LookupTableConfig()
        self.default_action = default_action
        self.cluster_stats = ClusterLookupStats()
        self.drain_poll_ns = drain_poll_ns
        self.drain_timeout_ns = drain_timeout_ns
        self._resolve_egress: Optional[ResolveEgress] = None
        self._flow_of: Callable[[Packet], FiveTuple] = FiveTuple.of
        #: Active shards by member name (dispatch targets).
        self.shards: Dict[str, RemoteLookupTable] = {}
        #: Shards draining or dead; their requesters stay in the switch's
        #: response table, so late responses still reach them.
        self._retired: List[RemoteLookupTable] = []
        #: Control-plane journal: every installed flow → action.
        self._journal: Dict[FiveTuple, RemoteAction] = {}
        #: Current ring owner per journaled flow (migration delta base).
        self._placement: Dict[FiveTuple, str] = {}
        for member in pool.alive_members:
            self._open_shard(member)
        pool.listeners.append(self)

    # -- shard management ---------------------------------------------------------

    @property
    def region_bytes_per_member(self) -> int:
        return self.config.region_bytes

    def _open_shard(self, member: PoolMember) -> RemoteLookupTable:
        channel = self.pool.open_channel(
            member,
            self.region_bytes_per_member,
            name=f"lookup:{member.name}",
        )
        shard = RemoteLookupTable(
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
        return shard

    def _owner(self, packed: bytes) -> str:
        """The member whose shard holds the flow with key bytes *packed*:
        the ring owner of their CRC32 (``FiveTuple.hash``)."""
        return self.pool.ring.owner(zlib.crc32(packed))

    # -- program-facing surface (duck-types RemoteLookupTable) -------------------

    @property
    def resolve_egress(self) -> Optional[ResolveEgress]:
        return self._resolve_egress

    @resolve_egress.setter
    def resolve_egress(self, policy: ResolveEgress) -> None:
        self._resolve_egress = policy
        for shard in self.shards.values():
            shard.resolve_egress = policy

    @property
    def flow_of(self) -> Callable[[Packet], FiveTuple]:
        return self._flow_of

    @flow_of.setter
    def flow_of(self, extractor: Callable[[Packet], FiveTuple]) -> None:
        self._flow_of = extractor
        for shard in self.shards.values():
            shard.flow_of = extractor

    def install(self, flow: FiveTuple, action: RemoteAction) -> int:
        """Write *action* into the flow's owning shard, then journal it.

        The shard goes first: one that refuses the entry
        (:class:`~repro.cuckoo.CuckooFullError`) leaves no journal or
        placement record behind, so a later membership change neither
        skips nor resurrects a flow the caller was told had failed.  With
        no live members the flow is journaled only (returns ``-1``); it
        is written out when the next member joins.
        """
        if not self.shards:
            self._journal[flow] = action
            self._placement.pop(flow, None)
            return -1
        owner = self._owner(flow.pack())
        index = self.shards[owner].install(flow, action)
        self._journal[flow] = action
        self._placement[flow] = owner
        return index

    def lookup(self, ctx: PipelineContext, packet: Packet) -> bool:
        if not self.shards:
            # Pool fully dead: the table cannot be consulted, so apply the
            # default action locally and keep the pipeline moving.
            self.cluster_stats.lookups_unplaced += 1
            action = self.default_action
            port = (
                self._resolve_egress(packet, action)
                if self._resolve_egress is not None
                else None
            )
            if port is None or (
                action is not None and action.action_id == ACTION_DROP
            ):
                ctx.drop()
            else:
                ctx.forward(port)
            return True
        # One key extraction and one packing per pass: the shard, and in it
        # the READ index and the fingerprint, all derive from these bytes.
        flow = self._flow_of(packet)
        packed = flow.pack()
        return self.shards[self._owner(packed)].lookup(ctx, packet, flow, packed)

    def total(self, leaf: str) -> int:
        """Shard metric *leaf* summed over every shard, retired ones included."""
        return sum(shard.metrics[leaf] for shard in [*self.shards.values(), *self._retired])

    @property
    def lookups_lost(self) -> int:
        """Lookups lost to RDMA drops or abandoned with their member.

        A lookup the default action served while the pool was empty
        (``cluster_stats.lookups_unplaced``) was forwarded, not lost.
        """
        return self.total("lookups_lost") + self.cluster_stats.lookups_lost_on_failure

    # -- membership change (PoolListener) -----------------------------------------

    def on_member_join(self, member: PoolMember) -> None:
        self.cluster_stats.members_joined += 1
        self._open_shard(member)
        self._migrate_moved_flows()

    def on_member_leave(self, member: PoolMember, graceful: bool) -> None:
        shard = self.shards.pop(member.name, None)
        if shard is None:
            return
        self._retired.append(shard)
        if graceful:
            self.cluster_stats.members_left += 1
            self.pool.hold_for_drain(member)
            self._drain(member, shard, deadline=self.switch.sim.now + self.drain_timeout_ns)
        else:
            self.cluster_stats.members_failed += 1
            # Bounce mode parked the packets in the dead member's DRAM;
            # they are gone (§7's clean-loss semantics).
            self._lose_in_flight(shard)
        # The leaver's flows have no placement until migration re-homes
        # them (or, with an empty pool, until the next join).
        for flow, owner in list(self._placement.items()):
            if owner == member.name:
                del self._placement[flow]
        self._migrate_moved_flows()

    def _drain(
        self, member: PoolMember, shard: RemoteLookupTable, deadline: float
    ) -> None:
        """Poll until the leaver's in-flight lookups complete, then close."""
        if not shard.rocegen.window:
            self.cluster_stats.drains_completed += 1
            self.pool.release_drain(member)
            return
        if self.switch.sim.now >= deadline:
            self._lose_in_flight(shard)
            self.pool.release_drain(member)
            return
        self.switch.sim.schedule(
            self.drain_poll_ns, self._drain, member, shard, deadline
        )

    def _lose_in_flight(self, shard: RemoteLookupTable) -> None:
        window = shard.rocegen.window
        self.cluster_stats.lookups_lost_on_failure += len(window)
        window.clear()

    def _migrate_moved_flows(self) -> None:
        """Re-install journaled flows whose ring owner changed.

        The ring moves only the arcs of the member that joined or left,
        so this writes the minimal delta — the rest of the table stays
        untouched on its current servers.
        """
        if not self.shards:
            return
        for flow, action in self._journal.items():
            owner = self._owner(flow.pack())
            if self._placement.get(flow) == owner:
                continue
            self.shards[owner].install(flow, action)
            self._placement[flow] = owner
            self.cluster_stats.flows_migrated += 1
