"""K-way replicated remote counters over a memory pool.

The state store's reliable mode (§7) makes a *single* server exactly-once;
it does nothing when the server itself dies.  This layer replicates every
counter update to K ring-chosen members — each replica is a full
:class:`~repro.core.state_store.RemoteStateStore` in reliable mode, so
each copy is independently exactly-once — and reconciles divergence after
failover with a quorum-style rule:

    the authoritative value of a counter is the **maximum** over its
    surviving replicas.

Max is correct for the monotone counters this primitive models (per-flow
packet/byte counts): a replica can only *miss* updates (it died, or an
update was still in flight), never over-count, because the per-replica
replay cache already de-duplicates retransmissions.  Applications pushing
signed deltas (Count Sketch) must not assume this rule — they should
reconcile with application-level logic instead.

Failover path: the health monitor declares a member dead → its store is
closed (watchdog stops retransmitting into the void) → every touched
counter still has K-1 live replicas → :meth:`reconcile` copies the
authoritative values onto the members that took over the dead arcs,
restoring K-way redundancy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set

from ..core.state_store import (
    ATOMIC_OPERAND_BYTES,
    RemoteStateStore,
    StateStoreConfig,
)
from ..net.packet import Packet
from ..switches.hashing import FiveTuple
from ..switches.pipeline import PipelineContext
from ..switches.switch import ProgrammableSwitch
from .pool import MemoryPool, PoolMember


@dataclass
class ClusterStoreStats:
    """Cluster-level counters layered over the per-replica store metrics."""

    updates_replicated: int = 0
    members_joined: int = 0
    members_left: int = 0
    members_failed: int = 0
    #: Counters copied onto a new replica during reconciliation.
    counters_repaired: int = 0
    reconciliations: int = 0
    #: Updates dropped because the pool had no live members.
    updates_unreplicated: int = 0


class ReplicatedStateStore:
    """Pool-backed, K-way replicated drop-in for :class:`RemoteStateStore`.

    Every update fans out to the key's current replica set
    (``pool.replicas_for(index, k)``); reads take the max over the alive
    replicas.  Exposes the same program-facing surface (``on_packet`` /
    ``update`` / ``flush_all``), so
    :class:`~repro.apps.programs.CountingProgram`-style programs drive it
    unchanged; each replica's responses reach it through the switch's
    response table.
    """

    def __init__(
        self,
        switch: ProgrammableSwitch,
        pool: MemoryPool,
        config: Optional[StateStoreConfig] = None,
        replication: int = 2,
        store_factory: Optional[
            Callable[[PoolMember], RemoteStateStore]
        ] = None,
    ) -> None:
        if replication < 1:
            raise ValueError("replication must be >= 1")
        self.switch = switch
        self.pool = pool
        #: Builds one replica store per member.  The default opens a plain
        #: DRAM channel; pass a factory to back replicas differently —
        #: e.g. a tiered store whose hot blocks ride the fast tier
        #: (``pool.tier_object`` + ``RemoteStateStore(tiering=...)``).
        self.store_factory = store_factory
        if config is None:
            # Replication without per-replica exactly-once would let a
            # *lossy link* (not just a dead server) desynchronize copies.
            config = StateStoreConfig(reliable=True)
        self.config = config
        self.replication = replication
        self.cluster_stats = ClusterStoreStats()
        #: Active replica stores by member name.
        self.stores: Dict[str, RemoteStateStore] = {}
        #: Closed stores; their requesters stay in the switch's response
        #: table, so late in-flight responses still reach them.
        self._retired: List[RemoteStateStore] = []
        #: Every counter index that ever received an update — the
        #: control-plane worklist for reconciliation.
        self._touched: Set[int] = set()
        for member in pool.alive_members:
            self._open_store(member)
        pool.listeners.append(self)

    # -- replica management --------------------------------------------------------

    @property
    def region_bytes_per_member(self) -> int:
        return self.config.counters * ATOMIC_OPERAND_BYTES

    def _open_store(self, member: PoolMember) -> RemoteStateStore:
        if self.store_factory is not None:
            store = self.store_factory(member)
        else:
            channel = self.pool.open_channel(
                member,
                self.region_bytes_per_member,
                name=f"counters:{member.name}",
            )
            store = RemoteStateStore(self.switch, channel, config=self.config)
        self.pool.watch(member, store.rocegen)
        self.stores[member.name] = store
        return store

    def replica_stores(self, index: int) -> List[RemoteStateStore]:
        """The alive replica stores currently hosting *index*."""
        if not self.stores:
            return []
        return [
            self.stores[m.name]
            for m in self.pool.replicas_for(index, self.replication)
        ]

    # -- program-facing surface (duck-types RemoteStateStore) ---------------------

    def key_of(self, packet: Packet) -> FiveTuple:
        """The counter key for *packet* (its 5-tuple)."""
        return FiveTuple.of(packet)

    def index_of(self, flow: FiveTuple) -> int:
        """Counter index for *flow*."""
        return flow.hash() % self.config.counters

    def on_packet(self, ctx: PipelineContext, packet: Packet) -> None:
        if self.config.sample is not None and not self.config.sample(packet):
            return
        value = 1 if self.config.count_mode == "packets" else packet.buffer_len
        self.update(self.key_of(packet).hash() % self.config.counters, value)

    def update(self, index: int, value: int) -> None:
        """Fan *value* out to every replica of counter *index*.

        With no live members the update is dropped and accounted — there
        is nowhere left to put it.
        """
        if not self.stores:
            self.cluster_stats.updates_unreplicated += 1
            return
        self._touched.add(index)
        for store in self.replica_stores(index):
            store.update(index, value)
        self.cluster_stats.updates_replicated += 1

    def flush_all(self) -> None:
        for store in self.stores.values():
            store.flush_all()

    @property
    def outstanding(self) -> int:
        return sum(store.outstanding for store in self.stores.values())

    @property
    def pending_value(self) -> int:
        return sum(store.pending_value for store in self.stores.values())

    def total(self, leaf: str) -> int:
        """Replica metric *leaf* summed over every replica, retired ones included."""
        return sum(store.metrics[leaf] for store in [*self.stores.values(), *self._retired])

    # -- reads and reconciliation --------------------------------------------------

    def read_counter(self, index: int) -> int:
        """Authoritative value: max over the alive replicas of *index*.

        Counts still accumulated switch-side or in flight are not yet in
        any replica's DRAM; quiesce first (``flush_all`` + run the sim)
        for an exact total.
        """
        return max(
            (
                store.read_counter_via_control_plane(index)
                for store in self.replica_stores(index)
            ),
            default=0,
        )

    def reconcile(self) -> int:
        """Control-plane repair after a membership change.

        For every touched counter, copy the authoritative (max) value onto
        any current replica that is behind — the member that took over a
        dead arc starts at zero and catches up here.  Returns the number
        of counters repaired.

        Failover reconciles run under live load, so the repair must not
        race the target's own un-landed deltas: a delta that already
        landed on the replica supplying the max but is still in flight to
        the repair target would be counted twice — once inside the
        absolute value written here, once when the Fetch-and-Add lands on
        top of it.  The target therefore catches up only to
        ``authoritative - unlanded``; its in-flight and accumulated
        deltas lift it the rest of the way, and any remaining shortfall
        is closed by the next quiesced reconcile (drain handoffs always
        run one).
        """
        repaired = 0
        for index in sorted(self._touched):
            authoritative = self.read_counter(index)
            if authoritative == 0:
                continue
            for store in self.replica_stores(index):
                held = store.read_counter_via_control_plane(index)
                target = authoritative - store.unlanded_value(index)
                if held < target:
                    store.channel.region.write(
                        store.counter_address(index),
                        target.to_bytes(ATOMIC_OPERAND_BYTES, "big"),
                    )
                    repaired += 1
        self.cluster_stats.counters_repaired += repaired
        self.cluster_stats.reconciliations += 1
        return repaired

    # -- membership change (PoolListener) ------------------------------------------

    def on_member_join(self, member: PoolMember) -> None:
        self.cluster_stats.members_joined += 1
        self._open_store(member)
        # The joiner took over arcs whose counters live on other members;
        # copy them in so its replicas are immediately authoritative.
        self.reconcile()

    def on_member_leave(self, member: PoolMember, graceful: bool) -> None:
        store = self.stores.pop(member.name, None)
        if store is None:
            return
        if graceful:
            self.cluster_stats.members_left += 1
        else:
            self.cluster_stats.members_failed += 1
        # Closing abandons the replica's in-flight and accumulated
        # updates; the surviving replicas still hold every update, which
        # is the redundancy replication bought.
        store.close()
        self._retired.append(store)
        if self.stores:
            self.reconcile()
