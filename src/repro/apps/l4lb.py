"""L4 load balancer with live backend migration (ROADMAP production scenario).

The paper's pitch is a switch hosting state far beyond SRAM; the classic
production shape of that claim is an L4 load balancer whose connection
table lives in external memory.  This module composes every subsystem
PRs 1-9 built into that one application:

* **Connection table** — the cuckoo :class:`~repro.core.lookup_table.
  RemoteLookupTable` (EMOMA layout, one READ per miss) maps the client's
  5-tuple (dst = the VIP) to a backend's PIP via ``ACTION_SET_DST_IP``;
  switch SRAM acts as the hot-connection cache.
* **Per-backend counters** — a K-way
  :class:`~repro.cluster.replicated_store.ReplicatedStateStore` holds
  active-connection and byte counters per backend, both monotone, so the
  cluster layer's max-reconciliation rule applies.
* **Control plane** — :class:`L4LbController` owns placement (rendezvous
  hashing over the active backends), *graceful drain* (journaled
  re-install of every moved connection, then a quiesce + handoff
  reconcile under a :meth:`~repro.cluster.pool.MemoryPool.hold_for_drain`
  window), and *hard kills* (the §11 self-healing stack detects the dead
  member — breaker trip → degrade → reconnect probes — and escalates to
  pool failover once probes keep failing).

Affinity contract: an **established** connection only ever reaches the
backends its journal sanctions — its original placement plus any
controller-ordered migration targets.  New connections may land anywhere
active.  The soak in :mod:`repro.experiments.l4lb` asserts both halves
under a combined kill + drain + link-corruption schedule.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, List, NamedTuple, Optional, Set, Tuple

from ..cluster.pool import MemoryPool, PoolMember
from ..cluster.replicated_store import ReplicatedStateStore
from ..core.lookup_table import (
    ACTION_SET_DST_IP,
    RemoteAction,
    RemoteLookupTable,
)
from ..cuckoo.layout import CuckooFullError
from ..net.addresses import Ipv4Address, MacAddress
from ..net.headers import EthernetHeader, Ipv4Header
from ..net.packet import Packet
from ..resilience.guard import SelfHealingChannel
from ..switches.hashing import FiveTuple
from ..switches.pipeline import PipelineContext
from .programs import StaticL2Program

#: Backend lifecycle states (stringly-typed: they appear in journals and
#: metric snapshots verbatim).
BACKEND_ACTIVE = "active"
BACKEND_DRAINING = "draining"
BACKEND_DEAD = "dead"
BACKEND_RETIRED = "retired"


@dataclass
class Backend:
    """One load-balanced backend and its counter slots."""

    name: str
    pip: Ipv4Address
    mac: MacAddress
    port: int
    #: Pool member hosting this backend's counter-replica channel (the
    #: backends double as memory servers in the reference topology);
    #: None for a pure traffic sink.
    member: Optional[str] = None
    #: Counter slot: ``2*slot`` = active connections, ``2*slot+1`` = bytes.
    slot: int = 0
    state: str = BACKEND_ACTIVE

    @property
    def conns_index(self) -> int:
        return 2 * self.slot

    @property
    def bytes_index(self) -> int:
        return 2 * self.slot + 1

    @cached_property
    def action(self) -> RemoteAction:
        """The remote-table action that steers a connection here — one
        immutable action shared by all of them (``pip`` is fixed at
        registration, as ``backends_by_pip`` already assumes)."""
        return RemoteAction(ACTION_SET_DST_IP, self.pip.value)


class MigrationRecord(NamedTuple):
    """One journal entry: a connection re-pointed between backends (a
    named tuple: no per-record ``__dict__``)."""

    time_ns: float
    flow: FiveTuple
    #: The backend it left ("" if it had none).
    source: str
    target: str
    #: "drain" (controller-ordered graceful move) or "kill" (failover).
    reason: str
    #: The same connection's previous record (``None`` on its first
    #: migration): the journal carries each connection's history.
    prior: Optional["MigrationRecord"] = None


@dataclass
class L4LbStats:
    """Control-plane counters for one controller's lifetime."""

    connections_admitted: int = 0
    #: Admissions the connection table had no room for (the cuckoo insert
    #: failed and rolled back); the connection is not placed.
    connections_refused: int = 0
    connections_migrated: int = 0
    drains_started: int = 0
    drains_completed: int = 0
    #: Drains that hit their deadline before the store quiesced.
    drains_forced: int = 0
    kills_detected: int = 0
    #: Breaker probe give-ups escalated to pool failover.
    kill_escalations: int = 0
    #: Flows that could not be re-pointed (no active backend left).
    flows_stranded: int = 0


class L4LbProgram(StaticL2Program):
    """VIP-terminating data plane: connection table + per-backend counters.

    Non-VIP traffic takes ordinary L2 forwarding.  VIP traffic looks up
    the remote connection table; the installed action rewrites the dst IP
    to the chosen backend's PIP, and the egress policy finishes the job —
    MAC rewrite, port selection, and the two counter updates (first
    packet of a connection bumps the backend's connection counter; every
    packet adds to its byte counter).

    The program keeps an **expected-counts ledger** mirroring every
    update it hands the replicated store.  The ledger is the independent
    "ground truth" side of the soak's zero-lost-updates audit: after a
    quiesce, ``store.read_counter(i)`` must equal ``expected_counts[i]``
    for every index, through kills, drains, and link corruption.
    """

    def __init__(self, vip) -> None:
        super().__init__()
        self.vip = vip if isinstance(vip, Ipv4Address) else Ipv4Address(vip)
        self.connection_table: Optional[RemoteLookupTable] = None
        self.counter_store: Optional[ReplicatedStateStore] = None
        #: Reverse index the egress policy resolves through (the remote
        #: action already rewrote dst to the PIP).
        self.backends_by_pip: Dict[Ipv4Address, Backend] = {}
        #: Ground truth for the audit: index -> total value handed to the
        #: store (same fan-out-independent space the store reads back).
        self.expected_counts: Dict[int, int] = {}
        self.vip_packets = 0
        self.forwarded_packets = 0
        self.forwarded_by_backend: Dict[str, int] = {}
        #: VIP packets whose lookup resolved to no usable backend
        #: (default action, or a PIP no registered backend owns).
        self.no_backend_drops = 0
        self._counted: Set[Tuple[FiveTuple, str]] = set()

    # -- wiring (control plane) ---------------------------------------------------

    def use_connection_table(self, table: RemoteLookupTable) -> None:
        self.connection_table = table
        table.resolve_egress = self._resolve_backend

    def use_counter_store(self, store: ReplicatedStateStore) -> None:
        self.counter_store = store

    def register_backend(self, backend: Backend) -> None:
        self.backends_by_pip[backend.pip] = backend

    # -- data plane ---------------------------------------------------------------

    def connection_key(self, packet: Packet) -> FiveTuple:
        """The packet's connection 5-tuple, as the *client* addressed it.

        Post-translation packets carry the backend PIP in dst; the
        connection identity always uses the VIP.
        """
        flow = FiveTuple.of(packet)
        if flow.dst_ip == self.vip.value:
            return flow
        return flow._replace(dst_ip=self.vip.value)

    def on_ingress(self, ctx: PipelineContext, packet: Packet) -> None:
        table = self.connection_table
        ip = packet.find(Ipv4Header)
        if ip is not None and ip.dst == self.vip and table is not None:
            self.vip_packets += 1
            # Cache hits resolve synchronously; misses bounce off the
            # table server and resume in _resolve_backend either way.
            table.lookup(ctx, packet)
            return
        self.forward_by_mac(ctx, packet)

    def _resolve_backend(
        self, packet: Packet, action: RemoteAction
    ) -> Optional[int]:
        """Egress policy: finish the translation and do the accounting."""
        if action.action_id != ACTION_SET_DST_IP:
            self.no_backend_drops += 1
            return None
        backend = self.backends_by_pip.get(packet.require(Ipv4Header).dst)
        if backend is None:
            self.no_backend_drops += 1
            return None
        packet.require(EthernetHeader).dst = backend.mac
        self.forwarded_packets += 1
        self.forwarded_by_backend[backend.name] = (
            self.forwarded_by_backend.get(backend.name, 0) + 1
        )
        self._count(packet, backend)
        return backend.port

    def _count(self, packet: Packet, backend: Backend) -> None:
        if self.counter_store is None:
            return
        key = (self.connection_key(packet), backend.name)
        if key not in self._counted:
            # First packet of this connection on this backend: one more
            # active connection.  Monotone by construction (a migrated
            # connection counts on both backends; neither ever decrements)
            # so the replicated store's max-reconciliation rule holds.
            self._counted.add(key)
            self._record(backend.conns_index, 1)
        self._record(backend.bytes_index, packet.buffer_len)

    def _record(self, index: int, value: int) -> None:
        self.expected_counts[index] = self.expected_counts.get(index, 0) + value
        self.counter_store.update(index, value)


class L4LbController:
    """Control plane: placement, graceful drain, and kill absorption.

    Registers itself as a :class:`~repro.cluster.pool.PoolListener`, so
    membership changes — whether controller-ordered (drain) or declared
    by health/escalation (kill) — flow back into backend state and
    connection re-placement.
    """

    def __init__(
        self,
        program: L4LbProgram,
        table: RemoteLookupTable,
        store: ReplicatedStateStore,
        pool: MemoryPool,
        seed: int = 0,
        drain_poll_ns: float = 10_000.0,
        drain_timeout_ns: float = 2_000_000.0,
    ) -> None:
        self.program = program
        self.table = table
        self.store = store
        self.pool = pool
        self.sim = pool.controller.switch.sim
        self.drain_poll_ns = drain_poll_ns
        self.drain_timeout_ns = drain_timeout_ns
        self._salt = struct.pack("!I", seed & 0xFFFFFFFF)
        self.backends: Dict[str, Backend] = {}
        #: name → the bytes its score hashes after the flow's (name + salt).
        self._score_suffix: Dict[str, bytes] = {}
        #: Current backend per established connection.
        self.placement: Dict[FiveTuple, str] = {}
        self.flows_by_backend: Dict[str, Set[FiveTuple]] = {}
        #: Journal of every re-install (the drain/kill audit trail).
        self.journal: List[MigrationRecord] = []
        #: Each migrated connection's latest record, the head of its chain
        #: of ``prior`` records (a never-migrated one has none).
        self._last_move: Dict[FiveTuple, MigrationRecord] = {}
        self.healers: Dict[str, SelfHealingChannel] = {}
        self.stats = L4LbStats()
        pool.listeners.append(self)

    # -- backends -----------------------------------------------------------------

    def add_backend(
        self,
        name: str,
        pip,
        mac,
        port: int,
        member: Optional[PoolMember] = None,
    ) -> Backend:
        if name in self.backends:
            raise ValueError(f"backend {name!r} already registered")
        pip = pip if isinstance(pip, Ipv4Address) else Ipv4Address(pip)
        if pip in self.program.backends_by_pip:
            # The data plane maps a PIP to one backend: a second one would
            # take over the first one's connections.
            raise ValueError(f"PIP {pip} already registered")
        slot = len(self.backends)
        limit = self.store.config.counters
        if 2 * slot + 1 >= limit:
            raise ValueError(
                f"store has {limit} counters; backend slot {slot} needs "
                f"indices {2 * slot}..{2 * slot + 1}"
            )
        backend = Backend(
            name=name,
            pip=pip,
            mac=mac if isinstance(mac, MacAddress) else MacAddress(mac),
            port=port,
            member=member.name if member is not None else None,
            slot=slot,
        )
        self.backends[name] = backend
        self._score_suffix[name] = name.encode() + self._salt
        self.flows_by_backend[name] = set()
        self.program.register_backend(backend)
        return backend

    @property
    def active_backends(self) -> List[Backend]:
        return [b for b in self.backends.values() if b.state == BACKEND_ACTIVE]

    def _backend_for_member(self, member_name: str) -> Optional[Backend]:
        for backend in self.backends.values():
            if backend.member == member_name:
                return backend
        return None

    # -- placement ----------------------------------------------------------------

    def place(self, flow: FiveTuple) -> Optional[Backend]:
        """Rendezvous-hash *flow* over the active backends (deterministic)."""
        # score = crc32(flow bytes + name + salt): the flow's part is hashed
        # once and each backend continues that running CRC over its suffix.
        running = zlib.crc32(flow.pack())
        suffixes = self._score_suffix
        best: Optional[Backend] = None
        best_score: Tuple[int, str] = (-1, "")
        for name, backend in self.backends.items():
            if backend.state != BACKEND_ACTIVE:
                continue
            score = (zlib.crc32(suffixes[name], running), name)
            if best is None or score > best_score:
                best, best_score = backend, score
        return best

    def admit(self, flow: FiveTuple) -> Optional[Backend]:
        """Install *flow*'s connection-table entry (idempotent).

        Returns ``None`` when no backend is active, or when the table has
        no room for the entry: the connection is refused and counted, and
        the table is as it was."""
        current = self.placement.get(flow)
        if current is not None:
            return self.backends[current]
        backend = self.place(flow)
        if backend is None:
            return None
        try:
            self.table.install(flow, backend.action)
        except CuckooFullError:
            self.stats.connections_refused += 1
            return None
        self.placement[flow] = backend.name
        self.flows_by_backend[backend.name].add(flow)
        self.stats.connections_admitted += 1
        return backend

    def assignment_history(self, flow: FiveTuple) -> List[str]:
        """Every backend this connection was ever sanctioned to reach."""
        record = self._last_move.get(flow)
        if record is None:
            current = self.placement.get(flow)
            return [current] if current is not None else []
        history = []
        while True:
            history.append(record.target)
            if record.prior is None:
                break
            record = record.prior
        if record.source:
            history.append(record.source)
        history.reverse()
        return history

    def migrate(self, flow: FiveTuple, target: Backend, reason: str) -> None:
        """Journaled re-install: re-point *flow* at *target* live.

        The table's re-install rewrites the remote entry in place and
        refreshes any SRAM-cached copy, so in-flight packets flip to the
        new backend at the install instant — no entry ever disappears
        mid-migration.
        """
        source = self.placement.get(flow)
        self.table.install(flow, target.action)
        if source is not None:
            self.flows_by_backend[source].discard(flow)
        self.placement[flow] = target.name
        self.flows_by_backend[target.name].add(flow)
        record = MigrationRecord(
            self.sim.now, flow, source if source is not None else "",
            target.name, reason, self._last_move.get(flow),
        )
        self.journal.append(record)
        self._last_move[flow] = record
        self.stats.connections_migrated += 1

    def _repoint(self, backend: Backend, reason: str) -> int:
        """Move every connection off *backend* (it is no longer active)."""
        moved = 0
        for flow in list(self.flows_by_backend[backend.name]):
            target = self.place(flow)
            if target is None:
                self.stats.flows_stranded += 1
                continue
            self.migrate(flow, target, reason)
            moved += 1
        return moved

    # -- graceful drain -----------------------------------------------------------

    def drain_backend(self, name: str) -> Backend:
        """Begin a graceful drain: migrate, quiesce, hand off, leave.

        The backend stops taking new placements immediately and its
        established connections re-install elsewhere right away.  Its
        pool member then leaves under a drain hold: the controller polls
        until the replicated store has nothing in flight (or the deadline
        passes), runs a *handoff reconcile* while the leaver's replicas
        are still consulted as authoritative sources, and only then
        removes the member and releases the hold — which is what finally
        closes the channels.  Skipping the handoff loses any counter
        value whose only surviving copy sat on the leaver (the co-replica
        having died earlier); the soak exercises exactly that order.
        """
        backend = self.backends[name]
        if backend.state != BACKEND_ACTIVE:
            raise ValueError(f"backend {name!r} is {backend.state}, not active")
        backend.state = BACKEND_DRAINING
        self.stats.drains_started += 1
        self._repoint(backend, reason="drain")
        member = (
            self.pool.members.get(backend.member)
            if backend.member is not None
            else None
        )
        if member is None or not member.alive:
            backend.state = BACKEND_RETIRED
            self.stats.drains_completed += 1
            return backend
        self.pool.hold_for_drain(member)
        deadline = self.sim.now + self.drain_timeout_ns
        self._drain_poll(backend, member, deadline)
        return backend

    def _drain_poll(
        self, backend: Backend, member: PoolMember, deadline: float
    ) -> None:
        store = self.store
        quiesced = store.outstanding == 0 and store.pending_value == 0
        if not quiesced and self.sim.now < deadline:
            store.flush_all()
            self.sim.schedule(
                self.drain_poll_ns, self._drain_poll, backend, member, deadline
            )
            return
        if not quiesced:
            self.stats.drains_forced += 1
        # Handoff reconcile *before* the ring change: the leaver is still
        # a consulted replica, so its (now durable) values copy onto the
        # members that take over its arcs.
        store.reconcile()
        self.pool.remove_server(member.name)
        self.pool.release_drain(member)
        backend.state = BACKEND_RETIRED
        self.stats.drains_completed += 1

    # -- kill absorption (§11 self-healing) ----------------------------------------

    def enable_self_healing(
        self,
        policy_for: Optional[Callable[[PoolMember], object]] = None,
        give_up_probes: int = 2,
    ) -> Dict[str, SelfHealingChannel]:
        """Guard every backend's counter channel with a breaker.

        ``policy_for(member)`` supplies each member's
        :class:`~repro.policies.breaker.BreakerPolicy` (thresholds +
        seeded probe jitter).  A tripped breaker degrades the replica
        store (updates accumulate locally; the surviving replica keeps
        the truth); half-open reconnects and probes.  Once
        ``give_up_probes`` probes fail in a row the controller stops
        hoping and escalates: the member is declared dead, the pool fails
        it over, and this controller re-points the backend's connections.
        """
        for backend in self.backends.values():
            member_name = backend.member
            if member_name is None or member_name not in self.store.stores:
                continue
            member = self.pool.member(member_name)
            store = self.store.stores[member_name]
            kwargs = {}
            if policy_for is not None:
                kwargs["policy"] = policy_for(member)
            healer = SelfHealingChannel(
                self.pool.controller, store.channel, store, **kwargs
            )
            healer.breaker.on_open.append(
                self._escalator(member_name, give_up_probes)
            )
            self.healers[member_name] = healer
        return dict(self.healers)

    def _escalator(
        self, member_name: str, give_up_probes: int
    ) -> Callable[[object], None]:
        def escalate(breaker) -> None:
            if breaker.probe_failures < give_up_probes:
                return
            member = self.pool.members.get(member_name)
            if member is None or not member.alive:
                return
            self.stats.kill_escalations += 1
            self.pool.fail_server(member_name)

        return escalate

    # -- PoolListener -------------------------------------------------------------

    def on_member_join(self, member: PoolMember) -> None:
        pass

    def on_member_leave(self, member: PoolMember, graceful: bool) -> None:
        healer = self.healers.pop(member.name, None)
        if healer is not None:
            # A dead member's breaker would otherwise probe forever;
            # stand the whole guard down (terminal).
            healer.stop()
        backend = self._backend_for_member(member.name)
        if backend is None:
            return
        if graceful:
            if backend.state == BACKEND_ACTIVE:
                backend.state = BACKEND_RETIRED
        else:
            backend.state = BACKEND_DEAD
            self.stats.kills_detected += 1
        self._repoint(backend, reason="drain" if graceful else "kill")

    def __repr__(self) -> str:
        active = len(self.active_backends)
        return (
            f"<L4LbController {active}/{len(self.backends)} backends active, "
            f"{len(self.placement)} connections>"
        )
