"""The memory-pool manager: many servers behind one switch, one resource.

The paper's primitives each talk to *one* RDMA channel on *one* memory
server.  Scale-out (§7 discussion) needs a layer that owns the set of
servers: open channels through the existing
:class:`~repro.core.channel.RdmaChannelController`, place shards with a
deterministic :class:`~repro.cluster.ring.ConsistentHashRing`, watch
health through the uniform channel signal, and coordinate membership
change so primitives can migrate live instead of wiring servers in at
construction time.

The pool is control-plane machinery: the data plane still sees only
channels (QPN / rkey / address scalars).  Primitives subscribe as
*membership listeners* and react to joins and leaves; the pool never
touches their packets.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..core.channel import RdmaChannelController, RemoteMemoryChannel
from ..core.rocegen import RoceRequestGenerator
from ..hosts.server import MemoryServer
from ..rdma.memory import TIER_DRAM, TIERS, AccessFlags
from .health import HealthMonitor
from .ring import ConsistentHashRing, Key


@dataclass
class PoolMember:
    """One memory server enrolled in the pool."""

    name: str
    server: MemoryServer
    port: int
    #: Channels opened through the pool for this member.
    channels: List[RemoteMemoryChannel] = field(default_factory=list)
    alive: bool = True
    #: Listeners still draining in-flight work during a graceful leave;
    #: channels close when the count returns to zero.
    drain_holds: int = 0
    #: The memory tier this member serves (DESIGN.md §13).  ``dram``
    #: members join the consistent-hash ring and host shard homes;
    #: ``fast`` members are cache-tier capacity only — channels to them
    #: are opened explicitly by the tiered pool, never by ring placement.
    tier: str = TIER_DRAM


class PoolListener:
    """Membership-change interface primitives implement (duck-typed).

    ``on_member_join`` fires after the member is placed on the ring;
    ``on_member_leave`` fires after the member left the ring but before
    its channels close (graceful leave) — the window in which listeners
    migrate their shards.  ``graceful`` is False when the health monitor
    declared the member dead (its channels are unusable; migrate from
    replicas or journals instead).
    """

    def on_member_join(self, member: PoolMember) -> None:  # pragma: no cover
        pass

    def on_member_leave(
        self, member: PoolMember, graceful: bool
    ) -> None:  # pragma: no cover
        pass


class MemoryPool:
    """Sharded, health-monitored pool of remote-memory servers."""

    def __init__(
        self,
        controller: RdmaChannelController,
        vnodes: int = 128,
        seed: int = 0,
        fail_after: int = 3,
    ) -> None:
        self.controller = controller
        self.ring = ConsistentHashRing(vnodes=vnodes, seed=seed)
        self.health = HealthMonitor(
            fail_after=fail_after,
            registry=controller.switch.sim.obs.registry,
        )
        self.health.on_member_down.append(self._health_down)
        self.members: Dict[str, PoolMember] = {}
        self.listeners: List[PoolListener] = []

    # -- membership ---------------------------------------------------------------

    @property
    def alive_members(self) -> List[PoolMember]:
        return [m for m in self.members.values() if m.alive]

    def member(self, name: str) -> PoolMember:
        try:
            return self.members[name]
        except KeyError:
            raise KeyError(f"no pool member named {name!r}") from None

    def add_server(
        self,
        server: MemoryServer,
        port: int,
        name: Optional[str] = None,
        tier: str = TIER_DRAM,
    ) -> PoolMember:
        """Enroll *server* (attached at switch *port*); fires join events.

        ``tier="fast"`` enrolls cache-tier capacity: the member is health
        tracked and receives explicitly-placed channels but never joins
        the consistent-hash ring, so ring placement (shard homes, replica
        sets) stays on the DRAM tier.
        """
        name = name or server.name
        if name in self.members:
            raise ValueError(f"pool already has a member named {name!r}")
        if tier not in TIERS:
            raise ValueError(f"unknown tier {tier!r}; expected one of {TIERS}")
        member = PoolMember(name=name, server=server, port=port, tier=tier)
        self.members[name] = member
        self.health.track(name)
        if tier == TIER_DRAM:
            self.ring.add(name)
        for listener in list(self.listeners):
            listener.on_member_join(member)
        return member

    def members_in_tier(self, tier: str) -> List[PoolMember]:
        """Alive members serving *tier*, in enrollment order."""
        return [m for m in self.alive_members if m.tier == tier]

    def remove_server(self, name: str) -> PoolMember:
        """Gracefully drain *name* out of the pool.

        Re-points the ring first (new placements skip the leaver), lets
        every listener migrate its shards, then closes the member's
        channels.  Listeners that need in-flight operations to drain
        schedule that themselves (see the sharded lookup table).
        """
        member = self.member(name)
        if member.alive and name in self.ring:
            self.ring.remove(name)
        member.alive = False
        for listener in list(self.listeners):
            listener.on_member_leave(member, graceful=True)
        if member.drain_holds == 0:
            self.close_member_channels(member)
        del self.members[name]
        return member

    def hold_for_drain(self, member: PoolMember) -> None:
        """Keep a leaving member's channels open while in-flight work drains.

        Call during ``on_member_leave``; pair with :meth:`release_drain`
        once the last in-flight operation on those channels completed.
        """
        member.drain_holds += 1

    def release_drain(self, member: PoolMember) -> None:
        """Release one drain hold; channels close when the last one drops.

        An unbalanced release (no hold outstanding) is a listener bug: it
        used to drive the count negative, so the *next*
        :meth:`hold_for_drain` was silently ineffective and a leave could
        close channels out from under a listener still draining.  The
        count now clamps at zero and the extra release warns instead of
        closing anything.
        """
        if member.drain_holds <= 0:
            member.drain_holds = 0
            warnings.warn(
                f"release_drain({member.name!r}) without a matching "
                "hold_for_drain; ignoring the extra release",
                RuntimeWarning,
                stacklevel=2,
            )
            return
        member.drain_holds -= 1
        if member.drain_holds == 0:
            self.close_member_channels(member)

    def fail_server(self, name: str) -> None:
        """Declare *name* dead right now (operator override of the monitor)."""
        self.member(name)  # KeyError before the monitor tracks a phantom
        self.health.mark_down(name)

    def _health_down(self, name: str) -> None:
        member = self.members.get(name)
        if member is None or not member.alive:
            return
        member.alive = False
        if name in self.ring:
            self.ring.remove(name)
        for listener in list(self.listeners):
            listener.on_member_leave(member, graceful=False)
        # The server is unreachable: its channels are abandoned, not
        # closed — there is no control-plane path to tear them down.

    # -- channels -----------------------------------------------------------------

    def open_channel(
        self,
        member: PoolMember,
        size_bytes: int,
        name: Optional[str] = None,
        access: AccessFlags = AccessFlags.ALL_REMOTE,
        share_region_with: Optional[RemoteMemoryChannel] = None,
        tier: Optional[str] = None,
    ) -> RemoteMemoryChannel:
        """Open a channel to *member* through the controller and track it.

        The channel inherits the member's tier unless ``tier`` overrides
        it — the single-server dual-tier topology (RDCA's LLC model)
        opens a ``fast`` channel onto a ``dram`` member's server.
        """
        channel = self.controller.open_channel(
            member.server,
            member.port,
            size_bytes,
            name=name or f"pool:{member.name}",
            access=access,
            share_region_with=share_region_with,
            # Shared regions inherit the original channel's tier.
            tier=tier
            if tier is not None or share_region_with is not None
            else member.tier,
        )
        member.channels.append(channel)
        return channel

    def close_member_channels(self, member: PoolMember) -> None:
        for channel in list(member.channels):
            if channel in self.controller.channels:
                self.controller.close_channel(channel)
            member.channels.remove(channel)

    def watch(
        self, member: PoolMember, rocegen: RoceRequestGenerator
    ) -> Callable[[], None]:
        """Feed *rocegen*'s health events into the member's health record.

        Returns the monitor's *unwatch* callable (also fired by channel
        teardown, so pool-driven close→reopen cycles never double-count).
        """
        return self.health.watch(member.name, rocegen)

    def watch_requester(self, member: PoolMember, rnic) -> Callable[[], None]:
        """Escalate *rnic*'s retry exhaustion straight to member failover.

        Retry exhaustion is a terminal verdict — the RNIC already spent
        its whole go-back-N budget on a silent peer — so the pool drains
        the member immediately instead of waiting for ``fail_after``
        strike events to accumulate on top of it.  The event still flows
        through the monitor first (counters, snapshots), then the member
        is marked down regardless of the strike threshold.
        """
        unwatch_monitor = self.health.watch_requester(member.name, rnic)
        listeners = rnic.on_retry_exhausted

        def drain_now(qp) -> None:
            self.health.mark_down(member.name)

        def unwatch() -> None:
            if drain_now in listeners:
                listeners.remove(drain_now)
            unwatch_monitor()

        listeners.append(drain_now)
        return unwatch

    # -- placement ----------------------------------------------------------------

    def member_for(self, key: Key) -> PoolMember:
        """The alive member owning *key* (the ring holds only alive members)."""
        return self.member(self.ring.owner(key))

    def replicas_for(self, key: Key, k: int) -> List[PoolMember]:
        """Up to *k* distinct alive members hosting replicas of *key*."""
        return [self.member(name) for name in self.ring.replicas(key, k)]

    def __repr__(self) -> str:
        alive = len(self.alive_members)
        return f"<MemoryPool {alive}/{len(self.members)} members alive>"
