"""The RDMA channel controller (the paper's control-plane component, §3).

"An RDMA channel controller running on the switch control plane and a
server is responsible to allocate memory regions on the server, set up an
RDMA channel, and pass the channel information including a remote queue
pair number (QPN), a base address of the registered memory region, and a
remote access key (Rkey) for the region to the data plane via the switch
control plane APIs."

That is exactly what :class:`RdmaChannelController.open_channel` does.  The
returned :class:`RemoteMemoryChannel` is the information handed to the data
plane; primitives read only its scalar fields (QPN, rkey, base address,
port), never touching server objects — mirroring the hardware split where
the data plane knows numbers, not pointers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from ..hosts.server import MemoryServer
from ..obs.trace import KIND_RECONNECT
from ..rdma.memory import TIER_DRAM, TIERS, AccessFlags, MemoryRegion
from ..rdma.qp import QueuePair
from ..rdma.verbs import connect_qps
from ..switches.switch import ProgrammableSwitch


class ChannelError(RuntimeError):
    """Raised when a channel cannot be established."""


@dataclass
class RemoteMemoryChannel:
    """Everything the data plane needs to reach one remote memory region."""

    name: str
    #: Switch-side soft queue pair (PSN state lives in data-plane registers
    #: on real hardware; we reuse the QueuePair abstraction).
    switch_qp: QueuePair
    #: The server-side QP terminated by the RNIC.
    server_qp: QueuePair
    #: Switch egress port facing the memory server.
    server_port: int
    #: Remote access key of the registered region.
    rkey: int
    #: Base virtual address of the registered region.
    base_address: int
    #: Region length in bytes.
    length: int
    #: Control-plane handle to the region (tests and controller use only).
    region: MemoryRegion = field(repr=False, default=None)
    #: The memory server (control-plane handle, never used by primitives).
    server: MemoryServer = field(repr=False, default=None)
    #: Fired (then cleared) by ``close_channel`` so event listeners bound
    #: to this channel — HealthMonitor watches, breaker guards — detach on
    #: teardown instead of double-counting a later reopen.
    teardown_callbacks: List[Callable[[], None]] = field(
        default_factory=list, repr=False
    )
    #: Memory tier this channel's region models ("dram" or "fast").  The
    #: channel owns the authoritative tag: close→reopen and QP reconnect
    #: re-assert it on whatever region backs the channel, so the RNIC's
    #: per-tier service profile survives a fresh rkey (DESIGN.md §13).
    tier: str = TIER_DRAM

    @property
    def end_address(self) -> int:
        return self.base_address + self.length


class RdmaChannelController:
    """Control-plane agent establishing channels between a switch and servers.

    One controller per switch.  ``open_channel`` performs the whole §3
    initialization sequence: allocate + register server memory, create the
    server QP, create the switch-side soft QP, connect the pair, and
    return the channel descriptor for the data plane.
    """

    def __init__(self, switch: ProgrammableSwitch) -> None:
        self.switch = switch
        self.channels: list[RemoteMemoryChannel] = []
        # Per-controller so switch-QP numbering is deterministic per run;
        # responses dispatch on dest_qp (the switch's ``requesters``),
        # which only needs uniqueness within this controller's switch.
        self._switch_qpn = itertools.count(0x100)
        obs = switch.sim.obs
        self.metrics = obs.registry.unique_scope(
            f"resilience.controller[{switch.name}]"
        )
        self._m_reconnects = self.metrics.counter("reconnects")
        self._trace = obs.trace

    def open_channel(
        self,
        server: MemoryServer,
        server_port: int,
        size_bytes: int = 0,
        name: Optional[str] = None,
        access: AccessFlags = AccessFlags.ALL_REMOTE,
        share_region_with: Optional[RemoteMemoryChannel] = None,
        tier: Optional[str] = None,
    ) -> RemoteMemoryChannel:
        """Establish an RDMA channel to *size_bytes* of *server*'s DRAM.

        ``server_port`` is the switch port the memory server is attached
        to.  Raises :class:`ChannelError` when the port does not face that
        server or the port lacks the IP identity RoCE packets need.

        ``share_region_with`` opens a *second queue pair* onto an existing
        channel's memory region instead of registering new memory.  RC
        delivers strictly in PSN order per QP, so two traffic classes that
        the switch may reorder (e.g. prioritized READs overtaking bulk
        WRITEs) must ride separate QPs — sharing a QP would NAK-storm.
        """
        if not 0 <= server_port < self.switch.port_count:
            raise ChannelError(
                f"switch {self.switch.name} has no port {server_port}"
            )
        port_iface = self.switch.port_interface(server_port)
        if port_iface.ip is None:
            raise ChannelError(
                f"port {server_port} needs an IP address to source RoCE "
                "packets; pass ip= to add_port()"
            )
        peer = port_iface.peer
        if peer is None or peer.node is not server:
            raise ChannelError(
                f"port {server_port} is not connected to server {server.name}"
            )

        # 1. Allocate and register the memory region on the server (or
        #    adopt the shared one).  ``tier`` defaults to the shared
        #    channel's tier, else DRAM.
        if share_region_with is not None:
            if share_region_with.server is not server:
                raise ChannelError(
                    "cannot share a region across different servers"
                )
            if tier is not None and tier != share_region_with.tier:
                raise ChannelError(
                    f"cannot open a {tier!r} channel onto a "
                    f"{share_region_with.tier!r} region"
                )
            tier = share_region_with.tier
            region = share_region_with.region
        else:
            tier = TIER_DRAM if tier is None else tier
            if tier not in TIERS:
                raise ChannelError(
                    f"unknown memory tier {tier!r}; expected one of {TIERS}"
                )
            region = server.lend_memory(size_bytes, access=access, tier=tier)
        # 2. Create the server-side queue pair on its RNIC.
        server_qp = server.rnic.create_qp()
        # 3. Create the switch-side soft queue pair, sourced from the port.
        switch_qp = QueuePair(
            next(self._switch_qpn), port_iface.ip, port_iface.mac
        )
        # 4. Exchange connection state (the blue dashed line in Fig. 2).
        connect_qps(switch_qp, server_qp)

        channel = RemoteMemoryChannel(
            name=name or f"{self.switch.name}->{server.name}",
            switch_qp=switch_qp,
            server_qp=server_qp,
            server_port=server_port,
            rkey=region.rkey,
            base_address=region.base_address,
            length=region.length,
            region=region,
            server=server,
            tier=tier,
        )
        self.channels.append(channel)
        return channel

    def close_channel(self, channel: RemoteMemoryChannel) -> None:
        """Tear the channel down so the same server/port can be reused.

        The full §3 sequence in reverse: both QPs go to ERROR, the
        server-side QP is destroyed on its RNIC (fresh responder state on
        reopen — ePSN, atomic replay cache), and the memory region is
        deregistered and returned to the DRAM budget unless another open
        channel still shares it.  A subsequent ``open_channel`` on the
        same server/port gets a fresh QPN and rkey with no stale
        switch-side or server-side state — the property live shard
        migration depends on.
        """
        if channel not in self.channels:
            raise ChannelError(f"channel {channel.name!r} is not open")
        self.channels.remove(channel)
        callbacks, channel.teardown_callbacks = channel.teardown_callbacks, []
        for callback in callbacks:
            callback()
        channel.switch_qp.to_error()
        channel.server.rnic.destroy_qp(channel.server_qp)
        if not any(ch.region is channel.region for ch in self.channels):
            channel.server.dram.release(channel.region)
            if channel.region in channel.server.lent_regions:
                channel.server.lent_regions.remove(channel.region)

    def install_hash_seeds(self, table, seed: int) -> "list[tuple[int, int]]":
        """Install the cuckoo bucket-hash seeds into *table*'s data plane.

        The §3 hand-off extended to the cuckoo layout: besides the
        channel tuple (QPN, rkey, base address), the data plane needs
        the two bucket-hash seeds ``(seed0, seed1)`` before it can
        compute pair indices.  The controller derives both from *seed*
        and pushes them through the same control-plane API the channel
        information rides — only legal while the table holds no flows.

        Accepts a :class:`~repro.core.lookup_table.RemoteLookupTable`
        with ``layout="cuckoo"`` or a sharded table (every shard is
        reseeded identically).  Returns the installed ``(seed0, seed1)``
        per (shard) table.
        """
        shards = getattr(table, "shards", None)
        targets = list(shards.values()) if shards is not None else [table]
        if not targets:
            raise ChannelError("no shards to install hash seeds into")
        installed = []
        for target in targets:
            install = getattr(target, "install_seeds", None)
            if install is None:
                raise ChannelError(
                    f"{type(target).__name__} has no cuckoo data plane to "
                    "seed (need layout='cuckoo')"
                )
            try:
                installed.append(install(seed))
            except ValueError as exc:
                raise ChannelError(str(exc)) from exc
        return installed

    def reconnect_channel(self, channel: RemoteMemoryChannel) -> None:
        """Tear down and re-open the channel's QP pair on the same region.

        The recovery half of §3: after retry exhaustion the old QPs are
        unusable (stale PSN state, a responder that may be mid-outage),
        but the registered memory — counters, buffered packets — must
        survive.  Both QPs go to ERROR, the server-side QP is destroyed
        (if its RNIC still knows it; a rebooted RNIC already forgot), and
        a fresh pair is created and connected with new QPN/PSN state.

        The channel descriptor is mutated **in place**: primitives hold
        the :class:`RemoteMemoryChannel` object itself, so the fresh
        ``(QPN, rkey, base)`` tuple is visible to the data plane the
        moment this returns — the simulator analogue of the control
        plane re-installing the channel registers.  Unacknowledged WRs
        on the old QP are never silently replayed: requesters observe
        them as error completions / timeouts and reconcile explicitly
        (DESIGN.md §11).  Teardown callbacks do NOT fire — listeners stay
        attached because it is still the same logical channel — and the
        switch's response table re-keys the channel's requester to the
        new QPN, so a late response to the old one reaches no owner.
        """
        if channel not in self.channels:
            raise ChannelError(f"channel {channel.name!r} is not open")
        port_iface = self.switch.port_interface(channel.server_port)
        channel.switch_qp.to_error()
        old_server_qp = channel.server_qp
        rnic = channel.server.rnic
        if rnic.qps.get(old_server_qp.qpn) is old_server_qp:
            rnic.destroy_qp(old_server_qp)
        server_qp = rnic.create_qp()
        switch_qp = QueuePair(
            next(self._switch_qpn), port_iface.ip, port_iface.mac
        )
        connect_qps(switch_qp, server_qp)
        requesters = self.switch.requesters
        requester = requesters.pop(channel.switch_qp.qpn, None)
        if requester is not None:
            requesters[switch_qp.qpn] = requester
        channel.switch_qp = switch_qp
        channel.server_qp = server_qp
        # Re-assert the channel's tier on its region.  The region survives
        # the reconnect, but recovery paths that re-registered it (e.g. a
        # pool reopening the channel after a member bounce) used to come
        # back tier-less — silently downgrading a fast region to DRAM
        # service until the next full reopen.  The channel's tag is
        # authoritative; restamp unconditionally.
        channel.region.tier = channel.tier
        self._m_reconnects.value += 1
        if self._trace is not None:
            self._trace.emit(
                self.switch.sim.now,
                f"controller:{self.switch.name}",
                switch_qp.qpn,
                KIND_RECONNECT,
                psn=switch_qp.qpn,
                channel=channel.name,
            )
