"""Composite data-plane programs combining forwarding with the primitives.

These are the Python analogues of the paper's "testing data plane
programs" (§5): small P4 programs that wire a primitive into an otherwise
ordinary forwarding pipeline.  They are also the integration points the
example applications and every benchmark harness reuse.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..core.lookup_table import RemoteAction, RemoteLookupTable
from ..core.packet_buffer import RemotePacketBuffer
from ..core.state_store import RemoteStateStore
from ..net.addresses import MacAddress
from ..net.headers import EthernetHeader
from ..net.packet import Packet
from ..switches.pipeline import PipelineContext, SwitchProgram


class StaticL2Program(SwitchProgram):
    """Forwarding from a statically-installed MAC → port map.

    Used instead of a learning switch in latency experiments so that no
    flooding perturbs measurements (the paper pre-configures forwarding in
    its microbenchmarks).
    """

    def __init__(self, mac_to_port: Optional[Dict[MacAddress, int]] = None) -> None:
        #: Egress port by the address's int ``value``: an int key hashes in
        #: C, a ``MacAddress`` key through a Python ``__hash__`` per packet.
        self.mac_to_port: Dict[int, int] = {}
        for mac, port in (mac_to_port or {}).items():
            self.install(mac, port)

    def install(self, mac: MacAddress, port: int) -> None:
        self.mac_to_port[MacAddress(mac).value] = port

    def forward_by_mac(self, ctx: PipelineContext, packet: Packet) -> None:
        eth = packet.find(EthernetHeader)
        if eth is None:
            ctx.drop()
            return
        port = self.mac_to_port.get(eth.dst.value)
        if port is None:
            ctx.drop()
        else:
            ctx.forward(port)

    def on_ingress(self, ctx: PipelineContext, packet: Packet) -> None:
        self.forward_by_mac(ctx, packet)


class RemoteBufferProgram(StaticL2Program):
    """Static L2 forwarding with a remote packet buffer on one egress port.

    The primitive hooks the traffic manager directly, and its RoCE
    responses reach it through the switch's response table: the program
    only forwards.
    """

    def __init__(self, mac_to_port=None) -> None:
        super().__init__(mac_to_port)
        self.packet_buffer: Optional[RemotePacketBuffer] = None

    def use_packet_buffer(self, primitive: RemotePacketBuffer) -> None:
        self.packet_buffer = primitive


class RemoteLookupProgram(StaticL2Program):
    """§5's lookup-table test program.

    Every incoming (non-RoCE) packet resolves its action through the
    remote lookup table (local cache first); the paper's example action
    rewrites the IPv4 DSCP field.  Forwarding still comes from the static
    L2 map, supplied to the primitive as its egress-resolution policy.
    """

    def __init__(self, mac_to_port=None) -> None:
        super().__init__(mac_to_port)
        self.lookup_table: Optional[RemoteLookupTable] = None
        #: Which packets consult the remote table; everything else is
        #: plainly L2-forwarded.  Default: every IPv4 packet (the paper's
        #: test program fetches "for every incoming packet").
        self.lookup_filter: Callable[[Packet], bool] = lambda packet: True

    def use_lookup_table(self, primitive: RemoteLookupTable) -> None:
        self.lookup_table = primitive
        primitive.resolve_egress = self._resolve_egress

    def _resolve_egress(self, packet: Packet, action: RemoteAction) -> Optional[int]:
        eth = packet.find(EthernetHeader)
        if eth is None:
            return None
        return self.mac_to_port.get(eth.dst.value)

    def on_ingress(self, ctx: PipelineContext, packet: Packet) -> None:
        table = self.lookup_table
        if table is None or not self.lookup_filter(packet):
            self.forward_by_mac(ctx, packet)
            return
        # lookup() applies cached actions synchronously (and forwards via
        # resolve_egress); on a miss the packet is bounced and the response
        # path finishes the job.
        table.lookup(ctx, packet)


class CountingProgram(StaticL2Program):
    """§5's state-store test program: count packets between end hosts.

    Original packets are forwarded unchanged; a cloned-and-truncated
    Fetch-and-Add updates the remote per-flow counter.
    """

    def __init__(self, mac_to_port=None) -> None:
        super().__init__(mac_to_port)
        self.state_store: Optional[RemoteStateStore] = None

    def use_state_store(self, primitive: RemoteStateStore) -> None:
        self.state_store = primitive

    def on_ingress(self, ctx: PipelineContext, packet: Packet) -> None:
        store = self.state_store
        self.forward_by_mac(ctx, packet)
        if store is not None and not ctx.dropped:
            store.on_packet(ctx, packet)
