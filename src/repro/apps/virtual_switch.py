"""Bare-metal hosting virtual switch (§2.2 / Fig. 1b).

Azure-style scenario: customers' blackbox servers talk to their VMs via
virtual IPs; the ToR must translate VIP → PIP because nothing can be
installed on the blackboxes.  The full mapping table is far larger than
switch SRAM.

Two implementations share :class:`VirtualSwitchProgram`'s translation
logic:

* **Remote-table mode** — the paper's design: the complete VIP→PIP map in
  server DRAM via the lookup-table primitive; switch SRAM acts as a cache.
* **CPU slow-path mode** — the baseline: a bounded SRAM table; misses take
  the software path with its µs-scale latency and pps ceiling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..baselines.cpu_slowpath import CpuSlowPath
from ..core.lookup_table import (
    ACTION_SET_DST_IP,
    RemoteAction,
    RemoteLookupTable,
)
from ..net.addresses import Ipv4Address, MacAddress
from ..net.headers import EthernetHeader, Ipv4Header
from ..net.packet import Packet
from ..switches.hashing import FiveTuple
from ..switches.pipeline import PipelineContext
from ..switches.tables import ActionEntry, ExactMatchTable, TableFullError
from .programs import StaticL2Program


@dataclass(frozen=True)
class VipMapping:
    """One virtual-to-physical translation."""

    vip: Ipv4Address
    pip: Ipv4Address
    pip_mac: MacAddress
    egress_port: int


class VirtualSwitchProgram(StaticL2Program):
    """VIP→PIP translating ToR program with pluggable miss handling."""

    def __init__(self, sram_entries: int = 128) -> None:
        super().__init__()
        #: Full mapping, known only to the control plane.
        self._mappings: Dict[Ipv4Address, VipMapping] = {}
        #: Reverse index: PIP → mapping (the remote action rewrites the
        #: destination to the PIP before the egress policy runs).
        self._by_pip: Dict[Ipv4Address, VipMapping] = {}
        #: What fits in SRAM (the baseline's only fast table; in remote
        #: mode the lookup primitive's cache plays this role instead).
        self.local_table = ExactMatchTable("vswitch.sram", sram_entries)
        self.lookup_table: Optional[RemoteLookupTable] = None
        self.slow_path: Optional[CpuSlowPath] = None
        self.slow_path_translations = 0
        self.slow_path_drops = 0
        self.fast_translations = 0
        self.untranslatable_drops = 0

    # -- control plane -------------------------------------------------------------

    def add_mapping(self, mapping: VipMapping) -> None:
        """Register a VIP→PIP mapping (control plane).

        In remote mode the mapping also lands in the remote table keyed by
        destination VIP (ports zeroed: translation is per-VIP, not
        per-flow).  In baseline mode it goes to SRAM until SRAM fills.
        """
        self._mappings[mapping.vip] = mapping
        self._by_pip[mapping.pip] = mapping
        if self.lookup_table is not None:
            self.lookup_table.install(
                self._vip_flow(mapping.vip),
                RemoteAction(ACTION_SET_DST_IP, mapping.pip.value),
            )
        else:
            try:
                self.local_table.insert(
                    mapping.vip, ActionEntry("translate", {"mapping": mapping})
                )
            except TableFullError:
                # SRAM exhausted: this VIP will take the slow path forever —
                # precisely the §2.2 problem.
                pass

    @staticmethod
    def _vip_flow(vip: Ipv4Address) -> FiveTuple:
        return FiveTuple(src_ip=0, dst_ip=vip.value, protocol=17, src_port=0, dst_port=0)

    def use_remote_table(self, table: RemoteLookupTable) -> None:
        self.lookup_table = table
        table.resolve_egress = self._resolve_after_translate
        # Remote lookups key on the VIP only, so the index hash must too.
        table.flow_of = self._lookup_key

    def use_slow_path(self, slow_path: CpuSlowPath) -> None:
        self.slow_path = slow_path

    # -- data plane -----------------------------------------------------------------

    def _lookup_key(self, packet: Packet) -> FiveTuple:
        return self._vip_flow(packet.require(Ipv4Header).dst)

    def _finish_translation(self, packet: Packet, mapping: VipMapping) -> None:
        packet.require(Ipv4Header).dst = mapping.pip
        packet.require(EthernetHeader).dst = mapping.pip_mac

    def _resolve_after_translate(
        self, packet: Packet, action: RemoteAction
    ) -> Optional[int]:
        """Egress policy for remote mode: the action already rewrote the
        dst IP; finish with the MAC/port from the mapping."""
        if action.action_id != ACTION_SET_DST_IP:
            self.untranslatable_drops += 1
            return None
        # The action already rewrote dst to the PIP; finish via the reverse
        # index (on hardware the action params carry MAC + port as well).
        mapping = self._by_pip.get(packet.require(Ipv4Header).dst)
        if mapping is None:
            self.untranslatable_drops += 1
            return None
        packet.require(EthernetHeader).dst = mapping.pip_mac
        self.fast_translations += 1
        return mapping.egress_port

    def on_ingress(self, ctx: PipelineContext, packet: Packet) -> None:
        ip = packet.find(Ipv4Header)
        if ip is None:
            ctx.drop()
            return
        if ip.dst not in self._mappings:
            # Not VIP traffic; ordinary L2 forwarding.
            self.forward_by_mac(ctx, packet)
            return
        if self.lookup_table is not None:
            # Cache hits resolve synchronously; misses bounce and resume on
            # the response path.  Either way _resolve_after_translate does
            # the accounting.
            self.lookup_table.lookup(ctx, packet)
            return
        entry = self.local_table.lookup(ip.dst)
        if entry is not None:
            mapping = entry.params["mapping"]
            self._finish_translation(packet, mapping)
            self.fast_translations += 1
            ctx.forward(mapping.egress_port)
            return
        # SRAM miss: CPU slow path (or drop if none configured).
        if self.slow_path is None:
            self.untranslatable_drops += 1
            ctx.drop()
            return
        ctx.drop()  # pipeline releases the packet; software re-injects it
        accepted = self.slow_path.submit(packet, self._slow_path_deliver)
        if not accepted:
            self.slow_path_drops += 1

    def _slow_path_deliver(self, packet: Packet) -> None:
        mapping = self._mappings.get(packet.require(Ipv4Header).dst)
        if mapping is None:
            self.slow_path_drops += 1
            return
        self._finish_translation(packet, mapping)
        self.slow_path_translations += 1
        self.switch.transmit(packet, mapping.egress_port)
