"""Host nodes: end hosts and remote-memory servers.

A :class:`Host` is a server with one NIC.  Matching the paper's testbed,
every host gets 64 GB of DRAM and an RDMA-capable NIC; RoCE packets are
steered to the RNIC (no CPU involvement), anything else goes to registered
packet handlers (the "application").
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..net.addresses import Ipv4Address, MacAddress
from ..net.node import Interface, Node
from ..net.packet import Packet
from ..rdma.headers import BthHeader
from ..rdma.memory import TIER_DRAM, AccessFlags, Dram, MemoryRegion
from ..rdma.rnic import Rnic, RnicConfig
from ..sim.simulator import Simulator
from ..sim.units import gib

PacketHandler = Callable[[Packet, Interface], None]


class Host(Node):
    """A server with a single RDMA-capable NIC."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        mac: MacAddress,
        ip: Ipv4Address,
        dram_bytes: int = gib(64),
        rnic_config: Optional[RnicConfig] = None,
    ) -> None:
        super().__init__(sim, name)
        self.eth = self.add_interface("eth0", MacAddress(mac), Ipv4Address(ip))
        self.dram = Dram(dram_bytes)
        self.rnic = Rnic(sim, f"{name}-rnic", self.eth, self.dram, rnic_config)
        self.packet_handlers: List[PacketHandler] = []
        self.rx_packets = 0
        self.rx_bytes = 0

    def receive(self, packet: Packet, interface: Interface) -> None:
        self.rx_packets += 1
        self.rx_bytes += packet.buffer_len
        if packet.find(BthHeader) is not None:
            # RoCE is terminated by the NIC — the host CPU never sees it.
            self.rnic.handle_packet(packet)
            return
        for handler in self.packet_handlers:
            handler(packet, interface)

    def send(self, packet: Packet) -> bool:
        """Transmit *packet* out of the host's NIC."""
        return self.eth.send(packet)


class MemoryServer(Host):
    """A host whose only job is donating DRAM to the switch (§1).

    Convenience wrapper that tracks the regions it has lent out, and whose
    ``cpu_packets`` counter stays at zero in every experiment — the paper's
    "absolutely 0 % CPU overhead" claim, checked by tests.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        mac: MacAddress,
        ip: Ipv4Address,
        dram_bytes: int = gib(64),
        rnic_config: Optional[RnicConfig] = None,
    ) -> None:
        super().__init__(
            sim, name, mac, ip, dram_bytes=dram_bytes, rnic_config=rnic_config
        )
        self.lent_regions: List[MemoryRegion] = []
        #: Packets that reached host software (must stay 0 for pure RDMA).
        self.cpu_packets = 0
        self.packet_handlers.append(self._count_cpu_packet)

    def _count_cpu_packet(self, packet: Packet, interface: Interface) -> None:
        self.cpu_packets += 1

    def lend_memory(
        self,
        length: int,
        access: AccessFlags = AccessFlags.ALL_REMOTE,
        tier: str = TIER_DRAM,
    ) -> MemoryRegion:
        """Register a DRAM region for remote use and record the loan.

        ``tier`` tags the region with the memory tier it models
        (DESIGN.md §13): ``"fast"`` regions are served with the RNIC's
        fast-tier profile (lower READ latency, faster atomics) while
        still living in this server's budgeted DRAM object.
        """
        region = self.dram.register(length, access=access, tier=tier)
        self.lent_regions.append(region)
        return region
