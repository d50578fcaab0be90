"""Standard experiment topology: hosts + ToR switch + memory server.

This mirrors the paper's testbed (§5): a programmable ToR switch with
end-host servers and one remote-memory server, all directly attached over
40 GbE.  Every experiment harness builds on :func:`build_testbed`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from .core.channel import RdmaChannelController
from .hosts.server import Host, MemoryServer
from .net.link import Link, connect
from .rdma.rnic import RnicConfig
from .sim.rng import SeedSequence
from .sim.simulator import Simulator
from .sim.units import gbps, gib
from .switches.switch import ProgrammableSwitch, SwitchConfig
from .switches.traffic_manager import TrafficManagerConfig

#: Link rate of the paper's testbed (40 Gbps Mellanox CX-3 Pro).
DEFAULT_LINK_RATE = gbps(40)
#: One-way propagation + PHY/MAC latency per in-rack DAC link.
DEFAULT_PROPAGATION_NS = 100.0


@dataclass
class Testbed:
    """A built topology plus handles to all its parts."""

    sim: Simulator
    switch: ProgrammableSwitch
    hosts: List[Host]
    host_ports: List[int]
    host_links: List[Link]
    memory_servers: List[MemoryServer]
    server_ports: List[int]
    server_links: List[Link]
    controller: RdmaChannelController
    seeds: SeedSequence = field(default_factory=lambda: SeedSequence(0))

    # Singular accessors for the common one-memory-server topology.

    @property
    def memory_server(self) -> Optional[MemoryServer]:
        return self.memory_servers[0] if self.memory_servers else None

    @property
    def server_port(self) -> Optional[int]:
        return self.server_ports[0] if self.server_ports else None

    @property
    def server_link(self) -> Optional[Link]:
        return self.server_links[0] if self.server_links else None

    def bind(self, program):
        """Route every host's MAC to its port in *program*, then run
        *program* on the switch; returns *program*."""
        for host, port in zip(self.hosts, self.host_ports):
            program.install(host.eth.mac, port)
        self.switch.bind_program(program)
        return program

    def open_channels(self, size_bytes: int) -> list:
        """Open one channel of *size_bytes* to every memory server."""
        return [
            self.controller.open_channel(server, port, size_bytes)
            for server, port in zip(self.memory_servers, self.server_ports)
        ]


def build_testbed(
    n_hosts: int = 2,
    with_memory_server: bool = True,
    n_memory_servers: int = 1,
    link_rate_bps: float = DEFAULT_LINK_RATE,
    propagation_ns: float = DEFAULT_PROPAGATION_NS,
    switch_config: Optional[SwitchConfig] = None,
    tm_config: Optional[TrafficManagerConfig] = None,
    rnic_config: Optional[RnicConfig] = None,
    server_dram_bytes: int = gib(64),
    seed: int = 0,
) -> Testbed:
    """Build the §5 star topology.

    ``n_hosts`` end hosts on ports 0..n-1; the memory server (when present)
    on the last port.  All switch ports get IP identities so any of them
    can source RoCE packets.
    """
    sim = Simulator()
    seeds = SeedSequence(seed)
    switch = ProgrammableSwitch(
        sim, "tor", config=switch_config, tm_config=tm_config
    )
    hosts: List[Host] = []
    host_ports: List[int] = []
    host_links: List[Link] = []
    for i in range(n_hosts):
        host = Host(
            sim,
            f"h{i}",
            mac=f"02:00:00:00:00:{i + 1:02x}",
            ip=f"10.0.0.{i + 1}",
        )
        port = switch.add_port(
            mac=f"02:00:00:00:10:{i + 1:02x}", ip=f"10.0.1.{i + 1}"
        )
        link = connect(
            sim,
            host.eth,
            switch.port_interface(port),
            link_rate_bps,
            propagation_ns=propagation_ns,
        )
        hosts.append(host)
        host_ports.append(port)
        host_links.append(link)

    memory_servers: List[MemoryServer] = []
    server_ports: List[int] = []
    server_links: List[Link] = []
    if with_memory_server:
        for i in range(n_memory_servers):
            server = MemoryServer(
                sim,
                f"memserver{i}" if n_memory_servers > 1 else "memserver",
                mac=f"02:00:00:00:20:{i + 1:02x}",
                ip=f"10.0.2.{i + 1}",
                dram_bytes=server_dram_bytes,
                rnic_config=rnic_config,
            )
            port = switch.add_port(
                mac=f"02:00:00:00:30:{i + 1:02x}", ip=f"10.0.3.{i + 1}"
            )
            link = connect(
                sim,
                server.eth,
                switch.port_interface(port),
                link_rate_bps,
                propagation_ns=propagation_ns,
            )
            memory_servers.append(server)
            server_ports.append(port)
            server_links.append(link)

    controller = RdmaChannelController(switch)
    return Testbed(
        sim=sim,
        switch=switch,
        hosts=hosts,
        host_ports=host_ports,
        host_links=host_links,
        memory_servers=memory_servers,
        server_ports=server_ports,
        server_links=server_links,
        controller=controller,
        seeds=seeds,
    )
