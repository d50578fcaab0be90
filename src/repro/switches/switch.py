"""The programmable switch node.

Models a Tofino-class single-chip switch: N ports, a fixed-latency
match-action pipeline and a traffic manager with a shared packet buffer.
A bound :class:`~repro.switches.pipeline.SwitchProgram` decides
forwarding; the paper's primitives plug into the same program API.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

from ..net.addresses import Ipv4Address, MacAddress
from ..net.node import Interface, Node
from ..net.packet import Packet
from ..rdma.headers import BthHeader
from ..sim.simulator import Simulator
from .pipeline import PipelineContext, SwitchProgram
from .traffic_manager import TrafficManager, TrafficManagerConfig

if TYPE_CHECKING:  # pragma: no cover - core builds on switches
    from ..core.rocegen import RoceRequestGenerator


@dataclass
class SwitchConfig:
    """Pipeline timing parameters (Tofino-class defaults)."""

    #: One pass through parser + match-action stages + deparser.
    pipeline_latency_ns: float = 400.0
    #: Extra latency for a recirculation pass (loopback port + re-parse),
    #: as the lookup table's ``recirculate`` ablation mode prices it.
    recirculation_latency_ns: float = 400.0


@dataclass
class SwitchStats:
    rx_packets: int = 0
    tx_packets: int = 0
    processed: int = 0
    dropped_by_program: int = 0


class ProgrammableSwitch(Node):
    """A P4-style programmable switch with a shared-buffer traffic manager."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        config: Optional[SwitchConfig] = None,
        tm_config: Optional[TrafficManagerConfig] = None,
    ) -> None:
        super().__init__(sim, name)
        self.config = config if config is not None else SwitchConfig()
        self.tm = TrafficManager(tm_config)
        self.tm.clock = lambda: self.sim.now
        self.stats = SwitchStats()
        self.program: Optional[SwitchProgram] = None
        #: The response match table: switch QPN -> the requester whose
        #: owner consumes every response addressed to that QP (one exact
        #: match on BTH ``dest_qp``, DESIGN.md §10.4).
        self.requesters: Dict[int, "RoceRequestGenerator"] = {}
        self._ports: List[Interface] = []
        self._port_of_interface: Dict[Interface, int] = {}

    # -- port management -----------------------------------------------------------

    def add_port(
        self, mac: MacAddress, ip: Optional[Ipv4Address] = None
    ) -> int:
        """Create the next port; returns its port number."""
        port = len(self._ports)
        queue = self.tm.queue_for(port)
        interface = self.add_interface(f"port{port}", MacAddress(mac), ip=ip, queue=queue)
        self._ports.append(interface)
        self._port_of_interface[interface] = port
        interface._pass = self._run_pipeline
        interface._port = port
        return port

    @property
    def port_count(self) -> int:
        return len(self._ports)

    def port_interface(self, port: int) -> Interface:
        return self._ports[port]

    def port_queue(self, port: int):
        return self.tm.queue_for(port)

    def port_of(self, interface: Interface) -> int:
        return self._port_of_interface[interface]

    # -- program binding ---------------------------------------------------------------

    def bind_program(self, program: SwitchProgram) -> None:
        self.program = program
        program.attach(self)

    def add_requester(self, qpn: int, requester: "RoceRequestGenerator") -> None:
        """Steer responses to switch QP *qpn* to *requester*'s owner."""
        if qpn in self.requesters:
            raise ValueError(f"{self.name}: QPN {qpn:#x} already has a response handler")
        self.requesters[qpn] = requester

    # -- data path -------------------------------------------------------------------
    #
    # One pipeline pass is _run_pipeline -> transmit, with a fixed amount
    # of work on the unicast path and nothing allocated per packet that
    # can outlive the pass (no closure, lambda or partial: a context that
    # referred to one would be cyclic garbage).

    def receive(self, packet: Packet, interface: Interface) -> None:
        """A frame's arrival off the fused path: post its pipeline pass.

        A frame that crosses a link on its fast path into a port with no
        rx tap and no ``deliver`` shadowed on the instance never comes
        here: its start pushed the pass itself, for the time this post
        would fire, and the pass counts the arrival (DESIGN.md §5.1).
        Every other arrival (a slow link, a fault injector, a LinkGuard
        receiver, a revoked frame) is counted by ``Interface.deliver``
        and here, and posts the pass."""
        self.stats.rx_packets += 1
        self.sim.post(
            self.config.pipeline_latency_ns,
            self._run_pipeline,
            packet,
            self._port_of_interface[interface],
        )

    def _run_pipeline(
        self,
        packet: Packet,
        in_port: int,
        arrived: Optional[Interface] = None,
    ) -> None:
        """One pipeline pass.  *arrived* is the ingress interface of a
        fused arrival, whose pass counts it where ``Interface.deliver``
        and :meth:`receive` would have (the fused event is the pass)."""
        if arrived is not None:
            arrived.rx_packets += 1
            arrived.rx_bytes += packet.wire_len
            self.stats.rx_packets += 1
        program = self.program
        if program is None:
            raise RuntimeError(f"{self.name}: no program bound")
        self.stats.processed += 1
        ctx = PipelineContext(self, in_port)
        requester = None
        if self.requesters:
            bth = packet.find(BthHeader)
            if bth is not None:
                requester = self.requesters.get(bth.dest_qp)
        if requester is not None:
            # A response to one of the switch's QPs: consumed here, never
            # forwarded, and its owner acts on it instead of the program.
            ctx.drop()
            opcode, is_nak, context = requester.accept_response(packet, bth)
            requester.on_response(ctx, packet, opcode, is_nak, context)
        else:
            program.on_ingress(ctx, packet)
        # Apply the verdict.
        if ctx.emitted:
            for extra, port in ctx.emitted:
                self.transmit(extra, port)
        if ctx.dropped:
            self.stats.dropped_by_program += 1
        elif ctx.egress_port is not None:
            self.transmit(packet, ctx.egress_port)

    def transmit(self, packet: Packet, port: int) -> bool:
        """Hand *packet* to the traffic manager / port serializer."""
        if not 0 <= port < len(self._ports):
            raise ValueError(f"{self.name}: no such port {port}")
        self.stats.tx_packets += 1
        return self._ports[port].send(packet)

    def __repr__(self) -> str:
        return f"<ProgrammableSwitch {self.name} ports={self.port_count}>"
