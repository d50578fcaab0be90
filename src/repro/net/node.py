"""Nodes and interfaces: the attachment points of the simulated network.

A :class:`Node` is anything with interfaces — a host, a memory server, a
switch.  An :class:`Interface` owns the transmit side of one end of a link:
it serializes packets one at a time at the link rate, then hands them to the
link for propagation to the peer.  Receive is a callback into the owning
node.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from ..sim.simulator import Simulator
from ..sim.units import SEC
from .addresses import Ipv4Address, MacAddress
from .packet import Packet
from .queues import TxQueue

if TYPE_CHECKING:
    from .link import Link


class Interface:
    """One port of a node; transmit queue + serializer for one link end.

    The serializer is one method, :meth:`_transmit_next`, run once per
    frame: it hands the frame that just finished to the link and starts
    the next one.  Everything it needs that is fixed for the life of the
    link (the simulator, the rate) is a plain attribute, resolved when the
    link attaches.  ``deliver`` and ``link.carry`` are looked up per
    packet, on the instance, because LinkGuard and the fault injectors
    shadow them there while the simulation runs.
    """

    def __init__(
        self,
        node: "Node",
        name: str,
        mac: MacAddress,
        ip: Optional[Ipv4Address] = None,
        queue: Optional[TxQueue] = None,
    ) -> None:
        self.node = node
        self.sim: Simulator = node.sim
        self.name = name
        self.mac = MacAddress(mac)
        self.ip = Ipv4Address(ip) if ip is not None else None
        self.queue = queue if queue is not None else TxQueue()
        self.link: Optional["Link"] = None
        #: The attached link's rate (0 until a link attaches).
        self.rate_bps = 0.0
        self._busy = False
        self._paused = False
        # Counters for bandwidth monitors.
        self.tx_packets = 0
        self.tx_bytes = 0        # wire bytes, incl. preamble/IFG/FCS
        self.rx_packets = 0
        self.rx_bytes = 0
        #: Optional taps, called as tap(packet) on transmit start / receive.
        self.tx_taps: List[Callable[[Packet], None]] = []
        self.rx_taps: List[Callable[[Packet], None]] = []

    def attach(self, link: "Link") -> None:
        """Bind this end to *link* (called by :class:`Link`, which has
        already validated the rate)."""
        self.link = link
        self.rate_bps = link.rate_bps

    @property
    def peer(self) -> Optional["Interface"]:
        """The interface at the other end of the attached link."""
        if self.link is None:
            return None
        return self.link.peer_of(self)

    # -- transmit path -------------------------------------------------------------

    def send(self, packet: Packet) -> bool:
        """Queue *packet* for transmission; returns False if the queue dropped it."""
        if self.link is None:
            raise RuntimeError(f"{self} has no link attached")
        admitted = self.queue.offer(packet)
        if admitted and not self._busy:
            self._transmit_next()
        return admitted

    def kick(self) -> None:
        """(Re)start transmission if idle — used after queue-side refills."""
        if not self._busy:
            self._transmit_next()

    @property
    def paused(self) -> bool:
        return self._paused

    def set_paused(self, paused: bool) -> None:
        """Assert or release flow-control pause (802.1Qbb PFC, class-agnostic).

        While paused, queued packets are held; the packet currently being
        serialized (if any) completes, as on real hardware.
        """
        was_paused = self._paused
        self._paused = paused
        if was_paused and not paused:
            self.kick()

    def _transmit_next(self, sent: Optional[Packet] = None) -> None:
        """Put *sent* (the frame whose serialization just ended) on the
        wire, then start serializing the next queued frame, if any."""
        if sent is not None:
            self.link.carry(self, sent)
        if self._paused:
            self._busy = False
            return
        # Busy *before* polling: a dequeue listener may refill this queue
        # and kick() the port, which must not start a second frame inside
        # this one.
        self._busy = True
        packet = self.queue.poll()
        if packet is None:
            self._busy = False
            return
        if self.tx_taps:
            for tap in self.tx_taps:
                tap(packet)
        wire_len = packet.wire_len
        self.tx_packets += 1
        self.tx_bytes += wire_len
        # transmission_delay_ns() with its rate check already made by Link.
        # Serializer completions are never cancelled: fire-and-forget.
        self.sim.post(wire_len * 8 * SEC / self.rate_bps, self._transmit_next, packet)

    # -- receive path ----------------------------------------------------------------

    def deliver(self, packet: Packet) -> None:
        """Called by the link when *packet* finishes propagating to this end."""
        self.rx_packets += 1
        self.rx_bytes += packet.wire_len
        if self.rx_taps:
            for tap in self.rx_taps:
                tap(packet)
        self.node.receive(packet, self)

    def __repr__(self) -> str:
        return f"<Interface {self.node.name}:{self.name} mac={self.mac}>"


class Node:
    """Base class for every network element (host, server, switch)."""

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        self.interfaces: Dict[str, Interface] = {}

    def add_interface(
        self,
        name: str,
        mac: MacAddress,
        ip: Optional[Ipv4Address] = None,
        queue: Optional[TxQueue] = None,
    ) -> Interface:
        """Create and register a new interface on this node."""
        if name in self.interfaces:
            raise ValueError(f"{self.name} already has an interface {name!r}")
        interface = Interface(self, name, mac, ip=ip, queue=queue)
        self.interfaces[name] = interface
        return interface

    def interface(self, name: str) -> Interface:
        return self.interfaces[name]

    def receive(self, packet: Packet, interface: Interface) -> None:
        """Handle an arriving packet.  Subclasses override."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"
