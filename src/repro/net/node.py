"""Nodes and interfaces: the attachment points of the simulated network.

A :class:`Node` is anything with interfaces — a host, a memory server, a
switch.  An :class:`Interface` owns the transmit side of one end of a link:
it serializes packets one at a time at the link rate and posts each one's
arrival at the peer, or straight into the pipeline pass of a switch port
(off the link's fast path it hands the frame to the link as its
serialization ends).  Receive is a callback into the owning node.
"""

from __future__ import annotations

from heapq import heappush as _heappush
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

from ..sim.events import ARGS, CALLBACK
from ..sim.simulator import Simulator
from ..sim.units import SEC
from .addresses import Ipv4Address, MacAddress
from .packet import Packet
from .queues import TxQueue

if TYPE_CHECKING:
    from .link import Link


class Interface:
    """One port of a node; transmit queue + serializer for one link end.

    The serializer is one method, :meth:`_transmit_next`.  It starts the
    next queued frame and keeps the time the frame's serialization ends,
    ``_free_at``.  A start takes two seqs from the kernel's counter: the
    first, ``_tx_seq``, is where a tx-complete event posted then would
    sort, and the second is the frame's delivery's.

    - On a link on its fast path (DESIGN.md §5.1) a frame costs one kernel
      event: the start pushes the peer's ``deliver`` itself, for
      ``(now + tx) + propagation``.
    - Into a switch port (one whose ``_pass`` is set) with no rx tap and
      no ``deliver`` shadowed on the instance, that one event is the
      switch's pipeline pass, pushed for ``(now + tx) + propagation``
      plus the pipeline latency at the delivery's seq: the arrival is
      counted by the pass, not by ``deliver`` as it lands.
    - A frame offered while ``now < _free_at`` waits in the queue.  The
      first one to wait pushes the wake, ``_transmit_next`` at
      ``(_free_at, _tx_seq)``, and a start that leaves frames queued
      pushes it too.
    - Off the fast path the start pushes the wake with the frame, and the
      wake hands the frame to ``link.carry`` before it starts the next.
    - When the link leaves its fast path mid-frame, :meth:`_revoke` turns
      the frame's delivery or pass back into that carry, whose delivery
      then runs ``deliver`` and the node's ``receive`` (§5.2).

    ``deliver``, ``rx_taps`` and ``link.carry`` are looked up per frame,
    on the instance, because LinkGuard shadows ``deliver`` and ``carry``
    there while a simulation runs.  The start reads the kernel's clock
    and seq counter and pushes the delivery onto its heap directly: it
    runs once per frame per hop, and the three kernel calls it would make
    cost 4 % of ``l2_forward``'s bytecodes (DESIGN.md §5.1).
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
        #: The attached link's rate (0 until a link attaches) and far end.
        self.rate_bps = 0.0
        self._peer: Optional["Interface"] = None
        #: True while a start polls the queue and calls the taps, so a
        #: dequeue listener that refills the queue and kicks the port does
        #: not start a second frame inside this one.
        self._busy = False
        self._paused = False
        #: When the last frame's serialization ends, and the seq its wake
        #: takes (reserved when it started).
        self._free_at = 0.0
        self._tx_seq = 0
        #: The pending wake's heap entry, or None.
        self._wake: Optional[List[Any]] = None
        #: The last frame's fused delivery or pass entry (fast path), or None.
        self._inflight: Optional[List[Any]] = None
        #: Set by a switch on its ports: its pipeline pass and this port's
        #: number.  A frame bound here is pushed straight to
        #: ``_pass(packet, _port, self)``, due
        #: ``node.config.pipeline_latency_ns`` after it lands (§5.1).
        self._pass: Optional[Callable[..., None]] = None
        self._port: Optional[int] = None
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
        self._peer = link.b if link.a is self else link.a

    @property
    def peer(self) -> Optional["Interface"]:
        """The interface at the other end of the attached link."""
        return self._peer

    # -- transmit path -------------------------------------------------------------

    def send(self, packet: Packet) -> bool:
        """Queue *packet* for transmission; returns False if the queue dropped it."""
        if self.link is None:
            raise RuntimeError(f"{self} has no link attached")
        admitted = self.queue.offer(packet)
        if admitted and self._wake is None and not self._busy:
            self._transmit_next()
        return admitted

    def kick(self) -> None:
        """(Re)start transmission if idle — used after queue-side refills."""
        if self._wake is None and not self._busy:
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
        """Put *sent* (a slow frame whose serialization just ended) on the
        wire, then start serializing the next queued frame, if any.

        Called by the wake, or by ``send``/``kick`` with no wake pending:
        mid-frame, that call pushes the wake instead.  The wake stays
        pending through the carry, so a send from inside it queues."""
        if sent is not None:
            self.link.carry(self, sent)
        self._wake = None
        sim = self.sim
        now = sim.now
        if now < self._free_at:
            self._wake = sim.push(self._free_at, self._tx_seq, self._transmit_next, ())
            return
        if self._paused:
            return
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
        link = self.link
        # The wake's seq (where a tx-complete event posted now would sort)
        # and the delivery's.
        self._tx_seq = seq = sim._seq
        sim._seq = seq + 2
        # transmission_delay_ns() with its rate check already made by Link.
        self._free_at = free_at = now + wire_len * 8 * SEC / self.rate_bps
        if link._fast:
            peer = self._peer
            if peer._pass is not None and not peer.rx_taps and "deliver" not in peer.__dict__:
                entry = [
                    (free_at + link.propagation_ns) + peer.node.config.pipeline_latency_ns,
                    seq + 1, peer._pass, (packet, peer._port, peer),
                ]
            else:
                entry = [free_at + link.propagation_ns, seq + 1, peer.deliver, (packet,)]
            self._inflight = entry
            _heappush(sim._heap, entry)
            if self.queue.depth_bytes:
                self._wake = sim.push(free_at, seq, self._transmit_next, ())
        else:
            self._inflight = None
            self._wake = sim.push(free_at, seq, self._transmit_next, (packet,))
        self._busy = False

    def _revoke(self) -> None:
        """The link left its fast path: a frame still serializing meets the
        link as its serialization ends, through ``link.carry``, as a frame
        started off the fast path does."""
        entry = self._inflight
        self._inflight = None
        if entry is None or not self.sim.now < self._free_at:
            return
        entry[CALLBACK] = None
        carried = entry[ARGS][:1]  # the frame, without a pass's port
        if self._wake is not None:
            self._wake[ARGS] = carried
        else:
            self._wake = self.sim.push(self._free_at, self._tx_seq, self._transmit_next, carried)

    # -- receive path ----------------------------------------------------------------

    def deliver(self, packet: Packet) -> None:
        """Called when *packet* finishes propagating to this end: counts it,
        shows it to the rx taps and hands it to the node.  A frame that
        lands in a switch's pipeline pass (see the class docstring) skips
        this method; the pass counts it."""
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
