"""The link guard: sender/receiver protection endpoints around one Link.

A :class:`LinkGuard` wraps an existing :class:`~repro.net.link.Link` with
a LinkGuardian-style (SIGCOMM'23) protection pair in each direction:

* the **sender** side intercepts ``link.carry``, stamps every outgoing
  frame with a :class:`~repro.linkguard.shim.GuardShimHeader` (sequence
  number + inner-frame checksum + piggybacked cumulative ack) and keeps
  the original frame in a bounded *emergency retransmission buffer*;
* the **receiver** side shadows the peer interface's ``deliver``,
  verifies the checksum, strips the shim, and watches
  the sequence space: a corrupted frame or a hole triggers an immediate
  NAK back across the link, so the sender resends from its buffer within
  a link RTT — the transport above never sees the loss, its RTO never
  fires.

Interop is by construction, not by special cases:

* the saved inner ``link.carry`` still runs the tap list, the legacy
  loss knob, and any installed
  :class:`~repro.faults.injectors.LinkFaultInjector` — fault models
  corrupt/drop the *shimmed* frames exactly as they would corrupt real
  ones, and guard control frames (ACK/NAK/RESYNC) cross the same
  impaired wire;
* the receive hook replays the saved per-interface ``deliver`` for each
  released frame in sequence order; the shadow is an instance attribute,
  so frames already in flight when the guard is attached or detached
  keep the ``deliver`` their link bound when they left;
* a breaker watching the transport still trips on real outages: when
  the emergency buffer is exhausted (e.g. a blackout outlives it) new
  frames travel *unprotected*, the receiver is told to RESYNC past
  anything unrecoverable, and the transport's go-back-N — and therefore
  its circuit breaker — takes over, exactly as without a guard.

Protection levels (:data:`PROTECTION_LEVELS`):

* ``"off"`` — pass-through; the guard is installed but inert.
* ``"checksummed"`` — corruption detection + NAK-driven resend; frames
  are released the moment they arrive (resends may reach the transport
  out of order — fine for datagram traffic, hostile to RC transports).
* ``"full-ordered"`` — additionally holds out-of-order arrivals in a
  bounded reorder buffer and releases them in sequence, so the layer
  above observes a lossless, ordered link (the mode RoCE RC wants).

Metrics live under ``linkguard[<name>]`` (``masked_losses``, ``resent``,
``shim_bytes``, ``reorder_fixed``, ...); protocol actions emit ``GUARD``
wire-trace events.  Everything is deterministic: the guard draws no
randomness, so a seeded run with a guard replays byte-for-byte.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..net.headers import EthernetHeader
from ..net.link import Link
from ..net.node import Interface
from ..net.packet import Packet
from ..obs.trace import KIND_GUARD
from ..sim.units import transmission_delay_ns, usec
from .shim import (
    ETHERTYPE_LINKGUARD,
    FLAG_ACK_VALID,
    FLAG_RESENT,
    GUARD_ACK,
    GUARD_DATA,
    GUARD_NAK,
    GUARD_RESYNC,
    GuardShimHeader,
    guard_checksum,
)

#: The supported protection levels, weakest first.
PROTECTION_LEVELS = ("off", "checksummed", "full-ordered")

#: Wire encoding of "nothing acked yet" (the sequence space starts at 0).
_ACK_NONE = 0xFFFFFFFF


@dataclass
class LinkGuardConfig:
    """Knobs for one :class:`LinkGuard` (both directions share them).

    ``buffer_packets`` bounds the emergency retransmission buffer per
    direction — size it to cover the frames in flight across one guard
    round trip (link BDP in frames plus the NAK turnaround; DESIGN.md
    §14 derives the rule).  ``tail_timeout_ns`` is the sender-side
    watchdog that recovers tail losses no later frame can reveal
    (default: ``max(4 µs, 40 × propagation)`` — well under any transport
    RTO, well over a guard RTT).
    """

    protection: str = "full-ordered"
    buffer_packets: int = 64
    reorder_packets: int = 64
    #: Send a standalone cumulative ACK every this many accepted frames
    #: (piggybacked acks on reverse-direction traffic flow regardless).
    ack_every: int = 8
    #: Delayed-ack bound: a standalone ACK no later than this after the
    #: first unacked frame, so sparse one-way traffic still drains the
    #: sender's buffer well inside a tail-timeout window (default:
    #: ``tail_timeout_ns / 4``).
    ack_delay_ns: Optional[float] = None
    tail_timeout_ns: Optional[float] = None

    def __post_init__(self) -> None:
        if self.protection not in PROTECTION_LEVELS:
            raise ValueError(
                f"unknown protection level {self.protection!r}; expected "
                f"one of {PROTECTION_LEVELS}"
            )
        if self.buffer_packets < 1:
            raise ValueError(
                f"buffer_packets must be >= 1: {self.buffer_packets}"
            )
        if self.reorder_packets < 1:
            raise ValueError(
                f"reorder_packets must be >= 1: {self.reorder_packets}"
            )
        if self.ack_every < 1:
            raise ValueError(f"ack_every must be >= 1: {self.ack_every}")


class _Lane:
    """One guarded direction: sender state at ``src``, receiver at ``dst``."""

    __slots__ = (
        "label",
        "src",
        "dst",
        # -- sender state ----------------------------------------------------
        "next_seq",
        "acked",
        "buffer",
        "checksums",
        "skipped",
        "timer_armed",
        # -- receiver state --------------------------------------------------
        "expected",
        "max_seen",
        "ahead",
        "since_ack",
        "ack_timer_armed",
    )

    def __init__(self, label: str, src: Interface, dst: Interface) -> None:
        self.label = label
        self.src = src
        self.dst = dst
        self.next_seq = 0
        self.acked = -1
        #: seq -> ``(original unshimmed frame, last send time)``; resends
        #: re-shim a clone and refresh the timestamp.
        self.buffer: "OrderedDict[int, Tuple[Packet, float]]" = OrderedDict()
        self.checksums: Dict[int, int] = {}
        #: Seqs sent while the buffer was full — unrecoverable at this layer.
        self.skipped: Set[int] = set()
        self.timer_armed = False
        self.expected = 0
        self.max_seen = -1
        #: seq -> held frame (full-ordered) or None (already released).
        self.ahead: Dict[int, Optional[Packet]] = {}
        self.since_ack = 0
        self.ack_timer_armed = False


class LinkGuard:
    """Install LinkGuardian-style protection on one duplex link.

    ``LinkGuard(link)`` guards both directions at the default
    ``"full-ordered"`` level; pass ``protection=`` or a full
    :class:`LinkGuardConfig`.  :meth:`detach` restores the link and both
    interfaces to their unguarded methods.
    """

    def __init__(
        self,
        link: Link,
        config: Optional[LinkGuardConfig] = None,
        name: Optional[str] = None,
        protection: Optional[str] = None,
    ) -> None:
        if config is not None and protection is not None:
            raise ValueError("pass config= or protection=, not both")
        if config is None:
            config = (
                LinkGuardConfig(protection=protection)
                if protection is not None
                else LinkGuardConfig()
            )
        self.link = link
        self.sim = link.sim
        self.config = config
        self.name = (
            name
            if name is not None
            else f"{link.a.node.name}<->{link.b.node.name}"
        )
        #: Called as ``cb(guard, lane_label, seq)`` the moment a frame is
        #: sent unprotected because the emergency buffer was full — the
        #: escalation hook a breaker-owning layer can subscribe to.
        self.on_exhausted: List[Callable[["LinkGuard", str, int], None]] = []

        obs = self.sim.obs
        self.metrics = obs.registry.unique_scope(f"linkguard[{self.name}]")
        self._trace = obs.trace
        m = self.metrics
        self._m_protected = m.counter("protected")
        self._m_masked = m.counter("masked_losses")
        self._m_resent = m.counter("resent")
        self._m_shim_bytes = m.counter("shim_bytes")
        self._m_reorder_fixed = m.counter("reorder_fixed")
        self._m_corrupt_dropped = m.counter("corrupt_dropped")
        self._m_duplicates = m.counter("duplicates_dropped")
        self._m_naks = m.counter("naks_sent")
        self._m_acks = m.counter("acks_sent")
        self._m_resyncs = m.counter("resyncs")
        self._m_exhausted = m.counter("buffer_exhausted")
        self._m_tail_timeouts = m.counter("tail_timeouts")
        self._m_unmasked = m.counter("unmasked_losses")
        m.gauge(
            "inflight",
            fn=lambda s=self: sum(len(l.buffer) for l in s._lanes),
        )

        if link.propagation_ns > 0:
            default_tail = max(usec(4), 40.0 * link.propagation_ns)
        else:
            default_tail = usec(4)
        self._tail_timeout_ns = (
            config.tail_timeout_ns
            if config.tail_timeout_ns is not None
            else default_tail
        )
        self._ack_delay_ns = (
            config.ack_delay_ns
            if config.ack_delay_ns is not None
            else self._tail_timeout_ns / 4.0
        )

        # Sender hook: shadow link.carry with an instance attribute; the
        # saved bound method still runs taps / loss / fault injector.
        self._inner_carry = link.carry
        self._lanes = (
            _Lane("a2b", link.a, link.b),
            _Lane("b2a", link.b, link.a),
        )
        self._lane_by_src = {link.a: self._lanes[0], link.b: self._lanes[1]}
        self._lane_by_dst = {link.b: self._lanes[0], link.a: self._lanes[1]}
        link.carry = self._carry  # type: ignore[method-assign]
        link.guard = self  # type: ignore[attr-defined]
        link._refresh_fast_path()

        # Receiver hooks: shadow each interface's deliver.
        self._inner_deliver: Dict[Interface, Callable[[Packet], None]] = {}
        for iface in (link.a, link.b):
            self._install_receiver(iface)

    # -- lifecycle -------------------------------------------------------------

    def _install_receiver(self, iface: Interface) -> None:
        inner = iface.deliver
        self._inner_deliver[iface] = inner

        def deliver(packet: Packet, _self=self, _iface=iface) -> None:
            _self._receive(_iface, packet)

        iface.deliver = deliver  # type: ignore[method-assign]

    def detach(self) -> None:
        """Restore the link and both interfaces to their unguarded paths."""
        if self.link.carry == self._carry:  # instance-attribute shadow
            del self.link.carry
        if getattr(self.link, "guard", None) is self:
            del self.link.guard
        for iface in (self.link.a, self.link.b):
            if iface in self._inner_deliver:
                try:
                    del iface.deliver
                except AttributeError:
                    pass
        self._inner_deliver.clear()
        self.link._refresh_fast_path()

    # -- accounting ------------------------------------------------------------

    @property
    def counts(self) -> Dict[str, int]:
        """This guard's counter values (``{name: value}``), for tests and
        reports — read these rather than snapshotting the registry by
        scope name (see :attr:`LinkFaultInjector.effects`)."""
        return {
            "protected": self._m_protected.value,
            "masked_losses": self._m_masked.value,
            "resent": self._m_resent.value,
            "shim_bytes": self._m_shim_bytes.value,
            "reorder_fixed": self._m_reorder_fixed.value,
            "corrupt_dropped": self._m_corrupt_dropped.value,
            "duplicates_dropped": self._m_duplicates.value,
            "naks_sent": self._m_naks.value,
            "acks_sent": self._m_acks.value,
            "resyncs": self._m_resyncs.value,
            "buffer_exhausted": self._m_exhausted.value,
            "tail_timeouts": self._m_tail_timeouts.value,
            "unmasked_losses": self._m_unmasked.value,
        }

    def _trace_event(
        self, lane: _Lane, action: str, seq: int, wire_bytes: int = 0
    ) -> None:
        if self._trace is not None:
            self._trace.emit(
                self.sim.now,
                f"guard:{self.name}:{lane.label}",
                0,
                KIND_GUARD,
                psn=seq,
                wire_bytes=wire_bytes,
                channel=action,
            )

    # -- sender side -----------------------------------------------------------

    def _carry(self, src: Interface, packet: Packet) -> None:
        if self.config.protection == "off":
            self._inner_carry(src, packet)
            return
        lane = self._lane_by_src[src]
        seq = lane.next_seq
        lane.next_seq = seq + 1
        checksum = guard_checksum(packet.pack())
        if len(lane.buffer) < self.config.buffer_packets:
            lane.buffer[seq] = (packet, self.sim.now)
            lane.checksums[seq] = checksum
            self._arm_tail_timer(lane)
        else:
            # Emergency buffer full: the frame travels unprotected.  If
            # it is lost, a NAK for its seq draws a RESYNC instead of a
            # resend and the transport's machinery takes over.
            lane.skipped.add(seq)
            self._m_exhausted.value += 1
            self._trace_event(lane, "buffer_exhausted", seq)
            for callback in self.on_exhausted:
                callback(self, lane.label, seq)
        self._m_protected.value += 1
        self._m_shim_bytes.value += GuardShimHeader.LENGTH
        wire = self._shimmed(lane, packet, seq, checksum, resent=False)
        # The shim's extra serialization time: the frame enters the wire
        # LENGTH bytes later than the unshimmed serializer accounted for.
        extra_ns = transmission_delay_ns(
            GuardShimHeader.LENGTH, self.link.rate_bps
        )
        self.sim.post(extra_ns, self._inner_carry, src, wire)

    def _shimmed(
        self,
        lane: _Lane,
        packet: Packet,
        seq: int,
        checksum: int,
        resent: bool,
    ) -> Packet:
        """A wire clone of *packet* with the guard shim nested after L2."""
        wire = packet.clone()
        flags = FLAG_ACK_VALID | (FLAG_RESENT if resent else 0)
        # Piggyback the reverse direction's cumulative ack.
        reverse = self._lane_by_dst[lane.src]
        shim = GuardShimHeader(
            kind=GUARD_DATA,
            flags=flags,
            seq=seq,
            ack=(reverse.expected - 1) & _ACK_NONE
            if reverse.expected > 0
            else _ACK_NONE,
            checksum=checksum,
        )
        headers = wire.headers
        if headers and isinstance(headers[0], EthernetHeader):
            shim.inner_ethertype = headers[0].ethertype
            headers[0].ethertype = ETHERTYPE_LINKGUARD
            wire.insert(1, shim)
        else:
            wire.push(shim)
        return wire

    def _arm_tail_timer(self, lane: _Lane) -> None:
        if lane.timer_armed:
            return
        lane.timer_armed = True
        self.sim.schedule(self._tail_timeout_ns, self._tail_check, lane)

    def _tail_check(self, lane: _Lane) -> None:
        if not lane.buffer:
            lane.timer_armed = False
            return
        # The watchdog keys on the *age of the oldest unacked frame*: a
        # frame (or every ack covering it) lost at the very tail of a
        # burst has no later arrival to reveal the hole, so once the head
        # outlives a full window, resend it — the receiver re-acks even a
        # duplicate, which drains the buffer and stops this timer.
        seq, (packet, sent_ns) = next(iter(lane.buffer.items()))
        age = self.sim.now - sent_ns
        if age >= self._tail_timeout_ns - 1e-9:
            self._m_tail_timeouts.value += 1
            self._trace_event(lane, "tail_timeout", seq)
            self._resend(lane, seq)
            delay = self._tail_timeout_ns
        else:
            delay = self._tail_timeout_ns - age
        self.sim.schedule(delay, self._tail_check, lane)

    def _resend(self, lane: _Lane, seq: int) -> None:
        entry = lane.buffer.get(seq)
        if entry is None:
            return
        packet = entry[0]
        lane.buffer[seq] = (packet, self.sim.now)
        wire = self._shimmed(
            lane, packet, seq, lane.checksums[seq], resent=True
        )
        self._m_resent.value += 1
        self._m_shim_bytes.value += wire.wire_len
        self._trace_event(lane, "resend", seq, wire.wire_len)
        # Guard resends bypass the egress queue (LinkGuardian gives its
        # retransmissions a strict-priority queue); their wire time is
        # modeled as a delayed entry onto the link.
        delay_ns = transmission_delay_ns(wire.wire_len, self.link.rate_bps)
        self.sim.post(delay_ns, self._inner_carry, lane.src, wire)

    def _process_ack(self, lane: _Lane, ack: int) -> None:
        if ack <= lane.acked:
            return
        lane.acked = ack
        buffer = lane.buffer
        while buffer:
            seq = next(iter(buffer))
            if seq > ack:
                break
            del buffer[seq]
            lane.checksums.pop(seq, None)
        if lane.skipped:
            lane.skipped = {s for s in lane.skipped if s > ack}

    def _process_nak(self, lane: _Lane, first: int, last: int) -> None:
        for seq in range(first, last + 1):
            if seq <= lane.acked:
                continue
            if seq in lane.buffer:
                self._resend(lane, seq)
            elif seq in lane.skipped:
                self._send_resync(lane, seq)

    def _send_resync(self, lane: _Lane, seq: int) -> None:
        self._m_resyncs.value += 1
        self._trace_event(lane, "resync", seq)
        self._send_control(
            lane, lane.src, GUARD_RESYNC, seq=seq, extent=seq
        )

    # -- receiver side ---------------------------------------------------------

    def _receive(self, iface: Interface, packet: Packet) -> None:
        headers = packet.headers
        shim: Optional[GuardShimHeader] = None
        index = -1
        if len(headers) >= 2 and type(headers[1]) is GuardShimHeader:
            shim, index = headers[1], 1
        elif headers and type(headers[0]) is GuardShimHeader:
            shim, index = headers[0], 0
        if shim is None:
            # Unguarded traffic (protection "off", or frames already in
            # flight when the guard was installed).
            self._inner_deliver[iface](packet)
            return
        kind = shim.kind
        if kind == GUARD_DATA:
            if shim.flags & FLAG_ACK_VALID and shim.ack != _ACK_NONE:
                self._process_ack(self._lane_by_src[iface], shim.ack)
            self._receive_data(self._lane_by_dst[iface], packet, shim, index)
        elif kind == GUARD_ACK:
            if shim.ack != _ACK_NONE:
                self._process_ack(self._lane_by_src[iface], shim.ack)
        elif kind == GUARD_NAK:
            lane = self._lane_by_src[iface]
            if shim.flags & FLAG_ACK_VALID and shim.ack != _ACK_NONE:
                self._process_ack(lane, shim.ack)
            self._process_nak(lane, shim.seq, shim.extent)
        elif kind == GUARD_RESYNC:
            self._receive_resync(self._lane_by_dst[iface], shim.seq, shim.extent)

    def _receive_data(
        self, lane: _Lane, packet: Packet, shim: GuardShimHeader, index: int
    ) -> None:
        seq = shim.seq
        # Strip the shim and restore the displaced ethertype; the wire
        # clone is guard-owned, so in-place restoration is safe.
        packet.remove(index)
        if index == 1:
            packet.headers[0].ethertype = shim.inner_ethertype
        if guard_checksum(packet.pack()) != shim.checksum:
            # Corruption detected below the transport: drop and NAK this
            # seq immediately — LinkGuardian's detect-and-resend path.
            self._m_corrupt_dropped.value += 1
            self._trace_event(lane, "corrupt_dropped", seq, packet.wire_len)
            if seq >= lane.expected and seq not in lane.ahead:
                lane.max_seen = max(lane.max_seen, seq)
                self._send_nak(lane, seq, seq)
            return
        if seq < lane.expected or seq in lane.ahead:
            # Duplicate (a resend raced the original, or an ack was lost
            # and the tail timer fired): drop, but re-ack so the sender's
            # emergency buffer drains.
            self._m_duplicates.value += 1
            self._send_ack(lane)
            return
        resent = bool(shim.flags & FLAG_RESENT)
        if resent:
            self._m_masked.value += 1
            self._trace_event(lane, "masked", seq)
        inner = self._inner_deliver[lane.dst]
        if seq == lane.expected:
            lane.expected = seq + 1
            inner(packet)
            ahead = lane.ahead
            while lane.expected in ahead:
                held = ahead.pop(lane.expected)
                lane.expected += 1
                if held is not None:
                    self._m_reorder_fixed.value += 1
                    inner(held)
        else:  # seq > expected: a hole just became visible
            if seq > lane.max_seen + 1:
                first = max(lane.expected, lane.max_seen + 1)
                self._send_nak(lane, first, seq - 1)
            if self.config.protection == "full-ordered":
                if len(lane.ahead) >= self.config.reorder_packets:
                    # Reorder window overflow: release unordered rather
                    # than drop — the transport sees reordering, not loss.
                    self._trace_event(lane, "reorder_overflow", seq)
                    lane.ahead[seq] = None
                    inner(packet)
                else:
                    lane.ahead[seq] = packet
            else:  # checksummed: release immediately, track for dedup
                lane.ahead[seq] = None
                inner(packet)
        lane.max_seen = max(lane.max_seen, seq)
        lane.since_ack += 1
        if lane.since_ack >= self.config.ack_every:
            self._send_ack(lane)
        elif not lane.ack_timer_armed:
            # Delayed ack: sparse one-way traffic must still drain the
            # sender's buffer well inside a tail-timeout window.
            lane.ack_timer_armed = True
            self.sim.schedule(self._ack_delay_ns, self._delayed_ack, lane)

    def _receive_resync(self, lane: _Lane, first: int, last: int) -> None:
        """The sender gave up on ``first..last``: advance past the range."""
        if last < lane.expected:
            return
        inner = self._inner_deliver[lane.dst]
        for seq in range(lane.expected, last + 1):
            held = lane.ahead.pop(seq, None)
            if held is not None:
                inner(held)
            elif seq >= first and seq not in lane.ahead:
                self._m_unmasked.value += 1
                self._trace_event(lane, "unmasked", seq)
        lane.expected = last + 1
        lane.max_seen = max(lane.max_seen, last)
        ahead = lane.ahead
        while lane.expected in ahead:
            held = ahead.pop(lane.expected)
            lane.expected += 1
            if held is not None:
                self._m_reorder_fixed.value += 1
                inner(held)
        self._send_ack(lane)

    def _send_nak(self, lane: _Lane, first: int, last: int) -> None:
        self._m_naks.value += 1
        self._trace_event(lane, "nak", first)
        lane.since_ack = 0
        self._send_control(
            lane, lane.dst, GUARD_NAK, seq=first, extent=last
        )

    def _delayed_ack(self, lane: _Lane) -> None:
        lane.ack_timer_armed = False
        if lane.since_ack > 0:
            self._send_ack(lane)

    def _send_ack(self, lane: _Lane) -> None:
        self._m_acks.value += 1
        lane.since_ack = 0
        self._send_control(lane, lane.dst, GUARD_ACK)

    def _send_control(
        self,
        lane: _Lane,
        src: Interface,
        kind: int,
        seq: int = 0,
        extent: int = 0,
    ) -> None:
        """Emit a standalone control frame from *src* back across the link.

        Control frames carry the lane receiver's cumulative ack and, like
        guard resends, enter the wire directly (strict-priority in real
        LinkGuardian); they are still subject to the link's fault models.
        """
        peer = self.link.peer_of(src)
        receiver_lane = self._lane_by_dst[src]
        shim = GuardShimHeader(
            kind=kind,
            flags=FLAG_ACK_VALID,
            seq=seq,
            ack=(receiver_lane.expected - 1) & _ACK_NONE
            if receiver_lane.expected > 0
            else _ACK_NONE,
            extent=extent,
        )
        control = Packet(
            headers=[
                EthernetHeader(
                    dst=peer.mac, src=src.mac, ethertype=ETHERTYPE_LINKGUARD
                ),
                shim,
            ]
        )
        self._m_shim_bytes.value += control.wire_len
        delay_ns = transmission_delay_ns(control.wire_len, self.link.rate_bps)
        self.sim.post(delay_ns, self._inner_carry, src, control)
