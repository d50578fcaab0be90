"""Data-plane RoCE request generation — the shared "primitive action" core.

On hardware this is the 1400 lines of P4 from §5: adding RoCE headers on
top of original or cloned packets, filling in QPN / rkey / addresses from
control-plane-installed registers, and parsing responses coming back from
the RNIC.  All three primitives (§4) are built on this class.

Observability: every generator claims a ``roce[<channel>]`` scope in the
simulation's :class:`~repro.obs.MetricRegistry` (request counts, wire
bytes, NAKs, strikes, timeouts) and — when the run enables wire tracing —
emits one :class:`~repro.obs.trace.TraceEvent` per request transmitted
and per response classified, stamped with the QP, the PSN and the sim
time.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from ..net.packet import Packet
from ..obs.trace import (
    KIND_ACK,
    KIND_ATOMIC,
    KIND_ATOMIC_ACK,
    KIND_FAULT,
    KIND_NAK,
    KIND_READ,
    KIND_READ_RESP,
    KIND_WRITE,
)
from ..rdma.constants import OPCODES, PSN_MODULO, AethSyndrome, Opcode, psn_distance
from ..rdma.headers import AethHeader, AtomicAckEthHeader, BthHeader
from ..rdma.packets import (
    MAX_READ_BYTES,
    build_fetch_add_request,
    build_read_request,
    build_write_request,
    verify_icrc,
)
from ..switches.pipeline import PipelineContext
from ..switches.switch import ProgrammableSwitch
from .channel import RemoteMemoryChannel


#: Health events a channel's request generator can emit: "nak" on every
#: NAK response, "strike" on every loss event a fresh NAK reports,
#: "timeout" on every fruitless timer round, and "progress" on every
#: non-NAK response.
HealthListener = Callable[["RoceRequestGenerator", str], None]
#: ``on_loss(gen, lost, cause)``: tracked ``(psn, context)`` pairs that left
#: the window without a response of their own, and why (``LOST_*``).
LossListener = Callable[["RoceRequestGenerator", List[Tuple[int, Any]], str], None]
#: ``on_response(ctx, packet, opcode, is_nak, context)``: a response the
#: switch steered to this requester's owner, already dropped and accounted
#: (:meth:`RoceRequestGenerator.accept_response`'s three values).
ResponseHandler = Callable[[PipelineContext, Packet, Optional[Opcode], bool, Any], None]
#: Why tracked requests left the window unanswered: a fresh NAK rejected
#: them, timer rounds found the window stuck, or a later response retired
#: them (they executed; their responses were lost).
LOST_NAK, LOST_TIMEOUT, LOST_SKIPPED = "nak", "timeout", "skipped"
#: The rounds a stuck window waits between reports double up to this many.
RETRY_BACKOFF_CAP = 2

_NAK_MASK = AethSyndrome.NAK_MASK
_SEQUENCE_ERROR = AethSyndrome.NAK_PSN_SEQUENCE_ERROR
_PSN_MASK, _PSN_HALF = PSN_MODULO - 1, PSN_MODULO // 2
#: How long after a loss event was acted on a NAK naming the same expected
#: PSN can still be one of its echoes (see RoceRequestGenerator.fresh_nak).
NAK_ECHO_WINDOW_NS = 20_000.0

_RESPONSE_KINDS = {
    Opcode.ACKNOWLEDGE: KIND_ACK,
    Opcode.RDMA_READ_RESPONSE_ONLY: KIND_READ_RESP,
    Opcode.ATOMIC_ACKNOWLEDGE: KIND_ATOMIC_ACK,
}


class RetryTimer:
    """A retry timer: one round every *period_ns* while any window of the
    requesters it serves holds a request (DESIGN.md §10.4).  Requesters
    that share one share its phase, as a tiered store's two QPs do; each
    judges its own progress in a round."""

    __slots__ = ("sim", "period", "requesters", "armed")

    def __init__(self, sim: Any, period_ns: float) -> None:
        self.sim = sim
        self.period = period_ns
        self.requesters: List["RoceRequestGenerator"] = []
        self.armed = False

    def arm(self) -> None:
        """Schedule the next round, snapshotting each requester's progress."""
        self.armed = True
        for gen in self.requesters:
            gen._snapshot = gen._retired if gen.window else None
        self.sim.schedule(self.period, self._fire)

    def _fire(self) -> None:
        # Still armed while the rounds run: a re-send arms nothing.
        for gen in self.requesters:
            gen._round()
        self.armed = False
        if any(gen.window for gen in self.requesters):
            self.arm()


class RoceRequestGenerator:
    """The switch's requester for one channel's QP (DESIGN.md §10.4).

    A request issued with a *context* is tracked: :attr:`window` maps its
    PSN to the context, in issue order.  A response for a tracked PSN
    retires it and every request tracked before it; one for a PSN not
    tracked retires nothing.  Tracked requests that leave the window
    without a response of their own reach ``on_loss(gen, lost, cause)`` as
    ``(psn, context)`` pairs: after a fresh NAK (``LOST_NAK``: the suffix
    from a sequence error's PSN, else the one request named; a sequence
    error at or before the newest acknowledged PSN is stale), timer rounds
    that retired nothing (``LOST_TIMEOUT``: the whole window; only with a
    *timer*), or a later response (``LOST_SKIPPED``: they executed, their
    responses were lost).  Every such round is a health timeout; the
    first reports the window lost, and the rounds between reports double
    up to ``RETRY_BACKOFF_CAP`` until one retires something.  An owner
    re-sends a lost request under its own PSN (``psn=``), which re-tracks
    it in order, or writes it off.

    A requester built with an owner's *on_response* is the switch's entry
    for its QPN (:attr:`ProgrammableSwitch.requesters`): every response
    addressed to that QP reaches the handler, never the program.
    """

    def __init__(
        self,
        switch: ProgrammableSwitch,
        channel: RemoteMemoryChannel,
        on_loss: Optional[LossListener] = None,
        timer: Optional[RetryTimer] = None,
        on_response: Optional[ResponseHandler] = None,
    ) -> None:
        if on_response is not None:
            switch.add_requester(channel.switch_qp.qpn, self)
        self.switch = switch
        self.channel = channel
        self.on_response = on_response
        #: Subscribers to this channel's health events, oldest first (the
        #: cluster health monitor and the breakers append here): nak /
        #: strike / timeout / progress.
        self.health_listeners: List[HealthListener] = []
        #: The tracked window: PSN -> the owner's context, issue order.
        self.window: Dict[int, Any] = {}
        self._on_loss = on_loss
        self._timer = timer
        if timer is not None:
            timer.requesters.append(self)
        # Retirements so far, and their count when the timer was armed
        # (None: the window was empty then); fruitless rounds since the
        # last report or progress, and how many the next report waits for.
        self._retired = 0
        self._snapshot: Optional[int] = None
        self._stuck = 0
        self._wait = 1
        # The newest PSN a positive response answered, and its QP; a
        # response reordered behind a later one leaves it.
        self._acked_qpn = -1
        self._acked_psn = 0
        obs = switch.sim.obs
        #: This generator's scope in the simulation's metric registry.
        self.metrics = obs.registry.unique_scope(f"roce[{channel.name}]")
        self._trace = obs.trace
        self._trace_node = f"switch:{switch.name}"
        self._m_writes = self.metrics.counter("writes_issued")
        self._m_reads = self.metrics.counter("reads_issued")
        self._m_fetch_adds = self.metrics.counter("fetch_adds_issued")
        self._m_responses = self.metrics.counter("responses_handled")
        self._m_naks = self.metrics.counter("naks_received")
        self._m_request_bytes = self.metrics.counter("request_wire_bytes")
        self._m_response_bytes = self.metrics.counter("response_wire_bytes")
        self._m_strikes = self.metrics.counter("strikes")
        self._m_timeouts = self.metrics.counter("timeouts")
        self._m_icrc_drops = self.metrics.counter("icrc_drops")
        # The loss event last acted on (see fresh_nak): the expected PSN
        # its NAK named, when, and how many echoes it can still draw.
        self._nak_psn = -1
        self._nak_at = 0.0
        self._nak_echoes = 0

    # -- health signal ------------------------------------------------------------

    def _emit_health(self, event: str) -> None:
        for listener in self.health_listeners:
            listener(self, event)

    def record_strike(self) -> None:
        """A loss event implicated this channel in a stall."""
        self._m_strikes.value += 1
        self._emit_health("strike")

    def record_timeout(self) -> None:
        """A timer round expired waiting on this channel."""
        self._m_timeouts.value += 1
        self._emit_health("timeout")

    # -- request crafting ---------------------------------------------------------

    def write(
        self,
        remote_address: int,
        data: bytes,
        ack_request: bool = False,
        meta: Optional[dict] = None,
    ) -> Optional[Packet]:
        """Issue an RDMA WRITE of *data* (untracked); returns the transmitted
        packet, or None when the switch's traffic manager refused it (its
        PSN is spent all the same, as on hardware: the responder sees a gap).

        ``meta`` entries are attached to the request *before* it is handed
        to the port (an idle port serializes synchronously, so tagging the
        returned packet afterwards is too late for transmit-time hooks).
        """
        channel = self.channel
        if not 0 <= remote_address - channel.base_address <= channel.length - len(data):
            raise self._outside_channel(remote_address, len(data))
        request = build_write_request(
            channel.switch_qp, remote_address, channel.rkey, data, ack_request=ack_request
        )
        if meta:
            request.meta.update(meta)
        self._m_writes.value += 1
        return request if self._transmit(request, KIND_WRITE) else None

    def read(
        self,
        remote_address: int,
        length: int,
        context: Any = None,
        psn: Optional[int] = None,
    ) -> Packet:
        """Issue an RDMA READ of *length* bytes — at most ``MAX_READ_BYTES``,
        the response being one packet; returns the request packet.  A
        *context* tracks it in the window; an explicit *psn* re-sends a
        lost READ under its own PSN."""
        if length > MAX_READ_BYTES:
            raise ValueError(f"READ of {length} B exceeds one packet ({MAX_READ_BYTES} B)")
        channel = self.channel
        if not 0 <= remote_address - channel.base_address <= channel.length - length:
            raise self._outside_channel(remote_address, length)
        qp = channel.switch_qp
        if psn is None:
            psn = qp.next_psn  # the builder allocates it
            request = build_read_request(qp, remote_address, channel.rkey, length)
        else:
            request = build_read_request(
                qp, remote_address, channel.rkey, length, psn=self._reuse(psn)
            )
        self._m_reads.value += 1
        if context is not None:
            self.window[psn] = context
            timer = self._timer
            if timer is not None and not timer.armed:
                timer.arm()
        self._transmit(request, KIND_READ)
        return request

    def fetch_add(
        self,
        remote_address: int,
        value: int,
        psn: Optional[int] = None,
        context: Any = None,
    ) -> Packet:
        """Issue an atomic Fetch-and-Add of *value*; returns the packet.  A
        *context* tracks it in the window.

        Pass an explicit *psn* to retransmit a lost request verbatim — the
        responder's atomic replay cache answers duplicates without
        re-applying them.
        """
        channel = self.channel
        if not 0 <= remote_address - channel.base_address <= channel.length - 8:
            raise self._outside_channel(remote_address, 8)
        qp = channel.switch_qp
        if psn is None:
            psn = qp.next_psn  # the builder allocates it
            request = build_fetch_add_request(qp, remote_address, channel.rkey, value)
        else:
            request = build_fetch_add_request(
                qp, remote_address, channel.rkey, value, psn=self._reuse(psn)
            )
        self._m_fetch_adds.value += 1
        if context is not None:
            self.window[psn] = context
            timer = self._timer
            if timer is not None and not timer.armed:
                timer.arm()
        self._transmit(request, KIND_ATOMIC)
        return request

    def _reuse(self, psn: int) -> int:
        """*psn*, for a request re-sent under it: the QP's next PSN stays
        one past the newest PSN in use (a resync may have rewound it)."""
        qp = self.channel.switch_qp
        if (psn - qp.next_psn) & _PSN_MASK < _PSN_HALF:
            qp.next_psn = (psn + 1) & _PSN_MASK
        return psn

    def _outside_channel(self, remote_address: int, size: int) -> ValueError:
        return ValueError(
            f"address range [{remote_address:#x}, {remote_address + size:#x}) "
            f"outside channel {self.channel.name!r}"
        )

    def _transmit(self, request: Packet, kind: str) -> bool:
        """Hand *request* to the server port; False if its queue refused it."""
        self._m_request_bytes.value += request.wire_len
        if self._trace is not None:
            self._trace.emit(
                self.switch.sim.now,
                self._trace_node,
                self.channel.switch_qp.qpn,
                kind,
                psn=request.require(BthHeader).psn,
                wire_bytes=request.wire_len,
                channel=self.channel.name,
            )
        return self.switch.transmit(request, self.channel.server_port)

    # -- response handling ----------------------------------------------------------

    def accept_response(
        self, packet: Packet, bth: Optional[BthHeader] = None
    ) -> Tuple[Optional[Opcode], bool, Any]:
        """Account for a response in one pass: ``(opcode, is_nak, context)``
        from one look at the BTH (*bth*, when the caller steered by it
        already, as the switch does) and AETH; *context* is the one
        tracked at its PSN (None: untracked, stale, or a NAK).

        Responses carrying a computed ICRC are verified first: a mismatch
        means the packet was corrupted in flight, so it is dropped, counted
        under ``icrc_drops``, and the opcode is ``None`` — no response at
        all, recovered from like a lost packet.
        """
        if bth is None:
            bth = packet.require(BthHeader)
        aeth = packet.find(AethHeader)
        is_nak = aeth is not None and aeth.syndrome & _NAK_MASK == _NAK_MASK
        if not verify_icrc(packet):
            self._m_icrc_drops.value += 1
            if self._trace is not None:
                self._trace.emit(
                    self.switch.sim.now,
                    self._trace_node,
                    self.channel.switch_qp.qpn,
                    KIND_FAULT,
                    psn=bth.psn,
                    wire_bytes=packet.wire_len,
                    channel="icrc",
                )
            return None, is_nak, None
        self._m_responses.value += 1
        self._m_response_bytes.value += packet.wire_len
        # Every member is truthy; Opcode() raises for a value that is none.
        opcode = OPCODES.get(bth.opcode) or Opcode(bth.opcode)
        psn = bth.psn
        if is_nak:
            self._m_naks.value += 1
        for listener in self.health_listeners:
            listener(self, "nak" if is_nak else "progress")
        if self._trace is not None:
            self._trace.emit(
                self.switch.sim.now,
                self._trace_node,
                self.channel.switch_qp.qpn,
                KIND_NAK if is_nak else _RESPONSE_KINDS.get(opcode, opcode.name),
                psn=psn,
                wire_bytes=packet.wire_len,
                channel=self.channel.name,
                syndrome=aeth.syndrome if is_nak else None,
            )
        if is_nak:
            # A sequence error naming a PSN the responder has acknowledged
            # past is a delayed copy: a resync would rewind onto executed
            # PSNs, whose re-use the atomic replay cache answers unapplied.
            if (
                aeth.syndrome == _SEQUENCE_ERROR
                and bth.dest_qp == self._acked_qpn
                and (self._acked_psn - psn) & _PSN_MASK < _PSN_HALF
            ):
                return opcode, True, None
            if self.fresh_nak(psn):
                # A sequence error rejected everything from the PSN it
                # names; any other NAK refused that one request.
                if self.maybe_resync(packet):
                    lost = [p for p in self.window if (p - psn) & _PSN_MASK < _PSN_HALF]
                else:
                    lost = [psn] if psn in self.window else []
                if lost:
                    self._lose(lost)
            return opcode, True, None
        # Monotone: a response reordered behind a later one must not move
        # the acknowledged PSN back, or the guard above would let a delayed
        # NAK naming an executed PSN rewind the QP onto it.
        if (psn - self._acked_psn) & _PSN_MASK < _PSN_HALF or bth.dest_qp != self._acked_qpn:
            self._acked_qpn, self._acked_psn = bth.dest_qp, psn
        window = self.window
        if psn not in window:
            return opcode, False, None  # untracked or stale: it proves nothing
        for front in window:
            break
        if front != psn:
            # Requests tracked before it drew no response of their own.
            skipped = []
            while front != psn:
                skipped.append((front, window.pop(front)))
                for front in window:
                    break
            if self._on_loss is not None:
                self._on_loss(self, skipped, LOST_SKIPPED)
        self._retired += 1
        return opcode, False, window.pop(psn, None)  # the owner may have dropped it

    def fresh_nak(self, psn: int) -> bool:
        """Whether a NAK naming expected PSN *psn* reports a loss event not
        yet acted on, rather than an echo of one (DESIGN.md §10.4): one
        lost request draws a NAK per request sent past it, all naming the
        same PSN, and only the first, or one past that count or
        ``NAK_ECHO_WINDOW_NS``, is fresh."""
        now = self.switch.sim.now
        if (
            psn == self._nak_psn
            and self._nak_echoes
            and now - self._nak_at < NAK_ECHO_WINDOW_NS
        ):
            self._nak_echoes -= 1
            return False
        self._nak_psn, self._nak_at = psn, now
        # Requests psn+1 .. next_psn-1 can each draw one; this is one.
        sent_past = psn_distance(psn, self.channel.switch_qp.next_psn) - 1
        self._nak_echoes = sent_past - 1 if 0 < sent_past < PSN_MODULO // 2 else 0
        return True

    def maybe_resync(self, packet: Packet) -> bool:
        """Adopt a PSN-sequence-error NAK's expected PSN as the QP's next
        PSN (lost requests desynchronized the two, after which every
        request would be NAKed); True when a resync happened."""
        aeth = packet.find(AethHeader)
        if aeth is None or aeth.syndrome != _SEQUENCE_ERROR:
            return False
        self.channel.switch_qp.next_psn = packet.require(BthHeader).psn
        return True

    def _lose(self, psns: List[int]) -> None:
        """One loss event a fresh NAK reports: requests *psns* were refused."""
        # The report may close or degrade the owner, emptying the window.
        self.record_strike()
        window = self.window
        lost = [(psn, window.pop(psn)) for psn in psns if psn in window]
        if lost and self._on_loss is not None:
            self._on_loss(self, lost, LOST_NAK)

    # -- the retry timer ------------------------------------------------------------

    def _round(self) -> None:
        """One round of the retry timer: a window that retired nothing since
        the last round is a health timeout, and the ``_wait``-th such round
        in a row reports it lost; progress resets the wait."""
        if not self.window or self._retired != self._snapshot:
            self._stuck, self._wait = 0, 1
            return
        # The report may close or degrade the owner, emptying the window.
        self.record_timeout()
        self._stuck += 1
        if self._stuck < self._wait or not self.window:
            return
        self._stuck, self._wait = 0, min(2 * self._wait, RETRY_BACKOFF_CAP)
        lost = list(self.window.items())
        self.window.clear()
        if self._on_loss is not None:
            self._on_loss(self, lost, LOST_TIMEOUT)

    @staticmethod
    def atomic_result(packet: Packet) -> int:
        """Extract the pre-add value from an atomic acknowledgement."""
        return packet.require(AtomicAckEthHeader).original_data
