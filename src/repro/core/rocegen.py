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

from typing import Any, Callable, Dict, Iterable, Optional, Tuple

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
from ..switches.switch import ProgrammableSwitch
from .channel import RemoteMemoryChannel


#: Health events a channel's request generator can emit: "nak" on every
#: NAK response, "strike" when the owning primitive's recovery machinery
#: implicates the channel in a stall, "timeout" when a watchdog fires for
#: it, and "progress" on every non-NAK response.
HealthListener = Callable[["RoceRequestGenerator", str], None]

_NAK_MASK = AethSyndrome.NAK_MASK
#: How long after a loss event was acted on a NAK naming the same expected
#: PSN can still be one of its echoes (see RoceRequestGenerator.fresh_nak).
NAK_ECHO_WINDOW_NS = 20_000.0

_RESPONSE_KINDS = {
    Opcode.ACKNOWLEDGE: KIND_ACK,
    Opcode.RDMA_READ_RESPONSE_ONLY: KIND_READ_RESP,
    Opcode.ATOMIC_ACKNOWLEDGE: KIND_ATOMIC_ACK,
}


class ResponseSteering:
    """Steer RoCE responses to their owner by one match on BTH ``dest_qp``.

    A primitive composed over several channels (shards, replicas, ring
    stripes) passes *scan*, which yields ``(channel, owner)`` for every
    channel it may still be sent a response on, and calls :meth:`refresh`
    whenever that set changes.  A QP reconnect renumbers a channel with no
    such event, so a miss — or a hit on a channel that has since been
    renumbered — rescans once: the answer is always the one a scan of
    every channel would give.
    """

    __slots__ = ("_scan", "_table")

    def __init__(
        self, scan: Callable[[], Iterable[Tuple[RemoteMemoryChannel, Any]]]
    ) -> None:
        self._scan = scan
        #: The match table: ``dest_qp`` → (channel, owner).
        self._table: Dict[int, Tuple[RemoteMemoryChannel, Any]] = {}

    def refresh(self) -> None:
        self._table = {
            channel.switch_qp.qpn: (channel, owner) for channel, owner in self._scan()
        }

    @property
    def owners(self) -> Dict[int, Any]:
        """``dest_qp → owner`` as currently installed (introspection)."""
        return {qpn: owner for qpn, (_, owner) in self._table.items()}

    def owner_of(self, packet: Packet, bth: Optional[BthHeader] = None) -> Optional[Any]:
        """The owner of the queue pair *packet* answers to, or None; *bth*
        is the packet's BTH when the caller has already found it."""
        if bth is None:
            bth = packet.find(BthHeader)
            if bth is None:
                return None
        qpn = bth.dest_qp
        entry = self._table.get(qpn)
        if entry is None or entry[0].switch_qp.qpn != qpn:
            self.refresh()
            entry = self._table.get(qpn)
            if entry is None:
                return None
        return entry[1]


class RoceRequestGenerator:
    """Craft and transmit RoCE requests for one channel from the data plane."""

    def __init__(
        self, switch: ProgrammableSwitch, channel: RemoteMemoryChannel
    ) -> None:
        self.switch = switch
        self.channel = channel
        #: Optional subscriber to this channel's health events (the cluster
        #: health monitor plugs in here); every primitive reports the same
        #: signal vocabulary — nak / strike / timeout / progress.
        self.health_listener: Optional[HealthListener] = None
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
        if self.health_listener is not None:
            self.health_listener(self, event)

    def record_strike(self) -> None:
        """The owning primitive implicated this channel in a stall."""
        self._m_strikes.inc()
        self._emit_health("strike")

    def record_timeout(self) -> None:
        """A watchdog expired waiting on this channel."""
        self._m_timeouts.inc()
        self._emit_health("timeout")

    # -- request crafting ---------------------------------------------------------

    def write(
        self,
        remote_address: int,
        data: bytes,
        ack_request: bool = False,
        meta: Optional[dict] = None,
    ) -> Optional[Packet]:
        """Issue an RDMA WRITE of *data*; returns the transmitted packet,
        or None when the switch's traffic manager refused it (its PSN is
        spent all the same, as on hardware: the responder sees a gap).

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
        self._m_writes.inc()
        return request if self._transmit(request, KIND_WRITE) else None

    def read(self, remote_address: int, length: int) -> Packet:
        """Issue an RDMA READ of *length* bytes — at most ``MAX_READ_BYTES``,
        the response being one packet; returns the request packet."""
        if length > MAX_READ_BYTES:
            raise ValueError(f"READ of {length} B exceeds one packet ({MAX_READ_BYTES} B)")
        channel = self.channel
        if not 0 <= remote_address - channel.base_address <= channel.length - length:
            raise self._outside_channel(remote_address, length)
        request = build_read_request(
            channel.switch_qp, remote_address, channel.rkey, length
        )
        self._m_reads.inc()
        self._transmit(request, KIND_READ)
        return request

    def fetch_add(
        self, remote_address: int, value: int, psn: Optional[int] = None
    ) -> Packet:
        """Issue an atomic Fetch-and-Add of *value*; returns the packet.

        Pass an explicit *psn* to retransmit a lost request verbatim — the
        responder's atomic replay cache answers duplicates without
        re-applying them.
        """
        channel = self.channel
        if not 0 <= remote_address - channel.base_address <= channel.length - 8:
            raise self._outside_channel(remote_address, 8)
        request = build_fetch_add_request(
            channel.switch_qp, remote_address, channel.rkey, value, psn=psn
        )
        self._m_fetch_adds.inc()
        self._transmit(request, KIND_ATOMIC)
        return request

    def _outside_channel(self, remote_address: int, size: int) -> ValueError:
        return ValueError(
            f"address range [{remote_address:#x}, {remote_address + size:#x}) "
            f"outside channel {self.channel.name!r}"
        )

    def _transmit(self, request: Packet, kind: str) -> bool:
        """Hand *request* to the server port; False if its queue refused it."""
        self._m_request_bytes.inc(request.wire_len)
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

    def owns_response(self, packet: Packet) -> bool:
        """Is *packet* a RoCE response addressed to this channel's QP?"""
        bth = packet.find(BthHeader)
        return bth is not None and bth.dest_qp == self.channel.switch_qp.qpn

    def accept_response(
        self, packet: Packet, bth: Optional[BthHeader] = None
    ) -> Tuple[Optional[Opcode], bool, int]:
        """Account for a response in one pass: ``(opcode, is_nak, psn)`` —
        everything a primitive's response pass dispatches on, from one
        look at the BTH (*bth*, when the caller steered by it already) and
        AETH.  NAKs are counted here.

        Responses carrying a computed ICRC are verified first: a mismatch
        means the packet was corrupted in flight, and the data plane must
        not act on anything inside it — it is dropped, counted under
        ``icrc_drops``, and the opcode is ``None`` (callers treat it as no
        response at all; the primitives' watchdogs recover, the same as
        for a lost packet).
        """
        if bth is None:
            bth = packet.require(BthHeader)
        aeth = packet.find(AethHeader)
        is_nak = aeth is not None and aeth.syndrome & _NAK_MASK == _NAK_MASK
        if not verify_icrc(packet):
            self._m_icrc_drops.inc()
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
            return None, is_nak, bth.psn
        self._m_responses.inc()
        self._m_response_bytes.inc(packet.wire_len)
        # Every member is truthy; Opcode() raises for a value that is none.
        opcode = OPCODES.get(bth.opcode) or Opcode(bth.opcode)
        if is_nak:
            self._m_naks.inc()
        if self.health_listener is not None:
            self.health_listener(self, "nak" if is_nak else "progress")
        if self._trace is not None:
            self._trace.emit(
                self.switch.sim.now,
                self._trace_node,
                self.channel.switch_qp.qpn,
                KIND_NAK if is_nak else _RESPONSE_KINDS.get(opcode, opcode.name),
                psn=bth.psn,
                wire_bytes=packet.wire_len,
                channel=self.channel.name,
                syndrome=aeth.syndrome if is_nak else None,
            )
        return opcode, is_nak, bth.psn

    def classify_response(self, packet: Packet) -> Optional[Opcode]:
        """:meth:`accept_response` for a caller that only needs the opcode."""
        return self.accept_response(packet)[0]

    @staticmethod
    def is_nak(packet: Packet) -> bool:
        aeth = packet.find(AethHeader)
        return aeth is not None and aeth.syndrome & _NAK_MASK == _NAK_MASK

    def fresh_nak(self, psn: int) -> bool:
        """Whether a NAK naming expected PSN *psn* reports a loss event not
        yet acted on; the owning primitive acts on fresh NAKs only.

        The responder NAKs every request that reaches it behind a gap, so
        one lost request draws a NAK per request sent past it, all naming
        the same PSN.  The first is fresh.  Each later one within
        ``NAK_ECHO_WINDOW_NS`` is an echo while the requests sent past the
        gap before it was acted on can still account for it.  Past that
        count it answers a request sent since (a reissued request lost
        again), so it is a fresh event.
        """
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
        """Resynchronize the soft QP after a PSN-sequence-error NAK.

        Lost requests desynchronize the switch's next PSN from the RNIC's
        expected PSN, after which every request would be NAKed.  The NAK
        carries the expected PSN in its BTH; adopting it re-establishes the
        connection (the data-plane analogue of requester retransmission).
        Returns True when a resync happened.
        """
        aeth = packet.find(AethHeader)
        if aeth is None or aeth.syndrome != AethSyndrome.NAK_PSN_SEQUENCE_ERROR:
            return False
        self.channel.switch_qp.next_psn = packet.require(BthHeader).psn
        return True

    @staticmethod
    def atomic_result(packet: Packet) -> int:
        """Extract the pre-add value from an atomic acknowledgement."""
        return packet.require(AtomicAckEthHeader).original_data
