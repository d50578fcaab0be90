"""The RDMA NIC model.

This terminates RoCEv2 the way a commodity RNIC (the paper used Mellanox
CX-3 Pro) does, entirely without host CPU involvement:

* **Responder path** — validates the destination QP, the PSN sequence, the
  rkey and bounds; executes WRITE / READ / Fetch-and-Add against registered
  host DRAM; and generates ACK / READ-response / atomic-ACK packets.
* **Requester path** — a verbs-style ``post`` API used by the native
  host-to-host RDMA baseline (§5's comparison point) with PSN tracking,
  completion callbacks, optional go-back-N retransmission and a
  duplicate-atomic response cache.

Loss recovery (``enable_retransmit=True``) is real go-back-N, the RC
transport's scheme: one retransmission timer per QP guards the *oldest*
unacknowledged PSN; on expiry — or on a PSN-sequence NAK naming the
responder's expected PSN — every outstanding request is re-sent in PSN
order with its **original** PSN, so the responder either executes it
(the gap case) or answers it idempotently from its duplicate-handling
path (re-ACK for WRITEs, re-read for READs, replay cache for atomics).
Timeouts back off exponentially (``retransmit_timeout_ns`` doubled by
``retransmit_backoff`` per round); ``max_retries`` exhaustion completes
every outstanding WR with an error status, counts it in the registry
(``retries_exhausted``), and calls each :attr:`Rnic.on_retry_exhausted` listener so
the cluster :class:`~repro.cluster.health.HealthMonitor` can turn silent
peers into down verdicts.  §5 only *observed* this failure class ("RDMA
requests were occasionally dropped at the NIC") without a recovery
story; the timer/NAK split here mirrors LinkGuardian's finding that
NAK-driven (loss-event-driven) recovery is what keeps goodput near the
lossless line, with timeouts only as the last resort for tail losses.
Inbound packets whose ICRC is present and wrong are dropped and counted
(``icrc_drops``) — corruption becomes loss, which this machinery then
repairs (see DESIGN.md §10).

Timing model (see DESIGN.md §5): a per-message processing cost, a DMA
engine with bounded payload bandwidth (PCIe-limited, the reason native
40 GbE RDMA tops out around 35–36 Gbps), an atomic engine with a bounded
operation rate and bounded depth (the reason the paper's switch must cap
outstanding Fetch-and-Adds), and a finite receive buffer (the reason
offered load beyond the NIC's ability is *dropped*, as §5 observes).
"""

from __future__ import annotations

import itertools
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional

from ..net.addresses import Ipv4Address, MacAddress
from ..net.node import Interface
from ..net.packet import Packet
from ..obs.trace import KIND_FAULT, KIND_RETX
from ..sim.events import Event
from ..sim.simulator import Simulator
from ..sim.units import gbps, transmission_delay_ns, usec
from .constants import (
    PSN_MODULO,
    AethSyndrome,
    Opcode,
    REQUEST_OPCODES,
    psn_distance,
)
from .headers import AethHeader, AtomicAckEthHeader, AtomicEthHeader, BthHeader, RethHeader
from .memory import Dram, MemoryAccessError
from .packets import (
    MAX_READ_BYTES,
    build_ack,
    build_atomic_ack,
    build_fetch_add_request,
    build_read_request,
    build_read_response,
    build_write_request,
    verify_icrc,
)
from .qp import Completion, QpState, QueuePair, WorkRequest


#: QP states in which the responder serves requests.
_RECEIVING_STATES = (QpState.RTR, QpState.RTS)


class _InvalidRequest(Exception):
    """A request this responder refuses with NAK-Invalid-Request."""


@dataclass
class _RetxState:
    """Per-QP go-back-N recovery state (requester side).

    One watchdog timer guards the QP's oldest unacknowledged PSN;
    ``retries`` counts consecutive fruitless rounds (reset on any
    progress) and drives the exponential backoff; ``last_nak_psn``
    deduplicates the NAK burst a single loss event produces, so one
    gap triggers one go-back-N resend, not one per trailing request.
    """

    retries: int = 0
    timer: Optional[Event] = None
    last_nak_psn: Optional[int] = None


@dataclass
class TierProfile:
    """Per-tier service overrides for regions tagged with a memory tier.

    The RDCA observation (PAPERS.md): serving the hot last mile from the
    server's cache hierarchy instead of DRAM removes the PCIe/DRAM round
    trip from READs and lets the atomic engine cycle much faster.  A
    region registered with ``tier="fast"`` is served with this profile;
    fields left ``None`` fall back to the NIC-wide :class:`RnicConfig`
    values, so a profile can override latency without touching rates.
    """

    #: Replaces ``dma_read_latency_ns`` for READs against this tier.
    read_latency_ns: Optional[float] = None
    #: Replaces ``atomic_rate_ops`` for Fetch-and-Adds against this tier.
    atomic_rate_ops: Optional[float] = None


@dataclass
class RnicConfig:
    """Timing and capacity parameters of the modelled RNIC."""

    #: Fixed per-message processing latency (parsing, QP lookup, PCIe doorbells).
    rx_processing_ns: float = 300.0
    #: Extra latency for a READ's DMA fetch from host DRAM over PCIe.
    dma_read_latency_ns: float = 500.0
    #: Inbound (WRITE) payload DMA bandwidth cap.  PCIe-posted writes on
    #: CX-3-class NICs sustain less than line rate — this is why the paper
    #: measures 34.1 Gbps lossless stores against a 40 GbE link.
    dma_write_bandwidth_bps: float = gbps(35.6)
    #: Outbound (READ-response) payload DMA bandwidth cap.  PCIe reads
    #: stream faster than posted writes, leaving the 40 GbE link as the
    #: binding constraint for loads (§5's 37.4 Gbps forward rate).
    dma_read_bandwidth_bps: float = gbps(43.5)
    #: Fixed DMA engine cost per message (descriptor fetch, completion);
    #: dominates small messages and sets the sustained-WRITE knee.
    dma_per_message_ns: float = 16.0
    #: Atomic (Fetch-and-Add) execution rate, operations per second
    #: (CX-3-class NICs sustain 2–3 Mops; 2.4 Mops reproduces the ~2.1 Gbps
    #: Fetch-and-Add request stream of Fig. 3b).
    atomic_rate_ops: float = 2.4e6
    #: Max atomics queued in the NIC's atomic engine before drops.
    max_outstanding_atomics: int = 16
    #: On-NIC receive buffer; offered load beyond service rate overflows it.
    rx_buffer_bytes: int = 512 * 1024
    #: Requester: max in-flight work requests before local queueing.
    max_outstanding_requests: int = 128
    #: Requester: base retransmission timeout for the per-QP go-back-N
    #: watchdog (used only when ``enable_retransmit``); backed off
    #: exponentially by ``retransmit_backoff`` per fruitless round.
    retransmit_timeout_ns: float = usec(500)
    #: Requester: recover lost requests/responses with go-back-N instead
    #: of surfacing failure completions on the first NAK or timeout.
    enable_retransmit: bool = False
    #: Consecutive timeout rounds without progress before the requester
    #: gives up: every outstanding WR completes with an error status and
    #: :attr:`Rnic.on_retry_exhausted` fires (health escalation).
    max_retries: int = 3
    #: Timeout multiplier per retry round (RC's exponential backoff —
    #: keeps a blacked-out peer from being hammered at the base RTO).
    retransmit_backoff: float = 2.0
    #: Per-tier service overrides, keyed by region tier name (``"fast"`` /
    #: ``"dram"``).  ``None`` means every region is served with the
    #: NIC-wide parameters above (the pre-tiering behaviour, bit-exact).
    tier_profiles: Optional[Dict[str, TierProfile]] = None


class Rnic:
    """An RDMA-capable NIC bound to one interface and one DRAM."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        interface: Interface,
        dram: Dram,
        config: Optional[RnicConfig] = None,
    ) -> None:
        # Per-instance, not class-level: QPNs are a per-NIC namespace on
        # real hardware, and a process-global counter would make QP
        # numbering (hence wire traces) depend on unrelated earlier runs.
        self._qpn_counter = itertools.count(0x11)
        self.sim = sim
        self.name = name
        self.interface = interface
        self.dram = dram
        self.config = config if config is not None else RnicConfig()
        obs = sim.obs
        #: This RNIC's scope in the simulation's metric registry
        #: ("rnic[<name>]"); per-QP gauges live under its qp[<qpn>] children.
        self.metrics = obs.registry.unique_scope(f"rnic[{name}]")
        self._trace = obs.trace
        self._trace_node = f"rnic:{name}"
        self._m_requests = self.metrics.counter("requests_received")
        self._m_writes = self.metrics.counter("writes_executed")
        self._m_reads = self.metrics.counter("reads_executed")
        self._m_atomics = self.metrics.counter("atomics_executed")
        self._m_responses = self.metrics.counter("responses_sent")
        self._m_acks = self.metrics.counter("acks_sent")
        self._m_naks = self.metrics.counter("naks_sent")
        self._m_duplicates = self.metrics.counter("duplicates")
        self._m_rx_overflow = self.metrics.counter("rx_overflow_drops")
        self._m_atomic_overflow = self.metrics.counter("atomic_overflow_drops")
        self._m_unknown_qp = self.metrics.counter("unknown_qp_drops")
        self._m_access_errors = self.metrics.counter("access_errors")
        self._m_sequence_errors = self.metrics.counter("sequence_errors")
        self._m_bytes_written = self.metrics.counter("bytes_written")
        self._m_bytes_read = self.metrics.counter("bytes_read")
        self._m_retransmissions = self.metrics.counter("retransmissions")
        self._m_retries_exhausted = self.metrics.counter("retries_exhausted")
        self._m_icrc_drops = self.metrics.counter("icrc_drops")
        #: Called, oldest first, with the QueuePair when go-back-N gives
        #: up on it; the cluster HealthMonitor subscribes via
        #: ``watch_requester`` to turn requester-side silence into member
        #: down verdicts.
        self.on_retry_exhausted: List[Callable[[QueuePair], None]] = []
        self.qps: Dict[int, QueuePair] = {}
        # Responder pipeline.
        self._rx_queue: Deque[Packet] = deque()
        self._rx_backlog_bytes = 0
        self._rx_busy = False
        self._dma_free_at = 0.0
        self._atomic_free_at = 0.0
        self._atomic_inflight = 0
        # Per-QP replay cache of recent atomic responses (IB keeps one so a
        # retried Fetch-and-Add is not applied twice).
        self._atomic_replay: Dict[int, OrderedDict] = {}
        # Per-QP response-ordering floor (responses leave in request order).
        self._resp_floor: Dict[int, float] = {}
        # Requester state.
        self._outstanding: "OrderedDict[tuple, WorkRequest]" = OrderedDict()
        self._pending: Deque[WorkRequest] = deque()
        self._retx: Dict[int, _RetxState] = {}

    # ------------------------------------------------------------------ setup

    @property
    def ip(self) -> Ipv4Address:
        if self.interface.ip is None:
            raise RuntimeError(f"{self.name}: interface has no IP address")
        return self.interface.ip

    @property
    def mac(self) -> MacAddress:
        return self.interface.mac

    def create_qp(self, qpn: Optional[int] = None, initial_psn: int = 0) -> QueuePair:
        """Create a queue pair bound to this RNIC's interface identity."""
        if qpn is None:
            qpn = next(self._qpn_counter)
        if qpn in self.qps:
            raise ValueError(f"{self.name}: QPN {qpn} already exists")
        qp = QueuePair(qpn, self.ip, self.mac, initial_psn=initial_psn)
        self.qps[qpn] = qp
        self._atomic_replay[qpn] = OrderedDict()
        # Function gauges sample the QP's live counters at snapshot time;
        # the QP hot path stays a plain attribute increment.
        qp_scope = self.metrics.child(f"qp[{qpn}]")
        qp_scope.gauge(
            "requests_received", fn=lambda qp=qp: qp.requests_received
        )
        qp_scope.gauge("responses_sent", fn=lambda qp=qp: qp.responses_sent)
        qp_scope.gauge("naks_sent", fn=lambda qp=qp: qp.naks_sent)
        return qp

    def destroy_qp(self, qp: QueuePair) -> None:
        """Tear down *qp*: no RNIC state survives (verbs ``ibv_destroy_qp``).

        Late requests addressed to the destroyed QPN are dropped as
        unknown-QP, exactly what channel close→reopen needs — a reopened
        channel gets a fresh QPN and must never be answered from stale
        responder state (ePSN, atomic replay cache, response floor).
        """
        if self.qps.get(qp.qpn) is not qp:
            raise ValueError(f"{self.name}: QP {qp.qpn} is not mine")
        qp.to_error()
        del self.qps[qp.qpn]
        self._atomic_replay.pop(qp.qpn, None)
        self._resp_floor.pop(qp.qpn, None)
        retx = self._retx.pop(qp.qpn, None)
        if retx is not None and retx.timer is not None:
            retx.timer.cancel()
        self.metrics.registry.remove_scope(
            f"{self.metrics.name}.qp[{qp.qpn}]"
        )

    # ----------------------------------------------------------- packet entry

    def handle_packet(self, packet: Packet) -> None:
        """Entry point: the owning host delivers RoCE packets here.

        Packets carrying a computed ICRC are verified first; a mismatch
        means in-flight corruption, and the NIC drops silently (real
        RNICs do — no NAK, since nothing in the damaged packet can be
        trusted).  Recovery is the requester's go-back-N timeout.
        A request is admitted to the receive buffer, or dropped if full.
        """
        bth = packet.find(BthHeader)
        if bth is None:
            return
        if not verify_icrc(packet):
            self._m_icrc_drops.value += 1
            if self._trace is not None:
                self._trace.emit(
                    self.sim.now,
                    self._trace_node,
                    bth.dest_qp,
                    KIND_FAULT,
                    psn=bth.psn,
                    wire_bytes=packet.wire_len,
                    channel="icrc",
                )
            return
        if bth.opcode not in REQUEST_OPCODES:
            self._handle_response(packet, bth)
            return
        self._m_requests.value += 1
        size = packet.buffer_len
        if self._rx_backlog_bytes + size > self.config.rx_buffer_bytes:
            self._m_rx_overflow.value += 1
            return
        self._rx_backlog_bytes += size
        if self._rx_busy:
            self._rx_queue.append((packet, bth))
        else:
            self._rx_busy = True
            self.sim.post(
                self.config.rx_processing_ns, self._process_request, packet, bth
            )

    # ---------------------------------------------------------- responder path

    def _process_request(self, packet: Packet, bth: BthHeader) -> None:
        """Header processing is done: check QP and PSN, then execute.

        The kernel events posted from here on, and their order, are part
        of the timing model (DESIGN.md §5.1).
        """
        # Pipelined: pull the next message in as soon as this one clears
        # header processing (the DMA/atomic engines serialize behind it).
        if self._rx_queue:
            self.sim.post(
                self.config.rx_processing_ns,
                self._process_request,
                *self._rx_queue.popleft(),
            )
        else:
            self._rx_busy = False
        qp = self.qps.get(bth.dest_qp)
        if qp is None or qp.state not in _RECEIVING_STATES:
            self._m_unknown_qp.value += 1
            self._rx_backlog_bytes -= packet.buffer_len
            return
        qp.requests_received += 1
        psn = bth.psn
        expected = qp.expected_psn
        if psn != expected:
            self._rx_backlog_bytes -= packet.buffer_len
            if (psn - expected) % PSN_MODULO < PSN_MODULO // 2:
                # Future PSN: at least one request was lost.  NAK with the
                # expected PSN so the requester can resynchronize.
                self._m_sequence_errors.value += 1
                self._send_nak(
                    packet, qp, AethSyndrome.NAK_PSN_SEQUENCE_ERROR, expected
                )
            else:
                # Past PSN: a duplicate (requester retransmission).
                self._m_duplicates.value += 1
                self._replay(packet, bth, qp)
            return
        try:
            execute = self._EXECUTE.get(bth.opcode)
            if execute is None:
                raise _InvalidRequest
            execute(self, packet, bth, qp)
        except MemoryAccessError:
            self._m_access_errors.value += 1
            qp.expected_psn = (qp.expected_psn + 1) % PSN_MODULO
            qp.msn = (qp.msn + 1) % PSN_MODULO
            self._rx_backlog_bytes -= packet.buffer_len
            self._send_nak(packet, qp, AethSyndrome.NAK_REMOTE_ACCESS_ERROR, psn)
        except _InvalidRequest:
            # Refused before anything executed: ePSN does not advance.
            self._rx_backlog_bytes -= packet.buffer_len
            self._send_nak(packet, qp, AethSyndrome.NAK_INVALID_REQUEST, psn)

    def _retire_at(self, when_ns: float, packet: Packet, atomic: bool = False) -> None:
        """Free the request's receive-buffer bytes (and, if *atomic*, its
        atomic engine slot) at *when_ns*, or now if that has passed.

        Buffer space is held until the operation's DMA completes — this is
        what makes sustained overload overflow the NIC, as §5 observes
        ("RDMA requests were occasionally dropped at the NIC").
        """
        retire = self._retire_atomic if atomic else self._release_buffer
        now = self.sim.now
        if when_ns > now:
            self.sim.post(when_ns - now, retire, packet)
        else:
            retire(packet)

    def _release_buffer(self, packet: Packet) -> None:
        self._rx_backlog_bytes -= packet.buffer_len

    def _read_latency_ns(self, region) -> float:
        """The READ fetch latency for *region*'s tier (DESIGN.md §13)."""
        profiles = self.config.tier_profiles
        if profiles is not None:
            profile = profiles.get(region.tier)
            if profile is not None and profile.read_latency_ns is not None:
                return profile.read_latency_ns
        return self.config.dma_read_latency_ns

    def _execute_write(self, packet: Packet, bth: BthHeader, qp: QueuePair) -> None:
        reth = packet.require(RethHeader)
        data = packet.payload
        size = len(data)
        if reth.dma_length != size:
            # RC answers a length mismatch with a NAK and writes nothing.
            raise _InvalidRequest
        region = self.dram.regions[reth.rkey]  # unknown: MemoryAccessError
        region.write(reth.virtual_address, data)
        self._m_writes.value += 1
        self._m_bytes_written.value += size
        qp.expected_psn = (qp.expected_psn + 1) % PSN_MODULO
        qp.msn = (qp.msn + 1) % PSN_MODULO
        finish = self._reserve_dma(size, self.config.dma_write_bandwidth_bps)
        if bth.ack_request:
            self._m_acks.value += 1
            self._send_response_at(
                finish, build_ack(packet, qp, psn_override=bth.psn), qp, packet
            )
        else:
            self._retire_at(finish, packet)

    def _execute_read(self, packet: Packet, bth: BthHeader, qp: QueuePair) -> None:
        reth = packet.require(RethHeader)
        if reth.dma_length > MAX_READ_BYTES:
            # The one-packet subset: refused, not segmented.
            raise _InvalidRequest
        region = self.dram.regions[reth.rkey]  # unknown: MemoryAccessError
        data = region.read(reth.virtual_address, reth.dma_length)
        self._m_reads.value += 1
        self._m_bytes_read.value += len(data)
        qp.expected_psn = (qp.expected_psn + 1) % PSN_MODULO
        qp.msn = (qp.msn + 1) % PSN_MODULO
        finish = self._reserve_dma(
            len(data),
            self.config.dma_read_bandwidth_bps,
            extra_ns=self._read_latency_ns(region),
        )
        self._send_response_at(
            finish, build_read_response(packet, qp, data, psn_override=bth.psn), qp, packet
        )

    def _execute_fetch_add(self, packet: Packet, bth: BthHeader, qp: QueuePair) -> None:
        config = self.config
        if self._atomic_inflight >= config.max_outstanding_atomics:
            # The atomic engine is saturated; a real NIC drops or stalls the
            # wire.  The paper's switch-side primitive exists to avoid this.
            self._m_atomic_overflow.value += 1
            self._rx_backlog_bytes -= packet.buffer_len
            return
        atomic = packet.require(AtomicEthHeader)
        region = self.dram.regions[atomic.rkey]  # unknown: NAK before queueing
        # The memory effect applies now, in request order (RC semantics);
        # the bounded atomic *engine* only determines when the response can
        # leave and when the request's buffer is retired.
        original = region.fetch_add(atomic.virtual_address, atomic.swap_add)
        self._m_atomics.value += 1
        qp.expected_psn = (qp.expected_psn + 1) % PSN_MODULO
        qp.msn = (qp.msn + 1) % PSN_MODULO
        cache = self._atomic_replay[qp.qpn]
        cache[bth.psn] = original
        while len(cache) > config.max_outstanding_atomics:
            cache.popitem(last=False)
        self._atomic_inflight += 1
        rate = config.atomic_rate_ops
        if config.tier_profiles is not None:  # the region's tier may override it
            profile = config.tier_profiles.get(region.tier)
            if profile is not None and profile.atomic_rate_ops is not None:
                rate = profile.atomic_rate_ops
        now = self.sim.now
        self._atomic_free_at = finish = max(now, self._atomic_free_at) + 1e9 / rate
        self._send_response_at(
            finish,
            build_atomic_ack(packet, qp, original, psn_override=bth.psn),
            qp,
            packet,
            atomic=True,
        )

    def _retire_atomic(self, packet: Packet) -> None:
        self._atomic_inflight -= 1
        self._rx_backlog_bytes -= packet.buffer_len

    #: Execution by raw BTH opcode; any other request is NAKed as invalid.
    _EXECUTE = {
        int(Opcode.RDMA_WRITE_ONLY): _execute_write,
        int(Opcode.RDMA_READ_REQUEST): _execute_read,
        int(Opcode.FETCH_ADD): _execute_fetch_add,
    }

    def _replay(self, packet: Packet, bth: BthHeader, qp: QueuePair) -> None:
        """Serve a duplicate request idempotently (requester retried)."""
        opcode = bth.opcode
        if opcode == Opcode.RDMA_READ_REQUEST:
            # Reads are safe to re-execute.
            reth = packet.require(RethHeader)
            if reth.dma_length > MAX_READ_BYTES:
                self._send_nak(packet, qp, AethSyndrome.NAK_INVALID_REQUEST, bth.psn)
                return
            try:
                region = self.dram.regions[reth.rkey]
                data = region.read(reth.virtual_address, reth.dma_length)
            except MemoryAccessError:
                self._send_nak(
                    packet, qp, AethSyndrome.NAK_REMOTE_ACCESS_ERROR, bth.psn
                )
                return
            finish = self._reserve_dma(
                len(data),
                self.config.dma_read_bandwidth_bps,
                extra_ns=self._read_latency_ns(region),
            )
            self._send_response_at(finish, build_read_response(packet, qp, data), qp)
        elif opcode == Opcode.FETCH_ADD:
            cached = self._atomic_replay[qp.qpn].get(bth.psn)
            if cached is not None:
                self._send_response_at(
                    self.sim.now, build_atomic_ack(packet, qp, cached), qp
                )
            # Not in the replay cache: silently drop; the requester errors out.
        elif bth.ack_request:
            # Duplicate WRITE: already applied; just re-ACK.
            self._m_acks.value += 1
            self._send_response_at(self.sim.now, build_ack(packet, qp), qp)

    def _reserve_dma(
        self, payload_bytes: int, bandwidth_bps: float, extra_ns: float = 0.0
    ) -> float:
        """Reserve the DMA engine for a payload; returns the finish time.

        The engine serializes per-message setup plus byte movement;
        ``extra_ns`` (e.g. the PCIe read round trip) is pure latency that
        pipelines across messages, so it is added *after* the engine is
        released — otherwise READ throughput would be latency-bound.
        """
        start = max(self.sim.now, self._dma_free_at)
        busy = self.config.dma_per_message_ns + transmission_delay_ns(
            payload_bytes, bandwidth_bps
        )
        self._dma_free_at = start + busy
        return start + busy + extra_ns

    def _send_response_at(
        self,
        when_ns: float,
        response: Packet,
        qp: QueuePair,
        request: Optional[Packet] = None,
        atomic: bool = False,
    ) -> None:
        """Emit *response* no earlier than ``when_ns``, in request order.

        RC responders answer strictly in request order per QP; without the
        ordering floor a WRITE's ACK could overtake a slower READ response
        or atomic ACK, and the requester's cumulative-ACK handling would
        complete the wrong work requests.  Requests are processed serially,
        so calls arrive here in request order; the floor makes the emission
        times non-decreasing and same-time events fire FIFO.

        With *request*, the request is retired at ``when_ns`` too
        (:meth:`_retire_at`).  When the response leaves then, one event does
        both: as two they would take adjacent seqs at one time, so nothing
        could fire between them.  When the floor holds the response back,
        the retirement is its own event, posted first.
        """
        qp.responses_sent += 1
        self._m_responses.value += 1
        now = self.sim.now
        at = max(when_ns, now, self._resp_floor.get(qp.qpn, 0.0))
        self._resp_floor[qp.qpn] = at
        if request is not None:
            if at == when_ns > now:
                self.sim.post(at - now, self._retire_and_send, request, atomic, response)
                return
            self._retire_at(when_ns, request, atomic)
        self.sim.post(at - now, self.interface.send, response)

    def _retire_and_send(self, request: Packet, atomic: bool, response: Packet) -> None:
        if atomic:
            self._atomic_inflight -= 1
        self._rx_backlog_bytes -= request.buffer_len
        self.interface.send(response)

    def _send_nak(self, packet: Packet, qp: QueuePair, syndrome: int, psn: int) -> None:
        """NAK *packet* now; *psn* is its own, or the expected one (sequence error)."""
        self._m_naks.value += 1
        qp.naks_sent += 1
        if self._trace is not None:
            self._trace.emit(
                self.sim.now, self._trace_node, qp.qpn, "NAK", psn=psn, syndrome=syndrome
            )
        self._m_acks.value += 1  # a NAK is an ACKNOWLEDGE packet too
        self._send_response_at(
            self.sim.now, build_ack(packet, qp, syndrome=syndrome, psn_override=psn), qp
        )

    # --------------------------------------------------------- requester path

    def post(self, qp: QueuePair, wr: WorkRequest) -> None:
        """Post a one-sided work request on *qp* (verbs ``ibv_post_send``)."""
        if not qp.is_connected:
            raise RuntimeError(f"QP {qp.qpn} is not connected")
        wr.post_time_ns = self.sim.now
        if len(self._outstanding) >= self.config.max_outstanding_requests:
            self._pending.append((qp, wr))
            return
        self._transmit(qp, wr)

    def _transmit(self, qp: QueuePair, wr: WorkRequest) -> None:
        wr.psn = qp.allocate_psn()
        packet = self._build_request(qp, wr)
        self._outstanding[(qp.qpn, wr.psn)] = wr
        self.interface.send(packet)
        if self.config.enable_retransmit:
            self._arm_retx(qp)

    def _build_request(self, qp: QueuePair, wr: WorkRequest) -> Packet:
        if wr.opcode == Opcode.RDMA_WRITE_ONLY:
            return build_write_request(
                qp, wr.remote_address, wr.rkey, wr.data, psn=wr.psn
            )
        if wr.opcode == Opcode.RDMA_READ_REQUEST:
            return build_read_request(
                qp, wr.remote_address, wr.rkey, wr.length, psn=wr.psn
            )
        if wr.opcode == Opcode.FETCH_ADD:
            return build_fetch_add_request(
                qp, wr.remote_address, wr.rkey, wr.length, psn=wr.psn
            )
        raise ValueError(f"unsupported requester opcode: {wr.opcode}")

    # ---- go-back-N recovery (DESIGN.md §10's WAITING/RECOVERING machine)

    def _qp_outstanding(self, qp: QueuePair) -> list:
        """This QP's in-flight WRs in transmit (= PSN) order."""
        return [
            wr for (qpn, _psn), wr in self._outstanding.items() if qpn == qp.qpn
        ]

    def _arm_retx(self, qp: QueuePair, rearm: bool = False) -> None:
        """Start (or with *rearm* restart) the QP's recovery watchdog.

        The timeout guards the oldest unacknowledged PSN and backs off
        exponentially with the consecutive-fruitless-round count.
        """
        state = self._retx.setdefault(qp.qpn, _RetxState())
        if state.timer is not None:
            if not rearm:
                return
            state.timer.cancel()
        timeout = self.config.retransmit_timeout_ns * (
            self.config.retransmit_backoff ** state.retries
        )
        state.timer = self.sim.schedule(timeout, self._retx_timeout, qp)

    def _retx_timeout(self, qp: QueuePair) -> None:
        state = self._retx.get(qp.qpn)
        if state is None:
            return
        state.timer = None
        if not any(key[0] == qp.qpn for key in self._outstanding):
            state.retries = 0
            return
        if state.retries >= self.config.max_retries:
            self._exhaust_retries(qp, state)
            return
        state.retries += 1
        self._retransmit_window(qp)
        self._arm_retx(qp, rearm=True)

    def _retransmit_window(self, qp: QueuePair) -> None:
        """Go-back-N: re-send every outstanding request, original PSNs.

        The responder executes the request that fills its PSN gap and
        absorbs the rest through its duplicate path (re-ACK / re-read /
        atomic replay cache), so over-retransmission costs bandwidth but
        never correctness.
        """
        for wr in self._qp_outstanding(qp):
            self._m_retransmissions.value += 1
            packet = self._build_request(qp, wr)
            if self._trace is not None:
                self._trace.emit(
                    self.sim.now,
                    self._trace_node,
                    qp.qpn,
                    KIND_RETX,
                    psn=wr.psn,
                    wire_bytes=packet.wire_len,
                )
            self.interface.send(packet)

    def _exhaust_retries(self, qp: QueuePair, state: _RetxState) -> None:
        """Give up on the QP: error-complete all in-flight work, escalate.

        Every outstanding WR completes with ``success=False`` and is
        counted under ``retries_exhausted`` — callers always get a
        terminal verdict instead of a silently dropped completion — and
        ``on_retry_exhausted`` hands the evidence to the health layer.
        """
        state.retries = 0
        state.last_nak_psn = None
        keys = [key for key in self._outstanding if key[0] == qp.qpn]
        for key in keys:
            wr = self._outstanding.pop(key)
            self._m_retries_exhausted.value += 1
            self._complete(
                wr,
                Completion(
                    wr.wr_id, wr.opcode, success=False,
                    completion_time_ns=self.sim.now, context=wr.context,
                ),
            )
        for listener in self.on_retry_exhausted:
            listener(qp)

    def _note_progress(self, qp: QueuePair) -> None:
        """The responder spoke and work completed: reset recovery state."""
        state = self._retx.get(qp.qpn)
        if state is None:
            return
        state.retries = 0
        state.last_nak_psn = None
        if state.timer is not None:
            state.timer.cancel()
            state.timer = None
        if any(key[0] == qp.qpn for key in self._outstanding):
            self._arm_retx(qp)

    def _handle_response(self, packet: Packet, bth: BthHeader) -> None:
        opcode = Opcode(bth.opcode)
        # Responses address the requester QP; find which local QP they belong
        # to by QPN.
        qp = self.qps.get(bth.dest_qp)
        if qp is None:
            self._m_unknown_qp.value += 1
            return
        aeth = packet.find(AethHeader)
        if aeth is not None and AethSyndrome.is_nak(aeth.syndrome):
            if aeth.syndrome == AethSyndrome.NAK_PSN_SEQUENCE_ERROR:
                if self.config.enable_retransmit:
                    # The NAK names the responder's expected PSN — recover
                    # immediately with go-back-N instead of waiting out the
                    # timer (the NAK-driven fast path; LinkGuardian's
                    # observation that loss-event-driven recovery, not
                    # timeouts, preserves goodput).  A single gap produces
                    # a NAK per trailing request; resend once per distinct
                    # expected PSN and let the watchdog cover a lost resend.
                    state = self._retx.setdefault(qp.qpn, _RetxState())
                    if state.last_nak_psn != bth.psn:
                        state.last_nak_psn = bth.psn
                        state.retries = 0
                        self._retransmit_window(qp)
                        self._arm_retx(qp, rearm=True)
                    return
                # The NAK carries the responder's expected PSN; everything
                # from there on was rejected (we fail rather than replay —
                # callers that want recovery enable retransmission).
                rejected = [
                    key
                    for key in self._outstanding
                    if key[0] == qp.qpn
                    and psn_distance(bth.psn, key[1]) < (1 << 23)
                ]
                for key in rejected:
                    wr = self._outstanding.pop(key)
                    self._complete(
                        wr,
                        Completion(
                            wr.wr_id, wr.opcode, success=False,
                            syndrome=aeth.syndrome,
                            completion_time_ns=self.sim.now,
                            context=wr.context,
                        ),
                    )
            else:
                self._complete_psn(
                    qp, bth.psn, success=False, syndrome=aeth.syndrome
                )
                self._note_progress(qp)
            return
        if opcode == Opcode.RDMA_READ_RESPONSE_ONLY:
            self._complete_psn(qp, bth.psn, data=packet.payload)
            self._note_progress(qp)
        elif opcode == Opcode.ATOMIC_ACKNOWLEDGE:
            atomic_ack = packet.require(AtomicAckEthHeader)
            self._complete_psn(
                qp, bth.psn, original_value=atomic_ack.original_data
            )
            self._note_progress(qp)
        elif opcode == Opcode.ACKNOWLEDGE:
            # Coalesced ACK: completes every outstanding WR up to this PSN.
            acked = [
                key
                for key in self._outstanding
                if key[0] == qp.qpn
                and psn_distance(key[1], bth.psn) < (1 << 23)
            ]
            for key in acked:
                wr = self._outstanding.pop(key)
                self._complete(
                    wr,
                    Completion(
                        wr.wr_id, wr.opcode, success=True,
                        completion_time_ns=self.sim.now, context=wr.context,
                    ),
                )
            self._note_progress(qp)

    def _complete_psn(
        self,
        qp: QueuePair,
        psn: int,
        success: bool = True,
        data: bytes = b"",
        original_value: int = 0,
        syndrome: Optional[int] = None,
    ) -> None:
        wr = self._outstanding.pop((qp.qpn, psn), None)
        if wr is None:
            return
        self._complete(
            wr,
            Completion(
                wr.wr_id,
                wr.opcode,
                success=success,
                data=data,
                original_value=original_value,
                syndrome=syndrome,
                completion_time_ns=self.sim.now,
                context=wr.context,
            ),
        )

    def _complete(self, wr: WorkRequest, completion: Completion) -> None:
        if self._pending and len(self._outstanding) < self.config.max_outstanding_requests:
            next_qp, next_wr = self._pending.popleft()
            self._transmit(next_qp, next_wr)
        if wr.callback is not None:
            wr.callback(completion)

    @property
    def outstanding_requests(self) -> int:
        return len(self._outstanding)

    def __repr__(self) -> str:
        return f"<Rnic {self.name} qps={len(self.qps)}>"
