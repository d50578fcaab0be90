"""The RNIC responder before the RoCE round trip was budgeted (PR 19)."""

from __future__ import annotations

from repro.rdma.constants import AethSyndrome, Opcode, psn_distance
from repro.rdma.headers import AtomicEthHeader, BthHeader, RethHeader
from repro.rdma.memory import MemoryAccessError
from repro.rdma.packets import (
    build_ack,
    build_atomic_ack,
    build_read_response,
    verify_icrc,
)
from repro.rdma.qp import QpState
from repro.rdma.rnic import Rnic
from repro.sim.units import transmission_delay_ns


class ReferenceRnic(Rnic):
    """The responder as a chain of helpers, transcribed from before the
    round trip was budgeted: ``handle_packet`` → ``_accept_request`` →
    ``_serve_next`` → ``_process_request`` → ``_execute`` → ``_execute_*``,
    ``Opcode(...)`` per request, ``dram.lookup`` behind ``_region``."""

    def handle_packet(self, packet):
        bth = packet.find(BthHeader)
        if bth is None:
            return
        if not verify_icrc(packet):
            self._m_icrc_drops.inc()
            return
        self._accept_request(packet, bth)

    def _accept_request(self, packet, bth):
        self._m_requests.inc()
        size = packet.buffer_len
        if self._rx_backlog_bytes + size > self.config.rx_buffer_bytes:
            self._m_rx_overflow.inc()
            return
        self._rx_queue.append(packet)
        self._rx_backlog_bytes += size
        if not self._rx_busy:
            self._serve_next()

    def _serve_next(self):
        if not self._rx_queue:
            self._rx_busy = False
            return
        self._rx_busy = True
        packet = self._rx_queue.popleft()
        self.sim.post(self.config.rx_processing_ns, self._process_request, packet)

    def _release_buffer(self, packet, at_ns=None):
        if at_ns is None or at_ns <= self.sim.now:
            self._rx_backlog_bytes -= packet.buffer_len
        else:
            self.sim.post(at_ns - self.sim.now, self._release_buffer, packet)

    def _process_request(self, packet, *_):
        self._serve_next()
        bth = packet.require(BthHeader)
        qp = self.qps.get(bth.dest_qp)
        if qp is None or qp.state not in (QpState.RTR, QpState.RTS):
            self._m_unknown_qp.inc()
            self._release_buffer(packet)
            return
        qp.requests_received += 1
        distance = psn_distance(qp.expected_psn, bth.psn)
        if distance == 0:
            self._execute(packet, bth, qp)
        elif distance < (1 << 23):
            self._m_sequence_errors.inc()
            self._release_buffer(packet)
            self._send_nak(
                packet, qp, AethSyndrome.NAK_PSN_SEQUENCE_ERROR,
                psn_override=qp.expected_psn,
            )
        else:
            self._m_duplicates.inc()
            self._release_buffer(packet)
            self._replay(packet, bth, qp)

    def _execute(self, packet, bth, qp):
        opcode = Opcode(bth.opcode)
        try:
            if opcode == Opcode.RDMA_WRITE_ONLY:
                self._execute_write(packet, bth, qp)
            elif opcode == Opcode.RDMA_READ_REQUEST:
                self._execute_read(packet, bth, qp)
            else:
                assert opcode == Opcode.FETCH_ADD
                self._execute_fetch_add(packet, bth, qp)
        except MemoryAccessError:
            self._m_access_errors.inc()
            qp.advance_expected()
            self._release_buffer(packet)
            self._send_nak(packet, qp, AethSyndrome.NAK_REMOTE_ACCESS_ERROR)

    def _region(self, rkey):
        region = self.dram.lookup(rkey)
        if region is None:
            raise MemoryAccessError(f"unknown rkey {rkey:#x}")
        return region

    def _tier(self, region, field, default):
        profile = (self.config.tier_profiles or {}).get(region.tier)
        value = getattr(profile, field, None)
        return default if value is None else value

    def _execute_write(self, packet, bth, qp):
        reth = packet.require(RethHeader)
        region = self._region(reth.rkey)
        data = packet.payload[: reth.dma_length]
        region.write(reth.virtual_address, data)
        self._m_writes.inc()
        self._m_bytes_written.inc(len(data))
        qp.advance_expected()
        finish = self._reserve_dma(len(data), self.config.dma_write_bandwidth_bps)
        self._release_buffer(packet, at_ns=finish)
        if bth.ack_request:
            self._send_response_at(finish, build_ack(packet, qp), qp)

    def _execute_read(self, packet, bth, qp):
        reth = packet.require(RethHeader)
        region = self._region(reth.rkey)
        data = region.read(reth.virtual_address, reth.dma_length)
        self._m_reads.inc()
        self._m_bytes_read.inc(len(data))
        qp.advance_expected()
        finish = self._reserve_dma(
            len(data),
            self.config.dma_read_bandwidth_bps,
            extra_ns=self._tier(region, "read_latency_ns", self.config.dma_read_latency_ns),
        )
        self._release_buffer(packet, at_ns=finish)
        self._send_response_at(finish, build_read_response(packet, qp, data), qp)

    def _execute_fetch_add(self, packet, bth, qp):
        if self._atomic_inflight >= self.config.max_outstanding_atomics:
            self._m_atomic_overflow.inc()
            self._release_buffer(packet)
            return
        atomic = packet.require(AtomicEthHeader)
        region = self._region(atomic.rkey)
        original = region.fetch_add(atomic.virtual_address, atomic.swap_add)
        self._m_atomics.inc()
        qp.advance_expected()
        cache = self._atomic_replay[qp.qpn]
        cache[bth.psn] = original
        while len(cache) > self.config.max_outstanding_atomics:
            cache.popitem(last=False)
        self._atomic_inflight += 1
        start = max(self.sim.now, self._atomic_free_at)
        service_ns = 1e9 / self._tier(region, "atomic_rate_ops", self.config.atomic_rate_ops)
        finish = start + service_ns
        self._atomic_free_at = finish
        self.sim.post(finish - self.sim.now, self._retire_atomic, packet)
        self._send_response_at(finish, build_atomic_ack(packet, qp, original), qp)

    def _retire_atomic(self, packet):
        self._atomic_inflight -= 1
        self._release_buffer(packet)

    def _replay(self, packet, bth, qp):
        opcode = Opcode(bth.opcode)
        if opcode == Opcode.RDMA_READ_REQUEST:
            reth = packet.require(RethHeader)
            try:
                region = self._region(reth.rkey)
                data = region.read(reth.virtual_address, reth.dma_length)
            except MemoryAccessError:
                self._send_nak(packet, qp, AethSyndrome.NAK_REMOTE_ACCESS_ERROR)
                return
            finish = self._reserve_dma(
                len(data),
                self.config.dma_read_bandwidth_bps,
                extra_ns=self._tier(region, "read_latency_ns", self.config.dma_read_latency_ns),
            )
            self._send_response_at(finish, build_read_response(packet, qp, data), qp)
        elif opcode == Opcode.FETCH_ADD:
            cached = self._atomic_replay[qp.qpn].get(bth.psn)
            if cached is not None:
                self._send_response_at(self.sim.now, build_atomic_ack(packet, qp, cached), qp)
        elif bth.ack_request:
            self._send_response_at(self.sim.now, build_ack(packet, qp), qp)

    def _reserve_dma(self, payload_bytes, bandwidth_bps, extra_ns=0.0):
        start = max(self.sim.now, self._dma_free_at)
        busy = self.config.dma_per_message_ns + transmission_delay_ns(payload_bytes, bandwidth_bps)
        self._dma_free_at = start + busy
        return start + busy + extra_ns

    def _send_response_at(self, when_ns, response, qp):
        qp.responses_sent += 1
        self._m_responses.inc()
        if response.require(BthHeader).opcode == Opcode.ACKNOWLEDGE:
            self._m_acks.inc()
        when_ns = max(when_ns, self.sim.now, self._resp_floor.get(qp.qpn, 0.0))
        self._resp_floor[qp.qpn] = when_ns
        self.sim.post(when_ns - self.sim.now, self.interface.send, response)

    def _send_nak(self, packet, qp, syndrome, psn_override=None):
        self._m_naks.inc()
        qp.naks_sent += 1
        self._send_response_at(
            self.sim.now,
            build_ack(packet, qp, syndrome=syndrome, psn_override=psn_override),
            qp,
        )
