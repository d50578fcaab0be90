"""The state store's data plane before it was budgeted (PR 23)."""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.core.channel import RemoteMemoryChannel
from repro.core.rocegen import RoceRequestGenerator
from repro.core.state_store import RemoteStateStore
from repro.net.packet import Packet
from repro.rdma.constants import ATOMIC_OPERAND_BYTES, Opcode, psn_distance
from repro.rdma.headers import BthHeader
from repro.switches.pipeline import PipelineContext

_OUTSTANDING = 0


class ReferenceStateStore(RemoteStateStore):
    """``_op_meta`` and ``_inflight`` as two per-QP ordered dicts, each
    filtered whole with ``psn_distance`` on every ACK and NAK — every
    data-plane method as it stood, over the live class's control plane."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._inflight = {gen: OrderedDict() for gen in self._gens}
        self._op_meta = {gen: OrderedDict() for gen in self._gens}

    def update(self, index: int, value: int) -> None:
        if self._closed:
            raise RuntimeError("state store is closed")
        if not 0 <= index < self.config.counters:
            raise IndexError(f"counter index {index} out of range")
        pending = self._accumulators.get(index, 0) + value
        if self._degraded:
            self._accumulators[index] = pending
            self._m_degraded_updates.inc()
            if pending > value:
                self._m_combined.inc()
            return
        if (
            self.outstanding < self.config.max_outstanding
            and abs(pending) >= self.config.batch_size
        ):
            self._accumulators.pop(index, None)
            self._issue(index, pending)
        else:
            self._accumulators[index] = pending
            if pending > value:
                self._m_combined.inc()

    def _issue(self, index: int, value: int) -> None:
        gen, address, block = self._locate(index)
        request = gen.fetch_add(address, value % (1 << 64))
        psn = request.require(BthHeader).psn
        self._op_meta[gen][psn] = (block, self.switch.sim.now)
        if block is not None:
            self._busy_blocks[block] = self._busy_blocks.get(block, 0) + 1
        if self.config.reliable:
            self._inflight[gen][psn] = (index, value, address)
            self._arm_retry()
        self._regs.add(_OUTSTANDING, 1)
        self._m_ops.inc()
        self._m_value.inc(value)

    def _release_block(self, block: Optional[int]) -> None:
        if block is None:
            return
        count = self._busy_blocks.get(block, 0) - 1
        if count <= 0:
            self._busy_blocks.pop(block, None)
        else:
            self._busy_blocks[block] = count

    def _retire_meta_through(self, gen: RoceRequestGenerator, psn: int) -> None:
        meta = self._op_meta[gen]
        retired = [p for p in meta if psn_distance(p, psn) < (1 << 23)]
        now = self.switch.sim.now
        for p in retired:
            block, issued = meta.pop(p)
            self._h_op_latency.observe(now - issued)
            self._release_block(block)

    def _clear_meta(self, gen: RoceRequestGenerator) -> None:
        for block, _issued in self._op_meta[gen].values():
            self._release_block(block)
        self._op_meta[gen].clear()

    def _total_inflight(self) -> int:
        return sum(len(ops) for ops in self._inflight.values())

    def _owning_gen(self, packet: Packet) -> Optional[RoceRequestGenerator]:
        bth = packet.find(BthHeader)
        if bth is None:
            return None
        gen, fastgen = self.rocegen, self._fastgen
        if bth.dest_qp == gen.channel.switch_qp.qpn:
            return gen
        if fastgen is not None and bth.dest_qp == fastgen.channel.switch_qp.qpn:
            return fastgen
        return None

    def try_handle(self, ctx: PipelineContext, packet: Packet) -> bool:
        gen = self._owning_gen(packet)
        if gen is None:
            return False
        ctx.drop()
        opcode = gen.classify_response(packet)
        if opcode == Opcode.RDMA_READ_RESPONSE_ONLY:
            self._complete_reconcile(gen, packet)
            return True
        if opcode not in (Opcode.ATOMIC_ACKNOWLEDGE, Opcode.ACKNOWLEDGE):
            return True
        if gen.is_nak(packet):
            self._m_naks.inc()
            if self.config.reliable:
                self._handle_nak_reliable(gen, packet)
            else:
                gen.maybe_resync(packet)
                self._clear_meta(gen)
        else:
            self._m_acks.inc()
            psn = packet.require(BthHeader).psn
            self._retire_meta_through(gen, psn)
            if self.config.reliable:
                self._ack_through(gen, psn)
        if not self.config.reliable:
            self._regs.write(
                _OUTSTANDING, max(0, self._regs.read(_OUTSTANDING) - 1)
            )
        self._flush()
        return True

    def _ack_through(self, gen: RoceRequestGenerator, psn: int) -> None:
        inflight = self._inflight[gen]
        retired = [
            p
            for p in inflight
            if psn_distance(p, psn) < (1 << 23)
        ]
        for p in retired:
            index, value, _address = inflight.pop(p)
            self._committed[index] = self._committed.get(index, 0) + value
        self._regs.write(_OUTSTANDING, self._total_inflight())

    def _handle_nak_reliable(
        self, gen: RoceRequestGenerator, packet: Packet
    ) -> None:
        expected = packet.require(BthHeader).psn
        inflight = self._inflight[gen]
        for p in list(inflight):
            if psn_distance(expected, p) >= (1 << 23):
                index, value, _address = inflight.pop(p)
                self._committed[index] = self._committed.get(index, 0) + value
        self._retire_meta_through(gen, (expected - 1) % (1 << 24))
        for p, (index, value, address) in inflight.items():
            gen.fetch_add(address, value % (1 << 64), psn=p)
            self._m_requeued.inc()
        self._regs.write(_OUTSTANDING, self._total_inflight())

    def _arm_retry(self) -> None:
        if self._retry_armed or self._closed or self._degraded:
            return
        self._retry_armed = True
        self._retry_snapshot = {
            gen: next(iter(ops), None) for gen, ops in self._inflight.items()
        }
        self.switch.sim.schedule(self.config.retry_timeout_ns, self._retry_check)

    def _retry_check(self) -> None:
        self._retry_armed = False
        if self._degraded or not self._total_inflight():
            return
        stalled = [
            (gen, head)
            for gen, ops in self._inflight.items()
            for head in [next(iter(ops), None)]
            if head is not None and head == self._retry_snapshot.get(gen)
        ]
        if not stalled:
            self._arm_retry()
            return
        for gen, head in stalled:
            gen.record_timeout()
            if self._closed or self._degraded or head not in self._inflight[gen]:
                continue
            index, value, address = self._inflight[gen][head]
            gen.fetch_add(address, value % (1 << 64), psn=head)
            self._m_retx.inc()
        if not self._closed and not self._degraded:
            self._arm_retry()

    def _flush(self) -> None:
        if self._degraded:
            return
        while self._regs.read(_OUTSTANDING) < self.config.max_outstanding:
            ready = next(
                (
                    index
                    for index, value in self._accumulators.items()
                    if abs(value) >= self.config.batch_size
                ),
                None,
            )
            if ready is None:
                return
            self._issue(ready, self._accumulators.pop(ready))

    def degrade(self, channel: Optional[RemoteMemoryChannel] = None) -> None:
        if self._degraded:
            return
        self._degraded = True
        for gen in self._gens:
            for index, value, _address in self._inflight[gen].values():
                self._suspended_ops.append((index, value))
            self._inflight[gen].clear()
            self._clear_meta(gen)
        self._regs.write(_OUTSTANDING, 0)

    def degrade_fast(self) -> None:
        if self._tiering is None or self._fast_degraded:
            return
        self._fast_degraded = True
        gen = self._fastgen
        if self.config.reliable:
            for index, value, _address in self._inflight[gen].values():
                self._suspended_ops.append((index, value))
        self._inflight[gen].clear()
        self._clear_meta(gen)
        self._regs.write(_OUTSTANDING, self._total_inflight())
        self._tiering.fast_enabled = False
        self._tiering.demote_all(force=True)
        if self.config.reliable and self._suspended_ops and not self._degraded:
            self._start_reconcile()

    def _complete_reconcile(
        self, gen: RoceRequestGenerator, packet: Packet
    ) -> None:
        psn = packet.require(BthHeader).psn
        index = self._reconcile_reads.pop((gen, psn), None)
        if index is None:
            return
        remote = int.from_bytes(packet.payload[:ATOMIC_OPERAND_BYTES], "big")
        committed = self._committed.get(index, 0)
        suspended = self._reconcile_value.pop(index, 0)
        applied = max(0, min(remote - committed, suspended))
        self._committed[index] = committed + applied
        self._m_reconciled_applied.inc(applied)
        missing = suspended - applied
        if missing:
            self._m_reconciled_reissued.inc(missing)
            self._accumulators[index] = (
                self._accumulators.get(index, 0) + missing
            )
        if not self._reconcile_reads:
            self.flush_all()

    def close(self) -> None:
        self._closed = True
        for gen in self._gens:
            self._inflight[gen].clear()
            self._clear_meta(gen)
        self._accumulators.clear()
        self._suspended_ops = []
        self._reconcile_reads.clear()
        self._reconcile_value.clear()
        self._regs.write(_OUTSTANDING, 0)

    def unlanded_value(self, index: int) -> int:
        total = self._accumulators.get(index, 0)
        for ops in self._inflight.values():
            for op_index, value, _address in ops.values():
                if op_index == index:
                    total += value
        for op_index, value in self._suspended_ops:
            if op_index == index:
                total += value
        total += self._reconcile_value.get(index, 0)
        return total
