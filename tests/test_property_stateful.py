"""Stateful / model-based property tests on core data structures."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.rdma.memory import MemoryAccessError, SparseBuffer
from repro.switches.tables import ActionEntry, ExactMatchTable, TableFullError
from repro.switches.traffic_manager import TrafficManager, TrafficManagerConfig
from repro.workloads.factory import udp_between


class SparseBufferMachine(RuleBasedStateMachine):
    """SparseBuffer must behave exactly like a plain bytearray."""

    SIZE = 2000
    PAGE = 128
    SUB = PAGE // 16
    PAGES = -(-SIZE // PAGE)

    @initialize()
    def setup(self):
        self.buffer = SparseBuffer(self.SIZE, page_size=self.PAGE)
        self.reference = bytearray(self.SIZE)

    def _write(self, offset, data):
        self.buffer.write(offset, data)
        self.reference[offset : offset + len(data)] = data

    def _same(self, offset, size):
        assert self.buffer.read(offset, size) == bytes(
            self.reference[offset : offset + size]
        )

    def _kind(self, page):
        if page in self.buffer._pages:
            return "full"
        return "sparse" if page in self.buffer._sparse else "absent"

    @rule(
        offset=st.integers(0, SIZE - 1),
        data=st.binary(min_size=0, max_size=300),
    )
    def write(self, offset, data):
        self._write(offset, data[: self.SIZE - offset])

    @rule(offset=st.integers(0, SIZE - 1), size=st.integers(0, 300))
    def read(self, offset, size):
        self._same(offset, min(size, self.SIZE - offset))

    @rule(page=st.integers(0, PAGES - 2), order=st.permutations(range(16)))
    def promotion_across_half_full_keeps_every_byte(self, page, order):
        """One byte into each sub-chunk in *order* until the page is full:
        insertions land between present sub-chunks, then the promotion."""
        base = page * self.PAGE
        for step, sub_chunk in enumerate(order):
            if self._kind(page) == "full":
                break
            self._write(base + sub_chunk * self.SUB + step % self.SUB, bytes([step + 1]))
            self._same(base, self.PAGE)
        assert self._kind(page) == "full"
        self._same(0, self.SIZE)

    @precondition(
        lambda self: any(
            self._kind(p) == "absent" and self._kind(p + 1) != "full"
            for p in range(self.PAGES - 3)
        )
    )
    @rule(data=st.data())
    def read_straddles_absent_sparse_and_full_pages(self, data):
        page = data.draw(st.sampled_from([
            p for p in range(self.PAGES - 3)
            if self._kind(p) == "absent" and self._kind(p + 1) != "full"
        ]))
        # Page + 1 gets (or keeps) its first present sub-chunk only; page + 2
        # is filled to half, so promoted.
        sparse = self.buffer._sparse.get(page + 1, (1, None))[0]
        at = (page + 1) * self.PAGE + (sparse & -sparse).bit_length() * self.SUB - self.SUB
        self._write(at, data.draw(st.binary(min_size=1, max_size=self.SUB)))
        for j in range(8):
            self._write((page + 2) * self.PAGE + j * self.SUB, bytes([j + 1]))
        assert [self._kind(p) for p in range(page, page + 3)] == ["absent", "sparse", "full"]
        self._same(page * self.PAGE + 3, 2 * self.PAGE + 5)

    @rule(offset=st.integers(SIZE, SIZE + 100), size=st.integers(1, 10))
    def out_of_range_read_rejected(self, offset, size):
        with pytest.raises(MemoryAccessError):
            self.buffer.read(offset, size)

    @invariant()
    def residency_bounded(self):
        assert self.buffer.resident_bytes <= self.SIZE + self.PAGE


TestSparseBufferModel = SparseBufferMachine.TestCase
TestSparseBufferModel.settings = settings(
    max_examples=30, stateful_step_count=40, deadline=None
)


class ExactTableMachine(RuleBasedStateMachine):
    """ExactMatchTable must track a dict with bounded size."""

    CAPACITY = 8

    @initialize()
    def setup(self):
        self.table = ExactMatchTable("model", capacity=self.CAPACITY)
        self.reference = {}

    @rule(key=st.integers(0, 20), value=st.integers(0, 100))
    def insert(self, key, value):
        entry = ActionEntry("set", {"v": value})
        if key in self.reference or len(self.reference) < self.CAPACITY:
            self.table.insert(key, entry)
            self.reference[key] = value
        else:
            with pytest.raises(TableFullError):
                self.table.insert(key, entry)

    @rule(key=st.integers(0, 20))
    def delete(self, key):
        assert self.table.delete(key) == (key in self.reference)
        self.reference.pop(key, None)

    @rule(key=st.integers(0, 20))
    def lookup(self, key):
        entry = self.table.lookup(key)
        if key in self.reference:
            assert entry is not None
            assert entry.params["v"] == self.reference[key]
        else:
            assert entry is None

    @rule()
    def evict_oldest(self):
        evicted = self.table.evict_oldest()
        if self.reference:
            assert evicted in self.reference
            del self.reference[evicted]
        else:
            assert evicted is None

    @invariant()
    def sizes_agree(self):
        assert len(self.table) == len(self.reference)
        assert len(self.table) <= self.CAPACITY


TestExactTableModel = ExactTableMachine.TestCase
TestExactTableModel.settings = settings(
    max_examples=30, stateful_step_count=40, deadline=None
)


class TrafficManagerMachine(RuleBasedStateMachine):
    """Shared-buffer accounting must never leak or go negative."""

    @initialize()
    def setup(self):
        self.tm = TrafficManager(TrafficManagerConfig(buffer_bytes=10_000))
        self.enqueued = {0: [], 1: [], 2: []}

    def _packet(self, size):
        class Fake:
            def __init__(self, n):
                self.buffer_len = n

        return Fake(size)

    @rule(port=st.integers(0, 2), size=st.integers(60, 1600))
    def offer(self, port, size):
        packet = self._packet(size)
        queue = self.tm.queue_for(port)
        fits = self.tm.used_bytes + size <= self.tm.config.buffer_bytes
        admitted = queue.offer(packet)
        assert admitted == fits  # drop-tail admits iff the pool has room
        if admitted:
            self.enqueued[port].append(size)

    @rule(port=st.integers(0, 2))
    def poll(self, port):
        queue = self.tm.queue_for(port)
        packet = queue.poll()
        if self.enqueued[port]:
            assert packet is not None
            assert packet.buffer_len == self.enqueued[port].pop(0)
        else:
            assert packet is None

    @invariant()
    def accounting_consistent(self):
        expected = sum(sum(sizes) for sizes in self.enqueued.values())
        assert self.tm.used_bytes == expected
        assert 0 <= self.tm.used_bytes <= self.tm.config.buffer_bytes
        for port, sizes in self.enqueued.items():
            queue = self.tm.queue_for(port)
            assert queue.depth_bytes == sum(sizes)
            assert len(queue) == len(sizes)


TestTrafficManagerModel = TrafficManagerMachine.TestCase
TestTrafficManagerModel.settings = settings(
    max_examples=30, stateful_step_count=50, deadline=None
)


class TestPsnWraparound:
    """Primitives must survive 24-bit PSN wraparound mid-stream."""

    def test_state_store_across_wrap(self):
        from repro.apps.programs import CountingProgram
        from repro.core.state_store import RemoteStateStore, StateStoreConfig
        from repro.testbed import build_testbed
        from repro.workloads.perftest import RawEthernetBw
        from repro.sim.units import gbps

        tb = build_testbed(n_hosts=2)
        program = CountingProgram()
        for host, port in zip(tb.hosts, tb.host_ports):
            program.install(host.eth.mac, port)
        tb.switch.bind_program(program)
        config = StateStoreConfig(counters=1 << 10)
        channel = tb.controller.open_channel(
            tb.memory_server, tb.server_port, (1 << 10) * 8
        )
        store = RemoteStateStore(tb.switch, channel, config=config)
        program.use_state_store(store)
        # Start 5 PSNs before the 24-bit wrap.
        start_psn = (1 << 24) - 5
        channel.switch_qp.next_psn = start_psn
        channel.server_qp.expected_psn = start_psn
        gen = RawEthernetBw(
            tb.sim, tb.hosts[0], tb.hosts[1],
            packet_size=256, rate_bps=gbps(10), count=50,
        )
        gen.start()
        tb.sim.run()
        packet = udp_between(tb.hosts[0], tb.hosts[1], 256)
        assert store.read_counter_via_control_plane(store.index_of(store.key_of(packet))) == 50
        assert tb.memory_server.rnic.metrics["sequence_errors"] == 0

    def test_packet_buffer_across_wrap(self):
        from tests.test_core_packet_buffer import blast, build

        tb, program, primitive, channel = build()
        start_psn = (1 << 24) - 3
        channel.switch_qp.next_psn = start_psn
        channel.server_qp.expected_psn = start_psn
        sink, _ = blast(tb, count=100)
        tb.sim.run()
        assert sink.packets == 200
        assert sink.out_of_order == 0
        assert tb.memory_server.rnic.metrics["sequence_errors"] == 0
