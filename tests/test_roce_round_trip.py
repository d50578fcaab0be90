"""The remote-operation round trip: region memory, stamping, ICRC, responder.

Five groups, one per mechanism of the budgeted round trip (DESIGN.md §5.1):

(i)   ``SparseBuffer`` against a flat ``bytearray`` — single-slice accesses,
      page-straddling ones and the in-place word add give the same bytes
      and hold the written sub-chunks, or the page once half is written;
(ii)  every builder against header-by-header assembly with the checked
      constructors (the reference of ``test_packet_model.py``, extended to
      explicit PSNs and every syndrome), caller-supplied fields still
      range-checked, a reconnect's QPNs in every later packet, no header
      shared between two stamped frames;
(iii) the one-pass ICRC against ``zlib.crc32`` of the joined bytes, and a
      flipped bit anywhere from BTH to payload still detected;
(iv)  the straight-line responder on ten scenarios, each pinned by a
      SHA-256 over its response bytes and emission times, its registry,
      its region bytes, its QP state and its end time;
(v)   a bounded, exactly repeatable number of Python calls per Fetch-and-Add
      round trip in the files of the three RoCE layers.
"""

import cProfile
import hashlib
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.programs import StaticL2Program
from repro.core.rocegen import RoceRequestGenerator
from repro.hosts.server import Host, MemoryServer
from repro.net.addresses import MacAddress
from repro.net.headers import HeaderError
from repro.net.link import connect
from repro.net.packet import Packet
from repro.rdma.constants import AethSyndrome, Opcode
from repro.rdma.headers import (
    AethHeader,
    AtomicAckEthHeader,
    AtomicEthHeader,
    BthHeader,
    IcrcTrailer,
    RethHeader,
    parse_roce,
)
from repro.rdma.memory import (
    AccessFlags,
    Dram,
    MemoryAccessError,
    SparseBuffer,
)
from repro.rdma.packets import (
    build_ack,
    build_atomic_ack,
    build_fetch_add_request,
    build_read_request,
    build_read_response,
    build_write_request,
    integrity_protected,
    verify_icrc,
)
from repro.rdma.qp import QpState, QueuePair
from repro.rdma.rnic import RnicConfig, TierProfile
from repro.rdma.verbs import connect_qps
from repro.sim.simulator import Simulator
from repro.sim.units import gbps
from repro.testbed import build_testbed

from .budgets import ROUND_TRIP_CALLS_PER_OP
from .test_packet_model import _qps, _reference_request, _reference_response, _same

# -- (i) SparseBuffer against a flat bytearray -------------------------------------------

LENGTH = 3 * 4096 + 100  # the last page is partial for both page sizes

_ops = st.one_of(
    st.tuples(st.just("write"), st.integers(-8, LENGTH + 8), st.binary(max_size=300)),
    st.tuples(st.just("read"), st.integers(-8, LENGTH + 8), st.integers(-2, 300)),
    st.tuples(st.just("add"), st.integers(-8, LENGTH + 8), st.integers(-(1 << 64), 1 << 65)),
)


def _sub_chunks(offset: int, size: int, page_size: int) -> set:
    sub = page_size // 16
    return set(range(offset // sub, (offset + size - 1) // sub + 1)) if size else set()


def _held(touched: set, page_size: int) -> int:
    """Promoted pages x page plus present sub-chunks x sub-chunk: a page is
    promoted once 8 of its 16 sub-chunks have been written."""
    per_page: dict = {}
    for chunk in touched:
        per_page[chunk // 16] = per_page.get(chunk // 16, 0) + 1
    sub = page_size // 16
    return sum(page_size if count >= 8 else count * sub for count in per_page.values())


@settings(max_examples=120, deadline=None)
@given(page_size=st.sampled_from([128, 4096]), ops=st.lists(_ops, max_size=25))
def test_sparse_buffer_matches_a_flat_bytearray(page_size, ops):
    buffer = SparseBuffer(LENGTH, page_size=page_size)
    flat = bytearray(LENGTH)
    touched: set = set()
    for kind, offset, arg in ops:
        size = len(arg) if kind == "write" else arg if kind == "read" else 8
        if offset < 0 or size < 0 or offset + size > LENGTH:
            with pytest.raises(MemoryAccessError):
                if kind == "write":
                    buffer.write(offset, arg)
                elif kind == "read":
                    buffer.read(offset, arg)
                else:
                    buffer.fetch_add(offset, arg)
            continue
        if kind == "write":
            buffer.write(offset, arg)
            flat[offset : offset + size] = arg
            touched |= _sub_chunks(offset, size, page_size)
        elif kind == "read":
            got = buffer.read(offset, size)
            assert type(got) is bytes and got == bytes(flat[offset : offset + size])
        else:
            before = int.from_bytes(flat[offset : offset + 8], "big")
            assert buffer.fetch_add(offset, arg) == before
            flat[offset : offset + 8] = ((before + arg) % (1 << 64)).to_bytes(8, "big")
            touched |= _sub_chunks(offset, 8, page_size)
    # Reads (untouched pages included) never make a sub-chunk resident.
    assert buffer.read(0, LENGTH) == bytes(flat)
    assert buffer.resident_bytes == _held(touched, page_size)


def test_rkeys_are_a_per_server_namespace():
    first, second = Dram(1 << 20), Dram(1 << 20)
    assert [first.register(64).rkey for _ in range(3)] == [0x1000, 0x1001, 0x1002]
    assert second.register(64).rkey == 0x1000
    # A released key is not handed out again on the same server.
    region = first.register(64)
    first.release(region)
    assert first.register(64).rkey == region.rkey + 1


def _first_request_on_the_wire():
    tb = build_testbed(n_hosts=1, seed=42)
    channel = tb.controller.open_channel(tb.memory_server, tb.server_port, 4096)
    wire = []
    tb.server_link.a.tx_taps.append(lambda packet: wire.append(packet.pack()))
    tb.server_link.b.tx_taps.append(lambda packet: wire.append(packet.pack()))
    with integrity_protected():
        RoceRequestGenerator(tb.switch, channel).write(channel.base_address, b"same")
        tb.sim.run()
    return wire[0]


def test_two_same_seed_testbeds_in_one_process_put_identical_bytes_on_the_wire():
    assert _first_request_on_the_wire() == _first_request_on_the_wire()


# -- (ii) stamping: every builder against the checked constructors ------------------------

NAKS = sorted(AethSyndrome.NAK_SYNDROMES)


@pytest.mark.parametrize("icrc", [False, True], ids=["icrc-off", "icrc-on"])
@pytest.mark.parametrize("explicit", [False, True], ids=["allocated-psn", "explicit-psn"])
def test_every_builder_equals_header_by_header_assembly(icrc, explicit):
    a, b = _qps()
    psn = (1 << 24) - 1 if explicit else None  # the last valid PSN
    data = bytes(range(200))

    def expected():
        return psn if explicit else a.next_psn

    want = expected()
    write = build_write_request(a, 0x2000, 0x99, data, psn=psn, compute_icrc=icrc)
    reth = RethHeader(virtual_address=0x2000, rkey=0x99, dma_length=len(data))
    _same(write, _reference_request(a, Opcode.RDMA_WRITE_ONLY, want, True, reth, data, icrc))

    want = expected()
    read = build_read_request(a, (1 << 64) - 1, (1 << 32) - 1, 65_487, psn=psn, compute_icrc=icrc)
    reth = RethHeader(virtual_address=(1 << 64) - 1, rkey=(1 << 32) - 1, dma_length=65_487)
    _same(read, _reference_request(a, Opcode.RDMA_READ_REQUEST, want, False, reth, b"", icrc))

    want = expected()
    faa = build_fetch_add_request(a, 0x4008, 0x97, (1 << 64) - 1, psn=psn, compute_icrc=icrc)
    atomic = AtomicEthHeader(virtual_address=0x4008, rkey=0x97, swap_add=(1 << 64) - 1)
    _same(faa, _reference_request(a, Opcode.FETCH_ADD, want, False, atomic, b"", icrc))
    assert a.next_psn == (100 if explicit else 103)

    ack = AethHeader(syndrome=AethSyndrome.ACK, msn=77)
    for override in (None, 0, (1 << 24) - 1):
        _same(
            build_read_response(read, b, data, compute_icrc=icrc, psn_override=override),
            _reference_response(
                read, b, Opcode.RDMA_READ_RESPONSE_ONLY, override, [ack], data, icrc
            ),
        )
        _same(
            build_atomic_ack(faa, b, (1 << 64) - 1, compute_icrc=icrc, psn_override=override),
            _reference_response(
                faa, b, Opcode.ATOMIC_ACKNOWLEDGE, override,
                [ack, AtomicAckEthHeader(original_data=(1 << 64) - 1)], b"", icrc,
            ),
        )
    for syndrome in [AethSyndrome.ACK] + NAKS:
        for override in (None, 0, (1 << 24) - 1):
            aeth = AethHeader(syndrome=syndrome, msn=77)
            _same(
                build_ack(write, b, syndrome=syndrome, psn_override=override, compute_icrc=icrc),
                _reference_response(write, b, Opcode.ACKNOWLEDGE, override, [aeth], b"", icrc),
            )


def _stamper(shape):
    """A builder stamping one QP's frames of *shape*, and the frame's
    header-by-header reference."""
    a, b = _qps()
    data = bytes(range(64))

    def reth():
        return RethHeader(virtual_address=0x2000, rkey=0x99, dma_length=len(data))

    read = build_read_request(a, 0x2000, 0x99, len(data), psn=5)
    faa = build_fetch_add_request(a, 0x4008, 0x97, 3, psn=6)
    write = build_write_request(a, 0x2000, 0x99, data, psn=4)

    def aeth():
        return AethHeader(syndrome=AethSyndrome.ACK, msn=77)

    return {
        "write": (
            lambda: build_write_request(a, 0x2000, 0x99, data, psn=4),
            lambda: _reference_request(a, Opcode.RDMA_WRITE_ONLY, 4, True, reth(), data, False),
        ),
        "read": (
            lambda: build_read_request(a, 0x2000, 0x99, len(data), psn=5),
            lambda: _reference_request(a, Opcode.RDMA_READ_REQUEST, 5, False, reth(), b"", False),
        ),
        "fetch_add": (
            lambda: build_fetch_add_request(a, 0x4008, 0x97, 3, psn=6),
            lambda: _reference_request(
                a, Opcode.FETCH_ADD, 6, False,
                AtomicEthHeader(virtual_address=0x4008, rkey=0x97, swap_add=3), b"", False,
            ),
        ),
        "read_response": (
            lambda: build_read_response(read, b, data),
            lambda: _reference_response(
                read, b, Opcode.RDMA_READ_RESPONSE_ONLY, None, [aeth()], data, False
            ),
        ),
        "ack": (
            lambda: build_ack(write, b),
            lambda: _reference_response(write, b, Opcode.ACKNOWLEDGE, None, [aeth()], b"", False),
        ),
        "atomic_ack": (
            lambda: build_atomic_ack(faa, b, 41),
            lambda: _reference_response(
                faa, b, Opcode.ATOMIC_ACKNOWLEDGE, None,
                [aeth(), AtomicAckEthHeader(original_data=41)], b"", False,
            ),
        ),
    }[shape]


@pytest.mark.parametrize(
    "shape", ["write", "read", "fetch_add", "read_response", "ack", "atomic_ack"]
)
def test_stamped_frames_share_no_header(shape):
    """Each stamped frame owns its Eth/IPv4/UDP headers: the TM's ECN mark
    and the layout packer's length fields write into them in place."""
    stamp, reference = _stamper(shape)
    first, second = stamp(), stamp()
    first.ipv4.ecn = 3
    first.ipv4.ttl = 1
    first.eth.dst = MacAddress(0xFFFFFFFFFFFF)
    first.udp.src_port = 7
    assert (first.ipv4.ecn, first.ipv4.ttl, first.udp.src_port) == (3, 1, 7)
    _same(second, reference())


def test_bytearray_and_memoryview_payloads_become_bytes_and_bytes_are_not_copied():
    a, b = _qps()
    data = b"frame-bytes" * 9
    assert build_write_request(a, 0, 1, data).payload is data
    request = build_read_request(a, 0, 1, len(data))
    assert build_read_response(request, b, data).payload is data
    for wrap in (bytearray, memoryview):
        built = build_write_request(a, 0, 1, wrap(data))
        assert type(built.payload) is bytes and built.payload == data


@pytest.mark.parametrize(
    "build",
    [
        lambda a, b: build_write_request(a, 1 << 64, 1, b"x"),
        lambda a, b: build_write_request(a, -1, 1, b"x"),
        lambda a, b: build_write_request(a, 0, 1 << 32, b"x"),
        lambda a, b: build_write_request(a, 0, 1, b"x", psn=1 << 24),
        lambda a, b: build_write_request(a, 0, 1, b"x", psn=-1),
        lambda a, b: build_write_request(a, 0, 1, bytes(65_476)),  # one byte too many
        lambda a, b: build_read_request(a, 0, -1, 8),
        lambda a, b: build_read_request(a, 0, 1, 1 << 32),
        lambda a, b: build_read_request(a, 0, 1, 8, psn=1 << 24),
        lambda a, b: build_fetch_add_request(a, 0, 1, 1 << 64),
        lambda a, b: build_fetch_add_request(a, 0, 1, -1),
        lambda a, b: build_fetch_add_request(a, 0, 1, 1, psn=1 << 24),
        lambda a, b: build_ack(build_read_request(a, 0, 1, 8), b, syndrome=256),
        lambda a, b: build_ack(build_read_request(a, 0, 1, 8), b, psn_override=1 << 24),
        lambda a, b: build_atomic_ack(build_fetch_add_request(a, 0, 1, 1), b, 1 << 64),
        lambda a, b: build_read_response(build_read_request(a, 0, 1, 8), b, bytes(65_488)),
    ],
)
def test_out_of_range_caller_fields_still_raise_header_error(build):
    with pytest.raises(HeaderError):
        build(*_qps())


def test_a_peer_qpn_that_cannot_go_in_a_bth_is_refused_at_connect():
    qp = QueuePair(0x11, "10.0.0.1", 1)
    with pytest.raises(HeaderError):
        qp.connect(1 << 24, "10.0.0.2", 2)
    assert qp.dest_qpn is None and not qp.is_connected


def test_an_errored_or_unconnected_qp_cannot_issue_requests():
    a, _ = _qps()
    a.to_error()
    with pytest.raises(RuntimeError, match="not connected"):
        build_fetch_add_request(a, 0, 1, 1)
    with pytest.raises(RuntimeError, match="not connected"):
        build_read_request(QueuePair(0x33, "10.0.0.3", 3), 0, 1, 8)


def test_packets_stamped_after_a_reconnect_carry_the_new_queue_pair_numbers():
    tb = build_testbed(n_hosts=1)
    channel = tb.controller.open_channel(tb.memory_server, tb.server_port, 4096)
    gen = RoceRequestGenerator(tb.switch, channel)
    old_server_qpn, old_switch_qpn = channel.server_qp.qpn, channel.switch_qp.qpn
    before = gen.fetch_add(channel.base_address, 1)
    assert before.require(BthHeader).dest_qp == old_server_qpn
    tb.controller.reconnect_channel(channel)
    assert channel.server_qp.qpn != old_server_qpn
    after = gen.fetch_add(channel.base_address, 1)
    assert after.require(BthHeader).dest_qp == channel.server_qp.qpn
    assert after.require(BthHeader).psn == 0  # fresh PSN state too
    response = build_atomic_ack(after, channel.server_qp, 5)
    assert response.require(BthHeader).dest_qp == channel.switch_qp.qpn != old_switch_qpn
    # A QP connected a second time (RESET → RTS) stamps its new peer too.
    qp = channel.switch_qp
    qp.state = QpState.RESET
    qp.connect(0x777, channel.server_qp.local_ip, channel.server_qp.local_mac)
    assert build_read_request(qp, channel.base_address, 1, 8).require(BthHeader).dest_qp == 0x777


# -- (iii) the one-pass ICRC ---------------------------------------------------------------


def _protected_samples():
    a, b = _qps()
    write = build_write_request(a, 0x2000, 0x99, b"payload-bytes" * 3, compute_icrc=True)
    read = build_read_request(a, 0x3000, 0x98, 64, compute_icrc=True)
    faa = build_fetch_add_request(a, 0x4008, 0x97, 3, compute_icrc=True)
    return [
        write,
        read,
        faa,
        build_read_response(read, b, b"\x00" * 64, compute_icrc=True),
        build_ack(write, b, syndrome=AethSyndrome.NAK_REMOTE_ACCESS_ERROR, compute_icrc=True),
        build_atomic_ack(faa, b, 41, compute_icrc=True),
    ]


def _roce_bytes(packet: Packet) -> bytes:
    roce = packet.headers[packet.index_of(BthHeader) :]
    return b"".join(header.pack() for header in roce) + packet.payload


def test_one_pass_icrc_equals_crc32_of_the_joined_bytes():
    for packet in _protected_samples():
        (trailer,) = packet.trailers
        assert trailer.value == zlib.crc32(_roce_bytes(packet)) != 0
        assert trailer == IcrcTrailer.compute(_roce_bytes(packet))
        assert verify_icrc(packet)


def test_a_flipped_bit_anywhere_from_bth_to_payload_fails_verification():
    checked = bits = 0
    for packet in _protected_samples():
        intact = _roce_bytes(packet)
        bits += len(intact) * 8
        outer = packet.headers[: packet.index_of(BthHeader)]
        for bit in range(len(intact) * 8):
            damaged = bytearray(intact)
            damaged[bit // 8] ^= 1 << (bit % 8)
            try:
                headers, payload, _ = parse_roce(bytes(damaged) + packet.trailers[0].pack())
            except HeaderError:
                continue  # an opcode whose extensions no longer fit
            received = Packet(outer + headers, payload, packet.trailers)
            if _roce_bytes(received) != bytes(damaged):
                continue  # a reserved bit: the structured model does not carry it
            assert not verify_icrc(received), f"bit {bit} of {packet!r} went unnoticed"
            checked += 1
    assert checked > 0.9 * bits  # all but the reserved bits and the opcode's


def test_unprotected_packets_verify_and_carry_a_zero_trailer():
    a, _ = _qps()
    packet = build_write_request(a, 0, 1, b"abc")
    assert packet.trailers[0].value == 0 and verify_icrc(packet)
    with integrity_protected():
        assert build_write_request(a, 0, 1, b"abc").trailers[0].value != 0


# -- (iv) the straight-line responder against its golden pins ------------------------------


class Responder:
    """One server RNIC fed hand-built requests at set times."""

    def __init__(self, config: RnicConfig) -> None:
        self.sim = Simulator()
        client = Host(self.sim, "client", "02:00:00:00:00:01", "10.0.0.1")
        self.server = MemoryServer(
            self.sim, "server", "02:00:00:00:00:02", "10.0.0.2", rnic_config=config
        )
        connect(self.sim, client.eth, self.server.eth, rate_bps=gbps(40))
        self.rnic = self.server.rnic
        self.requester = QueuePair(0x100, client.eth.ip, client.eth.mac)
        self.qp = self.rnic.create_qp()
        connect_qps(self.requester, self.qp)
        self.region = self.server.lend_memory(1 << 16)
        self.fast = self.server.lend_memory(4096, tier="fast")
        self.read_only = self.server.lend_memory(4096, access=AccessFlags.REMOTE_READ)
        self.responses = []
        self.server.eth.tx_taps.append(
            lambda packet: self.responses.append((self.sim.now, packet.pack()))
        )

    def at(self, time_ns: float, packet: Packet) -> None:
        # Resolved on the instance when it fires, as the host does.
        self.sim.schedule_at(time_ns, lambda: self.rnic.handle_packet(packet))

    def outcome(self):
        self.sim.run()
        memory = [
            region.read(region.base_address, region.length)
            for region in (self.region, self.fast)
        ]
        qp_state = (self.qp.expected_psn, self.qp.msn, self.qp.responses_sent, self.qp.naks_sent)
        return (
            self.responses, self.sim.obs.registry.snapshot(), memory, qp_state,
            self.sim.now, self.rnic._rx_backlog_bytes,
        )


def in_order(r: Responder):
    base, rkey, q = r.region.base_address, r.region.rkey, r.requester
    r.at(0, build_write_request(q, base, rkey, b"first" * 40))
    r.at(0, build_write_request(q, base + 4090, rkey, bytes(range(64)), ack_request=False))
    r.at(0, build_read_request(q, base + 4000, rkey, 300))  # straddles two pages
    r.at(0, build_fetch_add_request(q, base + 8, rkey, 5))
    r.at(0, build_fetch_add_request(q, base + 8, rkey, (1 << 64) - 2))
    r.at(50, build_read_request(q, base, rkey, 0))
    r.at(9_000, build_read_request(q, base + 8, rkey, 8))
    r.at(9_000, build_write_request(q, base, rkey, b""))
    r.at(20_000, build_fetch_add_request(q, r.fast.base_address, r.fast.rkey, 1))
    r.at(20_000, build_read_request(q, r.fast.base_address, r.fast.rkey, 8))


def psn_gap(r: Responder):
    base, rkey, q = r.region.base_address, r.region.rkey, r.requester
    r.at(0, build_write_request(q, base, rkey, b"zero", psn=0))
    r.at(10, build_write_request(q, base, rkey, b"five", psn=5))
    r.at(20, build_fetch_add_request(q, base + 8, rkey, 1, psn=6))
    r.at(5_000, build_read_request(q, base, rkey, 4, psn=1))
    r.at(5_000, build_write_request(q, base, rkey, b"wrap", psn=(1 << 23)))  # a "past" PSN


def duplicates(r: Responder):
    base, rkey, q = r.region.base_address, r.region.rkey, r.requester
    r.at(0, build_write_request(q, base, rkey, b"acked", psn=0))
    r.at(0, build_write_request(q, base + 64, rkey, b"silent", psn=1, ack_request=False))
    r.at(0, build_read_request(q, base, rkey, 5, psn=2))
    r.at(0, build_fetch_add_request(q, base + 8, rkey, 7, psn=3))
    r.at(0, build_read_request(q, r.read_only.base_address, r.read_only.rkey, 8, psn=4))
    for late in (6_000, 6_100):
        r.at(late, build_write_request(q, base, rkey, b"again", psn=0))
        r.at(late, build_write_request(q, base + 64, rkey, b"again!", psn=1, ack_request=False))
        r.at(late, build_read_request(q, base, rkey, 5, psn=2))
        r.at(late, build_fetch_add_request(q, base + 8, rkey, 7, psn=3))
    r.sim.schedule_at(7_000, r.read_only.deregister)
    r.at(8_000, build_read_request(q, r.read_only.base_address, r.read_only.rkey, 8, psn=4))
    r.at(8_000, build_read_request(q, base, 0xBAD, 8, psn=4))
    # Seventeen more atomics push PSN 3 out of the sixteen-deep replay cache.
    for i in range(17):
        r.at(10_000 + 500 * i, build_fetch_add_request(q, base + 16, rkey, 1, psn=5 + i))
    r.at(30_000, build_fetch_add_request(q, base + 8, rkey, 7, psn=3))
    r.at(30_000, build_fetch_add_request(q, base + 16, rkey, 1, psn=21))


def access_errors(r: Responder):
    region, q = r.region, r.requester
    base, rkey, end = region.base_address, region.rkey, region.end_address
    r.at(0, build_write_request(q, base, 0xBAD, b"x"))
    r.at(0, build_read_request(q, base, 0xBAD, 8))
    r.at(0, build_fetch_add_request(q, base, 0xBAD, 1))
    r.at(0, build_write_request(q, end - 2, rkey, b"xyz"))
    r.at(0, build_read_request(q, base - 1, rkey, 8))
    r.at(0, build_fetch_add_request(q, end, rkey, 1))
    r.at(0, build_fetch_add_request(q, base + 4, rkey, 1))  # misaligned
    r.at(0, build_write_request(q, r.read_only.base_address, r.read_only.rkey, b"no"))
    r.at(0, build_fetch_add_request(q, r.read_only.base_address, r.read_only.rkey, 1))
    r.at(0, build_write_request(q, base, rkey, b"still-in-sequence"))


def atomic_overflow(r: Responder):
    base, rkey, q = r.region.base_address, r.region.rkey, r.requester
    for i in range(40):  # sixteen fit the engine; the rest are dropped, then NAKed
        r.at(0, build_fetch_add_request(q, base + 8 * (i % 4), rkey, 1))
    r.at(0, build_fetch_add_request(q, base, 0xBAD, 1))  # saturated: dropped, not NAKed


def unknown_and_errored_qp(r: Responder):
    base, rkey, q = r.region.base_address, r.region.rkey, r.requester
    stranger = QueuePair(0x200, q.local_ip, q.local_mac)
    stranger.connect(0x999, r.qp.local_ip, r.qp.local_mac)
    r.at(0, build_write_request(stranger, base, rkey, b"who?"))
    idle = r.rnic.create_qp()  # INIT: never connected
    stranger2 = QueuePair(0x201, q.local_ip, q.local_mac)
    stranger2.connect(idle.qpn, r.qp.local_ip, r.qp.local_mac)
    r.at(0, build_read_request(stranger2, base, rkey, 8))
    r.at(0, build_write_request(q, base, rkey, b"served"))
    r.at(100, build_write_request(q, base, rkey, b"in the pipe when the QP dies"))
    r.sim.schedule_at(200, r.qp.to_error)
    r.at(1_000, build_fetch_add_request(q, base, rkey, 1))
    r.sim.schedule_at(2_000, lambda: r.rnic.destroy_qp(r.qp))
    r.at(3_000, build_fetch_add_request(q, base, rkey, 1))


def rx_overflow(r: Responder):
    base, rkey, q = r.region.base_address, r.region.rkey, r.requester
    for i in range(12):  # 4 KiB of buffer holds two 1500 B writes
        r.at(0, build_write_request(q, base + 2048 * i, rkey, bytes([i]) * 1500))
    # Executed at 300 ns, the first write holds its buffer until its DMA
    # finishes at 653 ns: a third write arriving between the two is dropped.
    r.at(400, build_write_request(q, base + 2048 * 12, rkey, b"\xff" * 1500, psn=2))
    for i in range(3):
        r.at(50_000, build_read_request(q, base + 2048 * i, rkey, 1500, psn=i))


def bad_icrc(r: Responder):
    base, rkey, q = r.region.base_address, r.region.rkey, r.requester
    good = build_write_request(q, base, rkey, b"intact", compute_icrc=True)
    bad = build_write_request(q, base + 64, rkey, b"damaged", compute_icrc=True)
    bad.payload = b"dAmaged"
    flipped = build_fetch_add_request(q, base + 8, rkey, 1, compute_icrc=True)
    flipped.require(AtomicEthHeader).swap_add = 3
    r.at(0, good)
    r.at(0, bad)
    r.at(0, flipped)
    with integrity_protected():  # the responses of protected requests are unprotected
        r.at(100, build_read_request(q, base, rkey, 6, psn=1))


#: (scenario, config, pin): each pin was read while the responder still
#: agreed with a transcription of the accept/serve/process/execute helper
#: chain it replaced, on response bytes, emission times and the whole
#: registry.  A change that moves one on purpose re-reads it and says why
#: in CHANGES.md.
SCENARIOS = [
    (in_order, {}, "d3445cfc9f05afd4b31ad903738fd868530ccbc9d66bd9b48c1c17e578b8621c"),
    (
        in_order,
        {"tier_profiles": {"fast": TierProfile(read_latency_ns=40.0, atomic_rate_ops=2e7)}},
        "5182fa618ba40231b7b237ea0a9658313d81fad1dfd90c71ed56812901ea64a3",
    ),
    # A zero-byte DMA finishes "now".
    (in_order, {"dma_per_message_ns": 0.0}, "e462e96e145a6b89af3dec1102046752dc201bfef6947ab8498551aee5524645"),
    (psn_gap, {}, "6c7ef1f9e602f372c46be7aa4c76f5ddfd45a735b2923b650055680de74a270a"),
    (duplicates, {}, "b9249669bed3d7fed4b8ab520fe7430af02ab8337884bf5193afa704f10e25df"),
    (access_errors, {}, "94b18660b82d7322f6909374a2e0c3c2d7e67173b7f31a01f085940343b7432f"),
    (atomic_overflow, {}, "d9ea16d2841a9d01e6dfd3da306ceaa6d83a542c9ba320f440e6bba39e90cdab"),
    (unknown_and_errored_qp, {}, "554aa2b11da243f103b07cbb6c02de0af2ae70fd9989cdf71ad5862aeba30316"),
    (rx_overflow, {"rx_buffer_bytes": 4096}, "dc06a892eb6733b9e401c4d73d97447c93ab507cafb4aa78c644792516e609da"),
    (bad_icrc, {}, "6788da606d0e2d60084fbebde58921cc9fbbffbdee1fdd0f75c0c357a3981f11"),
]


@pytest.mark.parametrize(
    "scenario, config, pin", SCENARIOS, ids=[f"{s.__name__}-{i}" for i, (s, _, _) in enumerate(SCENARIOS)]
)
def test_straight_line_responder_matches_its_pin(scenario, config, pin):
    responder = Responder(RnicConfig(**config))
    scenario(responder)
    responses, registry, memory, qp_state, now, backlog = responder.outcome()
    blob = repr((responses, sorted(registry.items()), memory, qp_state, now))
    assert hashlib.sha256(blob.encode()).hexdigest() == pin, (
        "response bytes, emission times, registry, region bytes, QP state or end time moved"
    )
    received = [v for k, v in registry.items() if k.endswith("rnic].requests_received")]
    assert sum(received) >= 2, "the scenario did not reach the responder"
    assert backlog == 0, "receive-buffer bytes leaked"


def _one_request(build, config=None):
    """Feed one request to a fresh responder; returns it after the run."""
    responder = Responder(config or RnicConfig())
    responder.at(0, build(responder))
    responder.sim.run()
    return responder


def _syndromes(responder):
    found = []
    for _, raw in responder.responses:
        headers, _, _ = parse_roce(raw[42:])
        found.append(headers[1].syndrome)
    return found


def test_a_read_for_more_than_one_packet_is_refused_before_executing():
    r = _one_request(
        lambda r: build_read_request(r.requester, r.region.base_address, r.region.rkey, 65_488)
    )
    metrics = r.rnic.metrics
    assert _syndromes(r) == [AethSyndrome.NAK_INVALID_REQUEST]
    assert (metrics["reads_executed"], metrics["bytes_read"], metrics["naks_sent"]) == (0, 0, 1)
    assert r.region.reads == 0 and r.qp.expected_psn == 0 and r.rnic._rx_backlog_bytes == 0
    # The largest READ that fits is served.
    r = _one_request(
        lambda r: build_read_request(r.requester, r.region.base_address, r.region.rkey, 65_487)
    )
    assert r.rnic.metrics["bytes_read"] == 65_487 and len(r.responses[0][1]) == 14 + 65_535


def test_a_replayed_oversize_read_is_refused_too():
    r = Responder(RnicConfig())
    base, rkey = r.region.base_address, r.region.rkey
    r.at(0, build_write_request(r.requester, base, rkey, b"x", psn=0))
    r.at(5_000, build_read_request(r.requester, base, rkey, 100_000, psn=(1 << 24) - 1))
    r.sim.run()
    assert _syndromes(r) == [AethSyndrome.ACK, AethSyndrome.NAK_INVALID_REQUEST]


def test_the_request_generator_rejects_an_oversize_read_at_issue_time():
    tb = build_testbed(n_hosts=1)
    tb.switch.bind_program(StaticL2Program())
    channel = tb.controller.open_channel(tb.memory_server, tb.server_port, 1 << 20)
    gen = RoceRequestGenerator(tb.switch, channel)
    with pytest.raises(ValueError, match="65487"):
        gen.read(channel.base_address, 100_000)
    assert gen.metrics["reads_issued"] == 0 and channel.switch_qp.next_psn == 0
    gen.read(channel.base_address, 65_487)
    tb.sim.run()  # the full-size response crosses the link without raising
    assert tb.memory_server.rnic.metrics["bytes_read"] == 65_487


@pytest.mark.parametrize("dma_length", [4096, 8, 0], ids=["longer", "shorter", "zero"])
def test_a_write_whose_reth_length_is_not_its_payload_length_is_naked(dma_length):
    def build(r):
        request = build_write_request(r.requester, r.region.base_address, r.region.rkey, b"p" * 64)
        request.require(RethHeader).dma_length = dma_length
        return request

    r = _one_request(build)
    metrics = r.rnic.metrics
    assert _syndromes(r) == [AethSyndrome.NAK_INVALID_REQUEST]
    assert (metrics["writes_executed"], metrics["bytes_written"], metrics["naks_sent"]) == (0, 0, 1)
    assert r.region.writes == 0 and r.region.resident_bytes == 0
    assert r.qp.expected_psn == 0 and r.rnic._rx_backlog_bytes == 0


def test_an_unsupported_request_opcode_is_one_nak():
    def build(r):
        request = build_fetch_add_request(r.requester, r.region.base_address, r.region.rkey, 1)
        request.require(BthHeader).opcode = int(Opcode.COMPARE_SWAP)
        return request

    r = _one_request(build)
    assert _syndromes(r) == [AethSyndrome.NAK_INVALID_REQUEST]
    assert r.rnic.metrics["naks_sent"] == 1 and r.rnic.metrics["atomics_executed"] == 0


# -- (v) a bounded, exactly repeatable number of calls per round trip ----------------------

ROUND_TRIP_FILES = ("/core/rocegen.py", "/core/channel.py")


class _AtomicSink(StaticL2Program):
    """Consumes the channel's responses the way the primitives do."""

    acks = 0

    def on_response(self, ctx, packet, opcode, is_nak, context):
        if opcode is Opcode.ATOMIC_ACKNOWLEDGE:
            self.acks += not is_nak


def _round_trip_calls(operations: int) -> int:
    tb = build_testbed(n_hosts=1, seed=1)
    program = _AtomicSink()
    tb.switch.bind_program(program)
    channel = tb.controller.open_channel(tb.memory_server, tb.server_port, 4096)
    gen = RoceRequestGenerator(tb.switch, channel, on_response=program.on_response)
    for i in range(operations):  # paced under the 2.4 Mops atomic engine
        tb.sim.schedule_at(1_000.0 * i, gen.fetch_add, channel.base_address + 8 * (i % 64), 1)
    profiler = cProfile.Profile()
    profiler.enable()
    tb.sim.run()
    profiler.disable()
    assert program.acks == operations == tb.memory_server.rnic.metrics["atomics_executed"]
    return sum(
        entry.callcount
        for entry in profiler.getstats()
        if "/rdma/" in getattr(entry.code, "co_filename", "")
        or getattr(entry.code, "co_filename", "").endswith(ROUND_TRIP_FILES)
    )


def test_a_fetch_add_round_trip_costs_a_bounded_number_of_calls():
    operations = 200
    calls = _round_trip_calls(operations)
    assert calls == _round_trip_calls(operations), "the count must repeat exactly"
    # Per round trip: 2 to issue (fetch_add, transmit), 4 to stamp the request
    # (builder, AtomicETH check, request, stamp), 9 in the responder (entry,
    # ICRC check, process, execute, three in memory, emit, retire), 3 to stamp
    # the response (builder, response, stamp) and 2 back at the switch (the
    # one-pass accept, ICRC check): 20.  It was 22 with the ePSN advance and
    # the checked AtomicAckETH constructor as calls, 56 with the helper
    # chains; the bench bound of 22 adds the tiering moves' READs and WRITEs.
    assert 0 < calls <= ROUND_TRIP_CALLS_PER_OP * operations, (
        f"{calls / operations:.1f} calls per round trip"
    )
