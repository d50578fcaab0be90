"""Invariants of the fixed-layout packet model.

* sizes are adjusted, never re-summed — so a stateful test re-sums them
  after arbitrary stack/payload/trailer edits and compares;
* ``find`` is answered from a per-shape type index — so it is compared
  with the linear ``isinstance`` scan it replaced, subclasses included;
* ``pack()`` serialises the current field values of every header class —
  the property ICRC / guard-CRC corruption detection relies on;
* RoCE packets stamped from the outer-header template are byte-equal to
  packets assembled header by header, the way the builders used to;
* an out-of-range length or field raises ``HeaderError``, never
  ``struct.error`` from inside the codec;
* forwarding a frame costs a bounded, exactly repeatable number of calls
  into the packet model.
"""

import cProfile
import inspect
import struct

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

import repro.linkguard.shim as shim_module
import repro.net.headers as net_headers
import repro.rdma.headers as rdma_headers
from repro.api import OpenLoopZipfTraffic, StaticL2Program, build_testbed
from repro.linkguard.shim import GUARD_NAK, GuardShimHeader
from repro.net.addresses import Ipv4Address, MacAddress
from repro.net.headers import (
    ROCEV2_UDP_PORT,
    EthernetHeader,
    Header,
    HeaderError,
    Ipv4Header,
    UdpHeader,
)
from repro.net.packet import Packet
from repro.rdma.constants import AethSyndrome, Opcode
from repro.rdma.headers import (
    AethHeader,
    AtomicAckEthHeader,
    AtomicEthHeader,
    BthHeader,
    GrhHeader,
    IcrcTrailer,
    RethHeader,
)
from repro.rdma.packets import (
    build_ack,
    build_atomic_ack,
    build_fetch_add_request,
    build_read_request,
    build_read_response,
    build_write_request,
    verify_icrc,
)
from repro.rdma.qp import QueuePair
from repro.workloads.factory import stamp_ports, udp_between

from .budgets import MODEL_CALLS_PER_FRAME


class TaggedUdpHeader(UdpHeader):
    """A subclass, to pin ``find``'s isinstance semantics."""

    __slots__ = ()


def _eth():
    return EthernetHeader(dst=MacAddress(2), src=MacAddress(1))


def _ip():
    return Ipv4Header(src=Ipv4Address("10.0.0.1"), dst=Ipv4Address("10.0.0.2"))


HEADER_FACTORIES = [
    _eth,
    _ip,
    lambda: UdpHeader(src_port=1, dst_port=2),
    lambda: TaggedUdpHeader(src_port=3, dst_port=4),
    lambda: BthHeader(opcode=Opcode.ACKNOWLEDGE, dest_qp=5, psn=6),
    lambda: RethHeader(virtual_address=0x1000, rkey=7, dma_length=8),
    lambda: GuardShimHeader(seq=9),
]
FIND_TYPES = [
    Header,
    EthernetHeader,
    Ipv4Header,
    UdpHeader,
    TaggedUdpHeader,
    BthHeader,
    RethHeader,
    AethHeader,
    GuardShimHeader,
]
header_factories = st.sampled_from(HEADER_FACTORIES)


# -- (a) sizes and the type index under arbitrary edits ----------------------------------


class PacketMachine(RuleBasedStateMachine):
    """After any edit sequence the adjusted sizes equal the re-summed ones
    and ``find`` agrees with a linear isinstance scan."""

    @initialize(
        headers=st.lists(header_factories, max_size=4),
        payload=st.binary(max_size=80),
        icrc=st.booleans(),
    )
    def setup(self, headers, payload, icrc):
        self.packet = Packet(
            headers=[make() for make in headers],
            payload=payload,
            trailers=[IcrcTrailer()] if icrc else None,
        )

    @rule(make=header_factories)
    def push(self, make):
        header = make()
        assert self.packet.push(header) is self.packet
        assert self.packet.headers[0] is header

    @rule(make=header_factories)
    def append(self, make):
        header = make()
        self.packet.append(header)
        assert self.packet.headers[-1] is header

    @rule(make=header_factories, index=st.integers(0, 6))
    def insert(self, make, index):
        before = self.packet.headers
        header = make()
        self.packet.insert(index, header)
        expected = list(before)
        expected.insert(index, header)
        assert self.packet.headers == tuple(expected)

    @rule()
    def pop(self):
        before = self.packet.headers
        if not before:
            with pytest.raises(HeaderError):
                self.packet.pop()
            return
        assert self.packet.pop() is before[0]
        assert self.packet.headers == before[1:]

    @rule(index=st.integers(0, 6))
    def remove(self, index):
        before = self.packet.headers
        if index >= len(before):
            with pytest.raises(HeaderError):
                self.packet.remove(index)
            return
        assert self.packet.remove(index) is before[index]
        assert self.packet.headers == before[:index] + before[index + 1 :]

    @rule(count=st.integers(0, 2))
    def replace_trailers(self, count):
        self.packet.set_trailers([IcrcTrailer(value=i) for i in range(count)])
        assert len(self.packet.trailers) == count

    @rule(payload=st.one_of(st.binary(max_size=120), st.builds(bytearray, st.binary(max_size=8))))
    def set_payload(self, payload):
        self.packet.payload = payload
        assert self.packet.payload == bytes(payload)
        assert type(self.packet.payload) is bytes

    @rule()
    def clone_keeps_everything(self):
        twin = self.packet.clone()
        assert twin.headers == self.packet.headers
        assert twin.trailers == self.packet.trailers
        sizes = (self.packet.buffer_len, self.packet.frame_len, self.packet.wire_len)
        assert (twin.buffer_len, twin.frame_len, twin.wire_len) == sizes
        assert twin.pack() == self.packet.pack()
        self.packet = twin  # later edits run on the clone's copied layout

    @invariant()
    def sizes_equal_a_fresh_sum(self):
        packet = self.packet
        summed = (
            sum(h.byte_len for h in packet.headers)
            + len(packet.payload)
            + sum(t.byte_len for t in packet.trailers)
        )
        assert packet.buffer_len == summed
        assert packet.header_len == sum(h.byte_len for h in packet.headers)
        assert packet.frame_len == max(packet.buffer_len + 4, 64)
        assert packet.wire_len == packet.frame_len + 20
        assert len(packet.pack()) == packet.buffer_len

    @invariant()
    def find_agrees_with_a_linear_scan(self):
        packet = self.packet
        for header_type in FIND_TYPES:
            scanned = next(
                (h for h in packet.headers if isinstance(h, header_type)), None
            )
            assert packet.find(header_type) is scanned
            if scanned is None:
                with pytest.raises(HeaderError):
                    packet.require(header_type)
                with pytest.raises(HeaderError):
                    packet.index_of(header_type)
            else:
                assert packet.require(header_type) is scanned
                assert packet.headers[packet.index_of(header_type)] is scanned

    @invariant()
    def pack_keeps_the_length_fields_consistent(self):
        packet = self.packet
        packet.pack()
        after = packet.buffer_len
        for header in packet.headers:
            if isinstance(header, Ipv4Header):
                assert header.total_length == after
            elif isinstance(header, UdpHeader):
                assert header.length == after
            after -= header.byte_len


TestPacketModel = PacketMachine.TestCase
TestPacketModel.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)


def test_the_exposed_stacks_cannot_be_edited_in_place():
    packet = udp_between_plain()
    with pytest.raises(AttributeError):
        packet.headers.append(_eth())
    with pytest.raises(TypeError):
        packet.headers[0] = _eth()
    with pytest.raises(AttributeError):
        packet.headers = [_eth()]
    with pytest.raises(AttributeError):
        packet.trailers = [IcrcTrailer()]
    with pytest.raises(AttributeError):
        packet.no_such_slot = 1
    assert packet.buffer_len == 42 + 10


def udp_between_plain(payload=b"x" * 10):
    return Packet(
        headers=[_eth(), _ip(), UdpHeader(src_port=1234, dst_port=5678)],
        payload=payload,
    )


# -- (b) every header class: round trip, and pack() follows every field --------------------

GID_A = bytes(range(16))
GID_B = bytes(range(16, 32))

#: One valid instance per header class, and for every field a second
#: valid value that must show up in the packed bytes.
SAMPLES = {
    EthernetHeader: (
        lambda: EthernetHeader(dst=MacAddress(2), src=MacAddress(1), ethertype=0x0800),
        {"dst": MacAddress(0xA), "src": MacAddress(0xB), "ethertype": 0x8915},
    ),
    Ipv4Header: (
        _ip,
        {
            "src": Ipv4Address("192.168.0.1"),
            "dst": Ipv4Address("192.168.0.2"),
            "protocol": 6,
            "total_length": 99,
            "ttl": 9,
            "dscp": 11,
            "ecn": 1,
            "identification": 0x1234,
            "flags": 0,
            "fragment_offset": 100,
        },
    ),
    UdpHeader: (
        lambda: UdpHeader(src_port=1, dst_port=2),
        {"src_port": 3, "dst_port": 4, "length": 42, "checksum": 0xBEEF},
    ),
    GrhHeader: (
        lambda: GrhHeader(src_gid=GID_A, dst_gid=GID_B),
        {
            "src_gid": GID_B,
            "dst_gid": GID_A,
            "payload_length": 77,
            "next_header": 0x11,
            "hop_limit": 3,
            "traffic_class": 5,
            "flow_label": 0xABCDE,
        },
    ),
    BthHeader: (
        lambda: BthHeader(opcode=0x0A, dest_qp=5, psn=9),
        {
            "opcode": 0x0C,
            "dest_qp": 0xABCDEF,
            "psn": 0x123456,
            "ack_request": True,
            "solicited_event": True,
            "migration_request": True,
            "pad_count": 3,
            "partition_key": 0x1234,
        },
    ),
    RethHeader: (
        lambda: RethHeader(virtual_address=0x1000, rkey=0x42, dma_length=64),
        {"virtual_address": 1 << 63, "rkey": 0xFFFFFFFF, "dma_length": 1},
    ),
    AtomicEthHeader: (
        lambda: AtomicEthHeader(virtual_address=0x1000, rkey=0x42, swap_add=1),
        {"virtual_address": 8, "rkey": 9, "swap_add": 1 << 47, "compare": 5},
    ),
    AethHeader: (
        lambda: AethHeader(syndrome=AethSyndrome.ACK, msn=1),
        {"syndrome": 0x60, "msn": 0xFFFFFF},
    ),
    AtomicAckEthHeader: (
        lambda: AtomicAckEthHeader(original_data=41),
        {"original_data": (1 << 64) - 1},
    ),
    IcrcTrailer: (lambda: IcrcTrailer(value=1), {"value": 0xDEADBEEF}),
    GuardShimHeader: (
        lambda: GuardShimHeader(seq=1),
        {
            "kind": GUARD_NAK,
            "flags": 3,
            "seq": 0xFFFFFFFF,
            "ack": 7,
            "extent": 8,
            "checksum": 0xFFFF,
            "inner_ethertype": 0x0800,
        },
    ),
}


def _header_classes():
    found = set()
    for module in (net_headers, rdma_headers, shim_module):
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if issubclass(cls, Header) and cls is not Header:
                found.add(cls)
    return sorted(found, key=lambda cls: cls.__name__)


def test_every_header_class_has_a_sample():
    assert set(_header_classes()) == set(SAMPLES)
    for cls, (make, mutations) in SAMPLES.items():
        assert set(mutations) == set(cls.__slots__), cls.__name__
        assert "__dict__" not in dir(make()), f"{cls.__name__} is not slotted"
        assert cls.byte_len == cls.LENGTH == len(make().pack())


@pytest.mark.parametrize("cls", _header_classes(), ids=lambda cls: cls.__name__)
def test_round_trip_and_pack_follows_every_field(cls):
    make, mutations = SAMPLES[cls]
    original = make()
    assert cls.unpack(original.pack()) == original
    assert original.copy() == original and original.copy() is not original
    for field, value in mutations.items():
        header = make()
        before = header.pack()
        assert getattr(header, field) != value, f"{field}: pick a different value"
        setattr(header, field, value)
        after = header.pack()
        assert after != before, f"{cls.__name__}.{field} did not reach pack()"
        assert len(after) == cls.byte_len
        parsed = cls.unpack(after)
        assert getattr(parsed, field) == value
        assert parsed == header and parsed != original
        # ...and a copy taken before the mutation is unaffected by it.
        assert make().copy().pack() == before


def test_a_subclass_inherits_fields_copy_and_equality():
    tagged = TaggedUdpHeader(src_port=3, dst_port=4)
    assert tagged.copy() == tagged and type(tagged.copy()) is TaggedUdpHeader
    assert tagged.copy().pack() == tagged.pack()
    assert tagged != TaggedUdpHeader(src_port=3, dst_port=5)
    assert tagged != UdpHeader(src_port=3, dst_port=4)  # type is part of the value
    assert "dst_port=4" in repr(tagged)


def test_unpack_rejects_short_input_for_every_class():
    for cls, (make, _) in SAMPLES.items():
        with pytest.raises(HeaderError):
            cls.unpack(make().pack()[:-1])


# -- (c) template-stamped RoCE packets equal header-by-header assembly ---------------------


def _qps():
    a = QueuePair(0x11, Ipv4Address("10.0.0.1"), MacAddress(1), initial_psn=100)
    b = QueuePair(0x22, Ipv4Address("10.0.0.2"), MacAddress(2), initial_psn=500)
    a.connect(b.qpn, b.local_ip, b.local_mac, dest_initial_psn=500)
    b.connect(a.qpn, a.local_ip, a.local_mac, dest_initial_psn=100)
    b.msn = 77
    return a, b


def _reference(src_mac, dst_mac, src_ip, dst_ip, src_port, bth, extensions, payload, icrc):
    """The builders' previous body: validated outer headers, appended
    extensions, payload set afterwards, lengths fixed up by walking."""
    packet = Packet(
        headers=[
            EthernetHeader(dst=dst_mac, src=src_mac),
            Ipv4Header(src=src_ip, dst=dst_ip, protocol=Ipv4Header.PROTO_UDP),
            UdpHeader(src_port=src_port, dst_port=ROCEV2_UDP_PORT),
            bth,
        ],
        trailers=[IcrcTrailer()],
    )
    for extension in extensions:
        packet.append(extension)
    packet.payload = bytes(payload)
    packet.fixup_lengths()
    if icrc:
        roce = packet.headers[packet.index_of(BthHeader) :]
        packet.set_trailers(
            [IcrcTrailer.compute(b"".join(h.pack() for h in roce) + packet.payload)]
        )
    return packet


def _reference_request(qp, opcode, psn, ack_request, extension, payload, icrc):
    bth = BthHeader(opcode=opcode, dest_qp=qp.dest_qpn, psn=psn, ack_request=ack_request)
    return _reference(
        qp.local_mac, qp.dest_mac, qp.local_ip, qp.dest_ip, 49152,
        bth, [extension], payload, icrc,
    )


def _reference_response(request, qp, opcode, psn, extensions, payload, icrc):
    bth = BthHeader(
        opcode=opcode,
        dest_qp=qp.dest_qpn,
        psn=request.require(BthHeader).psn if psn is None else psn,
    )
    return _reference(
        request.eth.dst, request.eth.src, request.ipv4.dst, request.ipv4.src,
        request.udp.src_port, bth, extensions, payload, icrc,
    )


def _same(built, reference):
    assert built.pack() == reference.pack()
    assert built.headers == reference.headers
    assert built.trailers == reference.trailers
    assert built.payload == reference.payload
    assert (built.buffer_len, built.frame_len, built.wire_len) == (
        reference.buffer_len,
        reference.frame_len,
        reference.wire_len,
    )
    assert verify_icrc(built)


@pytest.mark.parametrize("icrc", [False, True], ids=["icrc-off", "icrc-on"])
def test_stamped_roce_packets_equal_the_assembled_reference(icrc):
    a, b = _qps()
    data = b"remote-bytes" * 5

    write = build_write_request(a, 0x2000, 0x99, data, compute_icrc=icrc)
    reth = RethHeader(virtual_address=0x2000, rkey=0x99, dma_length=len(data))
    _same(write, _reference_request(a, Opcode.RDMA_WRITE_ONLY, 100, True, reth, data, icrc))

    unacked = build_write_request(a, 0x2000, 0x99, b"", psn=7, ack_request=False, compute_icrc=icrc)
    reth = RethHeader(virtual_address=0x2000, rkey=0x99, dma_length=0)
    _same(unacked, _reference_request(a, Opcode.RDMA_WRITE_ONLY, 7, False, reth, b"", icrc))

    read = build_read_request(a, 0x3000, 0x98, 256, compute_icrc=icrc)
    reth = RethHeader(virtual_address=0x3000, rkey=0x98, dma_length=256)
    _same(read, _reference_request(a, Opcode.RDMA_READ_REQUEST, 101, False, reth, b"", icrc))

    faa = build_fetch_add_request(a, 0x4008, 0x97, 3, compute_icrc=icrc)
    atomic = AtomicEthHeader(virtual_address=0x4008, rkey=0x97, swap_add=3)
    _same(faa, _reference_request(a, Opcode.FETCH_ADD, 102, False, atomic, b"", icrc))
    assert a.next_psn == 103  # one PSN per request, allocated in call order

    aeth = AethHeader(syndrome=AethSyndrome.ACK, msn=77)
    _same(
        build_read_response(read, b, data, compute_icrc=icrc),
        _reference_response(read, b, Opcode.RDMA_READ_RESPONSE_ONLY, None, [aeth], data, icrc),
    )
    _same(
        build_ack(write, b, compute_icrc=icrc),
        _reference_response(write, b, Opcode.ACKNOWLEDGE, None, [aeth], b"", icrc),
    )
    nak = AethHeader(syndrome=AethSyndrome.NAK_PSN_SEQUENCE_ERROR, msn=77)
    _same(
        build_ack(
            write, b, syndrome=AethSyndrome.NAK_PSN_SEQUENCE_ERROR,
            psn_override=555, compute_icrc=icrc,
        ),
        _reference_response(write, b, Opcode.ACKNOWLEDGE, 555, [nak], b"", icrc),
    )
    _same(
        build_atomic_ack(faa, b, 41, compute_icrc=icrc),
        _reference_response(
            faa, b, Opcode.ATOMIC_ACKNOWLEDGE, None,
            [aeth, AtomicAckEthHeader(original_data=41)], b"", icrc,
        ),
    )


def test_stamped_packets_share_no_header_with_the_template_or_each_other():
    a, _ = _qps()
    first = build_read_request(a, 0x10, 0x5, 8)
    second = build_read_request(a, 0x10, 0x5, 8)
    for mine, theirs in zip(first.headers, second.headers):
        assert mine is not theirs
    first.ipv4.ttl = 1
    first.eth.ethertype = 0x1234
    assert second.ipv4.ttl == 64 and second.eth.ethertype == 0x0800
    assert build_read_request(a, 0x10, 0x5, 8).ipv4.ttl == 64


def test_stamp_ports_matches_a_validated_build():
    tb = build_testbed(n_hosts=2, with_memory_server=False)
    src, dst = tb.hosts
    template = udp_between(src, dst, 128)
    stamped = stamp_ports(template, 4321, 8765)
    built = udp_between(src, dst, 128, src_port=4321, dst_port=8765)
    assert stamped.pack() == built.pack()
    assert stamped.headers == built.headers
    assert stamped.packet_id == template.packet_id + 1
    assert template.udp.src_port == 10_000  # the template is never patched
    with pytest.raises(HeaderError):
        stamp_ports(template, 70_000, 1)


# -- length and field overflow raise HeaderError, never struct.error ----------------------


def test_oversize_stack_raises_header_error_naming_the_field():
    packet = udp_between_plain(payload=b"\x00" * 70_000)
    with pytest.raises(HeaderError, match="total_length"):
        packet.pack()
    with pytest.raises(HeaderError, match="total_length"):
        packet.fixup_lengths()
    # A stack whose IPv4 length fits but whose UDP-less tail would not is fine.
    assert len(udp_between_plain(payload=b"\x00" * 65_000).pack()) == 65_042


def test_oversize_roce_payload_raises_header_error_at_build_time():
    a, _ = _qps()
    with pytest.raises(HeaderError, match="total_length"):
        build_write_request(a, 0x2000, 0x99, b"\x00" * 70_000)


@pytest.mark.parametrize(
    "make, field, value",
    [
        (_ip, "ttl", 300),
        (_ip, "ecn", 4),
        (_ip, "fragment_offset", 1 << 13),
        (_ip, "dscp", -1),
        (_eth, "ethertype", 1 << 16),
        (lambda: UdpHeader(src_port=1, dst_port=2), "length", 70_000),
        (lambda: BthHeader(opcode=1, dest_qp=2, psn=3), "psn", 1 << 24),
        (lambda: BthHeader(opcode=1, dest_qp=2, psn=3), "dest_qp", 1 << 24),
        (lambda: BthHeader(opcode=1, dest_qp=2, psn=3), "pad_count", 4),
        (lambda: RethHeader(virtual_address=1, rkey=2, dma_length=3), "rkey", 1 << 32),
        (lambda: AtomicEthHeader(virtual_address=1, rkey=2, swap_add=3), "swap_add", -1),
        (lambda: AethHeader(syndrome=0), "msn", 1 << 24),
        (lambda: AethHeader(syndrome=0), "syndrome", 256),
        (lambda: AtomicAckEthHeader(original_data=0), "original_data", 1 << 64),
        (lambda: GrhHeader(src_gid=GID_A, dst_gid=GID_B), "flow_label", 1 << 20),
        (lambda: GrhHeader(src_gid=GID_A, dst_gid=GID_B), "traffic_class", 256),
        (lambda: GrhHeader(src_gid=GID_A, dst_gid=GID_B), "src_gid", b"short"),
        (lambda: GuardShimHeader(), "kind", 9),
        (lambda: GuardShimHeader(), "seq", 1 << 32),
    ],
)
def test_a_field_mutated_out_of_range_fails_pack_with_header_error(make, field, value):
    header = make()
    setattr(header, field, value)
    with pytest.raises(HeaderError):
        header.pack()
    assert not issubclass(HeaderError, struct.error)


# -- (d) a bounded, exactly repeatable number of packet-model calls per frame ---------------

MODEL_FILES = ("/net/packet.py", "/net/headers.py", "/net/addresses.py")


def _model_calls_forwarding(frames: int) -> int:
    tb = build_testbed(n_hosts=2, with_memory_server=False, seed=1)
    program = StaticL2Program()
    for host, port in zip(tb.hosts, tb.host_ports):
        program.install(host.eth.mac, port)
    tb.switch.bind_program(program)
    delivered = []
    tb.hosts[1].packet_handlers.append(lambda packet, iface: delivered.append(packet))
    OpenLoopZipfTraffic(
        tb.sim, tb.hosts[0], tb.hosts[1], flows=64, alpha=0.0,
        packet_size=64, rate_pps=1e6, count=frames, seed=1, arrival="paced",
    ).start()
    profiler = cProfile.Profile()
    profiler.enable()
    tb.sim.run()
    profiler.disable()
    assert len(delivered) == frames
    return sum(
        entry.callcount
        for entry in profiler.getstats()
        if getattr(entry.code, "co_filename", "").endswith(MODEL_FILES)
    )


def test_forwarding_a_frame_costs_a_bounded_number_of_model_calls():
    frames = 200
    # The first packets of a stack shape fill its shared type index: a
    # couple of calls once per process, which a warm-up run absorbs.
    _model_calls_forwarding(frames)
    calls = _model_calls_forwarding(frames)
    assert calls == _model_calls_forwarding(frames), "the count must repeat exactly"
    # 99 per frame before the fixed-layout model; 10 with it.
    assert 0 < calls <= MODEL_CALLS_PER_FRAME * frames, f"{calls / frames:.1f} model calls per frame"
