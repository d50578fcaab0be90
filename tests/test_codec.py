"""The byte codec, held to bytes taken from the hand-written codecs it replaced.

Every header class states its wire format once (``Header.WIRE``); its
``pack``/``unpack``, each layout's frame packer and ``Packet.parse`` are
compiled from those statements.  So the oracle here is not a second copy
of the code but committed bytes: ``GOLDEN`` holds the hex every header
class and every frame shape the code builds packed to before the codecs
were generated (the six RoCE shapes with and without ICRC, RoCEv1/GRH,
plain UDP, L2-only and the guard shim's DATA and control frames).  Around
them: round-trip properties for every class and shape, every spill, short,
malformed and contradictory input raising ``HeaderError``, address
interning, and the calls one pack-and-parse costs.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.net.addresses as addresses
from repro.linkguard.shim import (
    ETHERTYPE_LINKGUARD,
    FLAG_ACK_VALID,
    FLAG_RESENT,
    GUARD_ACK,
    GUARD_DATA,
    GUARD_NAK,
    GUARD_RESYNC,
    GuardShimHeader,
)
from repro.net.addresses import INTERN_LIMIT, Ipv4Address, MacAddress
from repro.net.headers import (
    ETHERTYPE_IPV4,
    EthernetHeader,
    HeaderError,
    Ipv4Header,
    UdpHeader,
    ipv4_checksum,
)
from repro.net.packet import Packet
from repro.rdma.headers import (
    AethHeader,
    AtomicAckEthHeader,
    AtomicEthHeader,
    BthHeader,
    GrhHeader,
    IcrcTrailer,
    RethHeader,
    gid_from_ipv4,
    parse_roce,
)
from repro.rdma.packets import (
    build_ack,
    build_atomic_ack,
    build_fetch_add_request,
    build_read_request,
    build_read_response,
    build_write_request,
    convert_to_rocev1,
)
from repro.rdma.qp import QueuePair

from .budgets import CODEC_CALLS_PER_FRAME, profiled
from .conftest import examples

#: Hex of every header sample and frame below, packed by the hand-written
#: codecs (the commit before ``Header.WIRE``).
GOLDEN = {
    "header/EthernetHeader": "02000000000b02000000000a88b6",
    "header/Ipv4Header": "45bb04d2beef7abc3f1126ec0a0000010a0001c8",
    "header/UdpHeader": "c00012b704bea5a5",
    "header/GrhHeader": (
        "6a7f1234012c1b0900000000000000000000ffff0a00000100000000000000000000ffff"
        "0a0001c8"
    ),
    "header/BthHeader": "0ca0123400abcdef80123456",
    "header/RethHeader": "0123456789abcdefdeadbeef00001000",
    "header/AtomicEthHeader": "fedcba987654321000000007fffffffffffffffe0000000000000003",
    "header/AethHeader": "60abcdef",
    "header/AtomicAckEthHeader": "1122334455667788",
    "header/IcrcTrailer": "cafebabe",
    "header/GuardShimHeader": "020301020304ffffffff05060708beef0800",
    "frame/roce/write/plain": (
        "02000000000b02000000000a08004500006c00004000401124b90a0000010a0001c8c000"
        "12b7005800000a00ffff0000002280000064000000000000200000000099000000300001"
        "02030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f202122232425"
        "262728292a2b2c2d2e2f00000000"
    ),
    "frame/roce/read/plain": (
        "02000000000b02000000000a08004500003c00004000401124e90a0000010a0001c8c000"
        "12b7002800000c00ffff0000002200000065000000000000300000000098000001000000"
        "0000"
    ),
    "frame/roce/fetch_add/plain": (
        "02000000000b02000000000a08004500004800004000401124dd0a0000010a0001c8c000"
        "12b7003400001400ffff0000002200000066000000000000400800000097000000000000"
        "0003000000000000000000000000"
    ),
    "frame/roce/read_response/plain": (
        "02000000000a02000000000b08004500006000004000401124c50a0001c80a000001c000"
        "12b7004c00001000ffff00000011000000651f00004d000102030405060708090a0b0c0d"
        "0e0f101112131415161718191a1b1c1d1e1f202122232425262728292a2b2c2d2e2f0000"
        "0000"
    ),
    "frame/roce/ack/plain": (
        "02000000000a02000000000b08004500003000004000401124f50a0001c80a000001c000"
        "12b7001c00001100ffff00000011000000641f00004d00000000"
    ),
    "frame/roce/atomic_ack/plain": (
        "02000000000a02000000000b08004500003800004000401124ed0a0001c80a000001c000"
        "12b7002400001200ffff00000011000000661f00004d000000000000002900000000"
    ),
    "frame/rocev1/write/plain": (
        "02000000000b02000000000a89156000000000501b4000000000000000000000ffff0a00"
        "000100000000000000000000ffff0a0001c80a00ffff0000002280000064000000000000"
        "20000000009900000030000102030405060708090a0b0c0d0e0f10111213141516171819"
        "1a1b1c1d1e1f202122232425262728292a2b2c2d2e2f00000000"
    ),
    "frame/roce/write/icrc": (
        "02000000000b02000000000a08004500006c00004000401124b90a0000010a0001c8c000"
        "12b7005800000a00ffff0000002280000067000000000000200000000099000000300001"
        "02030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f202122232425"
        "262728292a2b2c2d2e2fe7428081"
    ),
    "frame/roce/read/icrc": (
        "02000000000b02000000000a08004500003c00004000401124e90a0000010a0001c8c000"
        "12b7002800000c00ffff000000220000006800000000000030000000009800000100df78"
        "3678"
    ),
    "frame/roce/fetch_add/icrc": (
        "02000000000b02000000000a08004500004800004000401124dd0a0000010a0001c8c000"
        "12b7003400001400ffff0000002200000069000000000000400800000097000000000000"
        "00030000000000000000f62bbcce"
    ),
    "frame/roce/read_response/icrc": (
        "02000000000a02000000000b08004500006000004000401124c50a0001c80a000001c000"
        "12b7004c00001000ffff00000011000000681f00004d000102030405060708090a0b0c0d"
        "0e0f101112131415161718191a1b1c1d1e1f202122232425262728292a2b2c2d2e2f5afb"
        "ad18"
    ),
    "frame/roce/ack/icrc": (
        "02000000000a02000000000b08004500003000004000401124f50a0001c80a000001c000"
        "12b7001c00001100ffff00000011000000671f00004d362c0726"
    ),
    "frame/roce/atomic_ack/icrc": (
        "02000000000a02000000000b08004500003800004000401124ed0a0001c80a000001c000"
        "12b7002400001200ffff00000011000000691f00004d000000000000002921d93fa9"
    ),
    "frame/rocev1/write/icrc": (
        "02000000000b02000000000a89156000000000501b4000000000000000000000ffff0a00"
        "000100000000000000000000ffff0a0001c80a00ffff0000002280000067000000000000"
        "20000000009900000030000102030405060708090a0b0c0d0e0f10111213141516171819"
        "1a1b1c1d1e1f202122232425262728292a2b2c2d2e2fe7428081"
    ),
    "frame/udp": (
        "02000000000b02000000000a080045000072000740003d1127ac0a0000010a0001c82710"
        "4e20005e0000000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d"
        "1e1f202122232425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f4041"
        "42434445464748494a4b4c4d4e4f505152535455"
    ),
    "frame/l2": "02000000000b02000000000a90006c322d6f6e6c79207061796c6f6164",
    "frame/guard/data": (
        "02000000000b02000000000a88b600030000002900000028000000001234080045000072"
        "000740003d1127ac0a0000010a0001c827104e20005e0000000102030405060708090a0b"
        "0c0d0e0f101112131415161718191a1b1c1d1e1f202122232425262728292a2b2c2d2e2f"
        "303132333435363738393a3b3c3d3e3f404142434445464748494a4b4c4d4e4f50515253"
        "5455"
    ),
    "frame/guard/ack": "02000000000a02000000000b88b6010200000005ffffffff0000000900000000",
    "frame/guard/nak": "02000000000a02000000000b88b6020200000005ffffffff0000000900000000",
    "frame/guard/resync": "02000000000a02000000000b88b6030200000005ffffffff0000000900000000",
}

MAC_A, MAC_B = MacAddress("02:00:00:00:00:0a"), MacAddress("02:00:00:00:00:0b")
IP_A, IP_B = Ipv4Address("10.0.0.1"), Ipv4Address("10.0.1.200")


def _headers():
    """One sample per header class, every field away from its default."""
    return {
        "EthernetHeader": EthernetHeader(dst=MAC_B, src=MAC_A, ethertype=0x88B6),
        "Ipv4Header": Ipv4Header(
            src=IP_A, dst=IP_B, protocol=17, total_length=1234, ttl=63, dscp=46, ecn=3,
            identification=0xBEEF, flags=0b011, fragment_offset=0x1ABC,
        ),
        "UdpHeader": UdpHeader(src_port=49152, dst_port=4791, length=1214, checksum=0xA5A5),
        "GrhHeader": GrhHeader(
            src_gid=gid_from_ipv4(IP_A), dst_gid=gid_from_ipv4(IP_B), payload_length=300,
            next_header=0x1B, hop_limit=9, traffic_class=0xA7, flow_label=0xF1234,
        ),
        "BthHeader": BthHeader(
            opcode=0x0C, dest_qp=0xABCDEF, psn=0x123456, ack_request=True,
            solicited_event=True, migration_request=False, pad_count=2, partition_key=0x1234,
        ),
        "RethHeader": RethHeader(virtual_address=0x0123456789ABCDEF, rkey=0xDEADBEEF, dma_length=4096),
        "AtomicEthHeader": AtomicEthHeader(
            virtual_address=0xFEDCBA9876543210, rkey=7, swap_add=(1 << 64) - 2, compare=3
        ),
        "AethHeader": AethHeader(syndrome=0x60, msn=0xABCDEF),
        "AtomicAckEthHeader": AtomicAckEthHeader(original_data=0x1122334455667788),
        "IcrcTrailer": IcrcTrailer(value=0xCAFEBABE),
        "GuardShimHeader": GuardShimHeader(
            kind=GUARD_NAK, flags=3, seq=0x01020304, ack=0xFFFFFFFF, extent=0x05060708,
            checksum=0xBEEF, inner_ethertype=0x0800,
        ),
    }


def _udp(payload=bytes(range(86))):
    return Packet(
        headers=[
            EthernetHeader(dst=MAC_B, src=MAC_A),
            Ipv4Header(src=IP_A, dst=IP_B, ttl=61, identification=7),
            UdpHeader(src_port=10000, dst_port=20000),
        ],
        payload=payload,
    )


def _frames():
    """Every frame shape the code builds, keyed as in ``GOLDEN``."""
    a = QueuePair(0x11, IP_A, MAC_A, initial_psn=100)
    b = QueuePair(0x22, IP_B, MAC_B, initial_psn=500)
    a.connect(b.qpn, b.local_ip, b.local_mac, dest_initial_psn=500)
    b.connect(a.qpn, a.local_ip, a.local_mac, dest_initial_psn=100)
    b.msn = 77
    data = bytes(range(48))
    frames = {}
    for icrc, tag in ((False, "plain"), (True, "icrc")):
        write = build_write_request(a, 0x2000, 0x99, data, compute_icrc=icrc)
        read = build_read_request(a, 0x3000, 0x98, 256, compute_icrc=icrc)
        faa = build_fetch_add_request(a, 0x4008, 0x97, 3, compute_icrc=icrc)
        frames[f"frame/roce/write/{tag}"] = write
        frames[f"frame/roce/read/{tag}"] = read
        frames[f"frame/roce/fetch_add/{tag}"] = faa
        frames[f"frame/roce/read_response/{tag}"] = build_read_response(read, b, data, compute_icrc=icrc)
        frames[f"frame/roce/ack/{tag}"] = build_ack(write, b, compute_icrc=icrc)
        frames[f"frame/roce/atomic_ack/{tag}"] = build_atomic_ack(faa, b, 41, compute_icrc=icrc)
        frames[f"frame/rocev1/write/{tag}"] = convert_to_rocev1(write)
    frames["frame/udp"] = _udp()
    frames["frame/l2"] = Packet(
        headers=[EthernetHeader(dst=MAC_B, src=MAC_A, ethertype=0x9000)], payload=b"l2-only payload"
    )
    guarded = _udp()
    shim = GuardShimHeader(kind=GUARD_DATA, flags=FLAG_ACK_VALID | FLAG_RESENT, seq=41, ack=40, checksum=0x1234)
    shim.inner_ethertype = guarded.headers[0].ethertype
    guarded.headers[0].ethertype = ETHERTYPE_LINKGUARD
    guarded.insert(1, shim)
    frames["frame/guard/data"] = guarded
    for kind, label in ((GUARD_ACK, "ack"), (GUARD_NAK, "nak"), (GUARD_RESYNC, "resync")):
        frames[f"frame/guard/{label}"] = Packet(
            headers=[
                EthernetHeader(dst=MAC_A, src=MAC_B, ethertype=ETHERTYPE_LINKGUARD),
                GuardShimHeader(kind=kind, flags=FLAG_ACK_VALID, seq=5, ack=0xFFFFFFFF, extent=9),
            ]
        )
    return frames


def _golden(key):
    value = GOLDEN[key]
    return bytes.fromhex(value if isinstance(value, str) else "".join(value))


# -- golden bytes --------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(_headers()))
def test_every_header_class_packs_its_golden_bytes_and_back(name):
    header = _headers()[name]
    wire = _golden(f"header/{name}")
    assert header.pack() == wire and len(wire) == type(header).byte_len
    assert type(header).unpack(wire) == header
    # In place at an offset, from any buffer type.
    for buffer in (b"\xee" * 3 + wire, bytearray(b"\xee" * 3 + wire), memoryview(b"\xee" * 3 + wire)):
        assert type(header).unpack(buffer, 3) == header


def test_the_golden_set_covers_every_class_and_shape():
    assert {f"header/{name}" for name in _headers()} | set(_frames()) == set(GOLDEN)


@pytest.mark.parametrize("key", sorted(_frames()))
def test_every_frame_shape_packs_its_golden_bytes(key):
    packet = _frames()[key]
    wire = _golden(key)
    assert packet.pack() == wire
    assert len(wire) == packet.buffer_len
    # The one-struct frame packer equals the stack packed header by header.
    assert wire == b"".join(h.pack() for h in packet.headers) + packet.payload + b"".join(
        t.pack() for t in packet.trailers
    )


@pytest.mark.parametrize("key", sorted(k for k in GOLDEN if k.startswith("frame/roce/")))
def test_every_roce_frame_parses_back_to_its_stack(key):
    packet = _frames()[key]
    parsed = Packet.parse(_golden(key))
    assert parsed.headers == packet.headers[:3]
    headers, payload, icrc = parse_roce(parsed.payload)
    assert headers == packet.headers[3:]
    assert payload == packet.payload and (icrc,) == packet.trailers
    assert parsed.buffer_len == packet.buffer_len


def test_udp_and_l2_frames_parse_back_equal():
    for key in ("frame/udp", "frame/l2"):
        packet = _frames()[key]
        packet.fixup_lengths()
        parsed = Packet.parse(_golden(key))
        assert parsed.headers == packet.headers and parsed.payload == packet.payload
        assert parsed.pack() == _golden(key)


# -- round trips for every class and shape -------------------------------------------------

u8, u16, u32, u64 = (st.integers(0, (1 << bits) - 1) for bits in (8, 16, 32, 64))
macs = st.integers(0, (1 << 48) - 1).map(MacAddress)
ipv4s = u32.map(Ipv4Address)
gids = st.binary(min_size=16, max_size=16)

HEADERS = {
    EthernetHeader: st.builds(EthernetHeader, dst=macs, src=macs, ethertype=u16),
    Ipv4Header: st.builds(
        Ipv4Header, src=ipv4s, dst=ipv4s, protocol=u8, total_length=u16, ttl=u8,
        dscp=st.integers(0, 63), ecn=st.integers(0, 3), identification=u16,
        flags=st.integers(0, 7), fragment_offset=st.integers(0, 0x1FFF),
    ),
    UdpHeader: st.builds(UdpHeader, src_port=u16, dst_port=u16, length=u16, checksum=u16),
    GrhHeader: st.builds(
        GrhHeader, src_gid=gids, dst_gid=gids, payload_length=u16, next_header=u8,
        hop_limit=u8, traffic_class=u8, flow_label=st.integers(0, (1 << 20) - 1),
    ),
    BthHeader: st.builds(
        BthHeader, opcode=u8, dest_qp=st.integers(0, (1 << 24) - 1),
        psn=st.integers(0, (1 << 24) - 1), ack_request=st.booleans(),
        solicited_event=st.booleans(), migration_request=st.booleans(),
        pad_count=st.integers(0, 3), partition_key=u16,
    ),
    RethHeader: st.builds(RethHeader, virtual_address=u64, rkey=u32, dma_length=u32),
    AtomicEthHeader: st.builds(AtomicEthHeader, virtual_address=u64, rkey=u32, swap_add=u64, compare=u64),
    AethHeader: st.builds(AethHeader, syndrome=u8, msn=st.integers(0, (1 << 24) - 1)),
    AtomicAckEthHeader: st.builds(AtomicAckEthHeader, original_data=u64),
    IcrcTrailer: st.builds(IcrcTrailer, value=u32),
    GuardShimHeader: st.builds(
        GuardShimHeader, kind=st.sampled_from([GUARD_DATA, GUARD_ACK, GUARD_NAK, GUARD_RESYNC]),
        flags=u8, seq=u32, ack=u32, extent=u32, checksum=u16, inner_ethertype=u16,
    ),
}


def test_every_header_class_has_a_strategy():
    assert {type(h) for h in _headers().values()} == set(HEADERS)


@settings(max_examples=examples(100))
@given(st.sampled_from(sorted(HEADERS, key=lambda cls: cls.__name__)).flatmap(lambda cls: HEADERS[cls]))
def test_unpack_of_pack_is_the_header(header):
    wire = header.pack()
    assert len(wire) == type(header).byte_len
    assert type(header).unpack(wire) == header
    assert type(header).unpack(b"\x00" + wire, 1).pack() == wire


@settings(max_examples=examples(50))
@given(
    eth=HEADERS[EthernetHeader],
    ip=HEADERS[Ipv4Header],
    udp=HEADERS[UdpHeader],
    payload=st.binary(max_size=64),
    depth=st.integers(1, 3),
)
def test_parse_of_pack_is_the_frame_for_every_parsed_shape(eth, ip, udp, payload, depth):
    """Eth, Eth/IPv4 (any protocol but UDP) and Eth/IPv4/UDP."""
    eth.ethertype = ETHERTYPE_IPV4 if depth > 1 else 0x88B5
    ip.protocol = Ipv4Header.PROTO_UDP if depth > 2 else Ipv4Header.PROTO_TCP
    packet = Packet(headers=[eth, ip, udp][:depth], payload=payload)
    parsed = Packet.parse(packet.pack())
    assert parsed.headers == packet.headers  # pack() fixed the lengths in place
    assert parsed.payload == payload and parsed.buffer_len == packet.buffer_len
    assert parsed.pack() == packet.pack()


roce_stacks = st.one_of(
    st.tuples(HEADERS[BthHeader], HEADERS[RethHeader]),
    st.tuples(HEADERS[BthHeader], HEADERS[AtomicEthHeader]),
    st.tuples(HEADERS[BthHeader], HEADERS[AethHeader]),
    st.tuples(HEADERS[BthHeader], HEADERS[AethHeader], HEADERS[AtomicAckEthHeader]),
)


@settings(max_examples=examples(50))
@given(stack=roce_stacks, icrc=HEADERS[IcrcTrailer], payload=st.binary(max_size=64), guard=HEADERS[GuardShimHeader])
def test_roce_and_guarded_frames_pack_as_their_headers_do(stack, icrc, payload, guard):
    """Any stack packs in one ``struct`` call to what its headers pack to,
    with the length fields set from the size."""
    for outer in ([], [guard]):
        packet = _udp(payload)
        for header in [*outer, *stack]:
            packet.insert(1 if header is guard else len(packet.headers), header)
        packet.set_trailers([icrc])
        wire = packet.pack()
        assert wire == b"".join(h.pack() for h in packet.headers) + payload + icrc.pack()
        assert packet.ipv4.total_length == len(wire) - 14 - GuardShimHeader.byte_len * len(outer)
        assert packet.udp.length == packet.ipv4.total_length - 20


# -- everything malformed raises HeaderError -----------------------------------------------


@pytest.mark.parametrize(
    "field, value",
    [("ecn", 4), ("fragment_offset", 1 << 13), ("ttl", 256), ("src", IP_A)],
    ids=["spill-ecn", "spill-fragment", "range-ttl", "ok"],
)
def test_a_bad_header_fails_its_frame_with_its_own_error(field, value):
    packet = _udp()
    packet.fixup_lengths()
    setattr(packet.ipv4, field, value)
    try:
        expected = packet.ipv4.pack()
    except HeaderError as exc:
        with pytest.raises(HeaderError) as raised:
            packet.pack()
        assert str(raised.value) == str(exc)
        assert not isinstance(raised.value, struct.error)
    else:
        assert packet.pack()[14:34] == expected


@pytest.mark.parametrize("cls", sorted(HEADERS, key=lambda cls: cls.__name__), ids=lambda cls: cls.__name__)
def test_short_input_raises_for_every_class(cls):
    wire = _golden(f"header/{cls.__name__}")
    with pytest.raises(HeaderError, match="short"):
        cls.unpack(wire[:-1])
    with pytest.raises(HeaderError, match="short"):
        cls.unpack(wire, 1)


def _patched(wire, offset, data, *, checksum=True):
    """*wire* with *data* at *offset*, and the IPv4 checksum fixed after."""
    frame = bytearray(wire)
    frame[offset : offset + len(data)] = data
    if checksum:
        frame[24:26] = b"\x00\x00"
        frame[24:26] = ipv4_checksum(bytes(frame[14:34])).to_bytes(2, "big")
    return bytes(frame)


UDP = _golden("frame/udp")


@pytest.mark.parametrize(
    "frame, match",
    [
        (UDP[:13], "short"),
        (b"", "short"),
        (_patched(UDP, 14, b"\x65"), "version"),
        (_patched(UDP, 14, b"\x46"), "options"),
        (_patched(UDP, 24, b"\x12\x34", checksum=False), "checksum"),
        (_patched(UDP, 16, (10).to_bytes(2, "big")), "total_length"),
        (_patched(UDP, 16, (19).to_bytes(2, "big")), "total_length"),
        (_patched(UDP, 38, (3).to_bytes(2, "big")), "UDP length"),
        (_patched(UDP, 38, (7).to_bytes(2, "big")), "UDP length"),
        (_patched(UDP, 38, (95).to_bytes(2, "big")), "UDP length"),
    ],
    ids=[
        "short-eth", "empty", "version-6", "ihl-6", "bad-checksum", "ip-length-10",
        "ip-length-19", "udp-length-3", "udp-length-7", "udp-length-past-ip",
    ],
)
def test_a_malformed_frame_raises_header_error(frame, match):
    for buffer in (frame, bytearray(frame), memoryview(frame)):
        with pytest.raises(HeaderError, match=match):
            Packet.parse(buffer)
        with pytest.raises(HeaderError, match=match):
            Packet.parse(b"\xee" * 5 + frame, 5)


def test_the_length_rules_accept_every_consistent_length():
    assert Packet.parse(_patched(UDP, 38, (94).to_bytes(2, "big"))).udp.length == 94
    assert Packet.parse(_patched(UDP, 38, (8).to_bytes(2, "big"))).udp.length == 8
    # An IPv4 length of exactly its header: the frame is IPv4 with no UDP.
    parsed = Packet.parse(_patched(UDP, 16, (20).to_bytes(2, "big")))
    assert len(parsed.headers) == 2 and parsed.payload == b"" and parsed.buffer_len == 34


def test_truncated_and_non_udp_frames_parse_as_at_the_parent():
    # Truncated inside IPv4: Ethernet and opaque payload.
    parsed = Packet.parse(UDP[:30])
    assert len(parsed.headers) == 1 and parsed.payload == UDP[14:30]
    # Truncated inside UDP: Ethernet/IPv4, the UDP bytes kept as payload.
    parsed = Packet.parse(UDP[:40])
    assert len(parsed.headers) == 2 and parsed.payload == UDP[34:40]
    # An IPv4 length past the frame is bounded by the frame.
    assert Packet.parse(UDP[:100]).payload == UDP[42:100]
    # Ethernet padding past the IPv4 length is not payload.
    assert Packet.parse(UDP + b"\x00" * 9).payload == UDP[42:]
    # Not UDP: the transport header stays payload.
    tcp = _patched(UDP, 23, bytes([Ipv4Header.PROTO_TCP]))
    parsed = Packet.parse(tcp)
    assert len(parsed.headers) == 2 and parsed.payload == tcp[34:]
    with pytest.raises(HeaderError):
        parsed.udp
    # Not IPv4: everything after Ethernet is payload, checked for nothing.
    parsed = Packet.parse(_patched(UDP, 12, b"\x86\xdd", checksum=False))
    assert len(parsed.headers) == 1 and parsed.payload == UDP[14:]


def test_a_short_roce_payload_raises_header_error():
    udp_payload = Packet.parse(_golden("frame/roce/write/icrc")).payload
    for size in range(BthHeader.byte_len + RethHeader.byte_len + IcrcTrailer.byte_len):
        with pytest.raises(HeaderError):
            parse_roce(udp_payload[:size])


def test_a_bad_shim_kind_fails_pack_and_unpack():
    shim = GuardShimHeader(seq=1)
    wire = bytearray(shim.pack())
    wire[0] = 9
    with pytest.raises(HeaderError, match="kind"):
        GuardShimHeader.unpack(bytes(wire))
    shim.kind = 9
    with pytest.raises(HeaderError):
        shim.pack()
    with pytest.raises(HeaderError):
        Packet(headers=[EthernetHeader(dst=MAC_A, src=MAC_B), shim]).pack()


# -- interned addresses --------------------------------------------------------------------


def test_from_bytes_returns_one_interned_immutable_address():
    mac = MacAddress.from_bytes(b"\x02\x00\x00\x00\x00\x0a")
    assert mac is MacAddress.from_bytes(bytearray(b"\x02\x00\x00\x00\x00\x0a"))
    assert mac is MacAddress.from_bytes(memoryview(b"\x00\x02\x00\x00\x00\x00\x0a")[1:])
    assert mac == MAC_A and mac.to_bytes() is mac.packed and mac.packed == MAC_A.packed
    ip = Ipv4Address.from_bytes(b"\x0a\x00\x00\x01")
    assert ip is Ipv4Address.from_bytes(bytearray(ip.packed)) is Ipv4Address.from_bytes(memoryview(ip.packed))
    assert ip == IP_A and ip.to_bytes() == b"\x0a\x00\x00\x01"
    for address in (mac, ip):
        for slot in ("value", "packed"):
            with pytest.raises(AttributeError):
                setattr(address, slot, b"\x00")
    # Two parses of one frame share their addresses.
    first, second = Packet.parse(UDP), Packet.parse(UDP)
    assert first.eth.src is second.eth.src and first.ipv4.dst is second.ipv4.dst
    with pytest.raises(ValueError):
        MacAddress.from_bytes(b"\x00" * 5)
    with pytest.raises(ValueError):
        Ipv4Address.from_bytes(bytearray(5))


def test_the_intern_tables_are_bounded_and_deterministic():
    for table, make in (
        (addresses.MACS, lambda n: MacAddress.from_bytes(n.to_bytes(6, "big"))),
        (addresses.IPV4S, lambda n: Ipv4Address.from_bytes(n.to_bytes(4, "big"))),
    ):
        table.clear()
        kept = make(1)
        for n in range(2, INTERN_LIMIT + 1):
            make(n)
        assert len(table) == INTERN_LIMIT and make(1) is kept
        make(INTERN_LIMIT + 1)  # the table is full: it starts over
        assert len(table) == 1
        fresh = make(1)
        assert fresh == kept and fresh is not kept and make(1) is fresh


# -- the cost of a bounce --------------------------------------------------------------------


def _pack_and_parse_calls(frames: int) -> int:
    packet = _udp()
    assert packet.buffer_len == 128
    Packet.parse(packet.pack())
    stats, garbage = profiled(lambda: [Packet.parse(packet.pack()) for _ in range(frames)])
    assert garbage == 0
    return sum(entry.callcount for entry in stats)


def test_packing_and_parsing_a_frame_costs_a_bounded_number_of_calls():
    """Every call, C functions included, per ``Packet.parse(packet.pack())``
    of one 128 B Eth/IPv4/UDP frame; the difference of two runs cancels
    the harness's own calls."""
    per_frame = (_pack_and_parse_calls(200) - _pack_and_parse_calls(100)) / 100
    assert per_frame == (_pack_and_parse_calls(300) - _pack_and_parse_calls(200)) / 100
    assert per_frame <= CODEC_CALLS_PER_FRAME, f"{per_frame} calls per pack-and-parse"
