"""The primitives' data path (ISSUE 23): packet buffer and state store.

``RemotePacketBuffer`` keeps one record per ring entry and touches each
ring register once per pass; ``RemoteStateStore`` keeps its operations in
its requesters' windows; ``Packet.parse`` decodes a drained frame in
place.  Five angles:

(i)   both primitives' semantics over seeded scenarios — loss, failover,
      degrade and recover, the PSN wrap: the ring delivers every
      frame in store order or counts it lost, and the counters match the
      ledger (exactly, in reliable mode);
(ii)  ``Packet.parse(data, offset)`` against slice-then-parse;
(iii) count guards — register accesses and calls per buffered frame,
      host bytes per stored entry, calls per acknowledged Fetch-and-Add
      whatever the window, no ``psn_distance`` on the ACK path, no cyclic
      garbage;
(iv)  the regressions that rode along: a corrupted buffered (or bounced)
      frame is a counted loss, not an exception out of ``sim.run()``; a
      store whose WRITE leaves at once does not end the episode under it;
      a refused WRITE or a lost READ does not strand the ring;
(v)   construction-time validation of ``PacketBufferConfig``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    ACTION_SET_EGRESS,
    CountingProgram,
    FiveTuple,
    LookupTableConfig,
    OpenLoopZipfTraffic,
    PacketBufferConfig,
    RemoteAction,
    RemoteBufferProgram,
    RemoteLookupProgram,
    RemoteLookupTable,
    RemotePacketBuffer,
    RemoteStateStore,
    StateStoreConfig,
    TierProfile,
    TieredMemoryPool,
    build_testbed,
)
from repro.core.packet_buffer import ENTRY_SEQ_BYTES
from repro.faults.models import Corrupt, IidLoss
from repro.faults.plan import FaultPlan
from repro.net.addresses import Ipv4Address, MacAddress
from repro.net.headers import (
    EthernetHeader,
    HeaderError,
    Ipv4Header,
    UdpHeader,
    ipv4_checksum,
)
from repro.net.packet import Packet
from repro.rdma.constants import PSN_MODULO
from repro.rdma.memory import TIER_FAST
from repro.rdma.packets import MAX_READ_BYTES, MAX_WRITE_BYTES
from repro.sim.units import kib, usec
from repro.switches.traffic_manager import TrafficManagerConfig
from repro.workloads.perftest import RawEthernetBw

from .budgets import (
    BUFFER_CALLS_PER_FRAME,
    BUFFER_REGISTER_ACCESSES_PER_FRAME,
    RING_BYTES_PER_ENTRY,
    SPARSE_RING_BYTES,
    STATE_STORE_CALLS_PER_OP,
    byte_budget,
    profiled,
    retained,
)
from .reference import reference_parse
from .test_hop_path import bind

RECEIVER = 1
ENTRY_BYTES = 1500 + ENTRY_SEQ_BYTES


# -- (i) the packet buffer against the data plane it replaced -------------------------------


def buffer_rig(buffer_type, servers=1, read_qps=False, ring_entries=512,
               tm=None, entry_bytes=ENTRY_BYTES, **config):
    """An incast rig: hosts 0 and 2 overload host 1 behind a 256 KiB switch."""
    tb = build_testbed(
        n_hosts=3, n_memory_servers=servers, seed=1,
        tm_config=tm or TrafficManagerConfig(buffer_bytes=kib(256)),
    )
    program = bind(tb, RemoteBufferProgram())
    config = PacketBufferConfig(
        entry_bytes=entry_bytes, high_watermark_bytes=kib(64), low_watermark_bytes=kib(8),
        **config,
    )
    channels = tb.open_channels(ring_entries * entry_bytes)
    read_channels = [
        tb.controller.open_channel(server, port, share_region_with=channel)
        for server, port, channel in zip(tb.memory_servers, tb.server_ports, channels)
    ] if read_qps else None
    buffer = buffer_type(
        tb.switch, channels, protected_port=tb.host_ports[RECEIVER],
        config=config, read_channels=read_channels,
    )
    program.use_packet_buffer(buffer)
    tb.delivered = delivered = []

    def record(packet, interface):
        delivered.append(
            (tb.sim.now, packet.require(UdpHeader).src_port, packet.meta.get("sent_at"),
             packet.ipv4.ecn, packet.buffer_len)
        )

    tb.hosts[RECEIVER].packet_handlers.append(record)
    return tb, buffer


def blast(tb, count, senders=(0, 2), at_ns=0.0, size=1500, ecn=0):
    for sender in senders:
        generator = RawEthernetBw(
            tb.sim, tb.hosts[sender], tb.hosts[RECEIVER], packet_size=size,
            rate_bps=40e9, count=count, src_port=10_000 + sender,
        )
        if ecn:
            generator._template.ipv4.ecn = ecn
        tb.sim.schedule_at(at_ns, generator.start)


def observe(tb, buffer, offered, ordered=True):
    """The ring's semantics at quiescence: every offered frame delivered or
    counted lost, each sender's frames in store order (unless a degraded
    channel let frames pass the ring), the ring and its READ windows empty,
    and one live slot per stored entry, within capacity."""
    live = len(buffer._state) - buffer._state.count(0)
    assert buffer._occupancy == live == buffer.stored_entries == sum(buffer._channel_unread) == 0
    assert len(buffer._state) <= buffer.capacity_entries
    assert not buffer._reorder and not any(buffer._windows) and not buffer.is_buffering
    metrics = buffer.metrics
    lost = sum(metrics[name] for name in (
        "ring_full_drops", "oversize_drops", "lost_in_transit", "lost_to_failover"
    ))
    assert len(tb.delivered) + lost + tb.switch.tm.total_dropped_packets == offered
    if ordered:
        for sender in {record[1] for record in tb.delivered}:
            sent = [record[2] for record in tb.delivered if record[1] == sender]
            assert sent == sorted(sent), f"sender {sender}'s frames left out of order"

def single_channel(buffer_type):
    tb, buffer = buffer_rig(buffer_type)
    blast(tb, 150)
    blast(tb, 60, at_ns=usec(400))  # a second episode over the recycled slots
    tb.sim.run()
    assert buffer.metrics["buffering_episodes"] >= 2 and len(tb.delivered) == 420
    observe(tb, buffer, 420)


def striped_over_three(buffer_type):
    tb, buffer = buffer_rig(buffer_type, servers=3, max_outstanding_reads=2)
    blast(tb, 200)
    tb.sim.run()
    assert buffer.metrics["reorder_peak"] >= 1 and len(tb.delivered) == 400
    observe(tb, buffer, 400)


def separate_read_qps(buffer_type):
    """READs on their own QPs, served at strict priority ahead of the WRITEs."""
    tb, buffer = buffer_rig(
        buffer_type, servers=2, read_qps=True,
        tm=TrafficManagerConfig(
            buffer_bytes=kib(256), rdma_priority=True,
            priority_classifier=lambda packet: packet.buffer_len < 200
            and packet.find(UdpHeader).dst_port == 4791,
        ),
    )
    blast(tb, 160)
    tb.sim.run()
    assert len(tb.delivered) == 320
    observe(tb, buffer, 320)


def loss_with_go_back_n(buffer_type):
    tb, buffer = buffer_rig(buffer_type, read_timeout_ns=usec(40))
    tb.server_links[0].loss_probability = 0.03
    blast(tb, 150)
    tb.sim.run(max_events=2_000_000)
    lost = buffer.metrics["lost_in_transit"]
    assert buffer.metrics["read_recoveries"] > 0 and lost > 0
    assert len(tb.delivered) + lost + tb.switch.tm.total_dropped_packets == 300
    observe(tb, buffer, 300)


def failover_on_strikes(buffer_type):
    tb, buffer = buffer_rig(
        buffer_type, servers=2, read_timeout_ns=usec(50), failover_strikes=3
    )
    blast(tb, 250)
    tb.sim.schedule_at(usec(20), setattr, tb.server_links[1], "loss_probability", 1.0)
    blast(tb, 80, at_ns=usec(2_000))  # re-stripes over the survivor
    tb.sim.run(max_events=2_000_000)
    assert buffer.metrics["channels_failed"] == 1 and buffer.metrics["lost_to_failover"] > 0
    observe(tb, buffer, 660)


def breaker_degrade_and_recover(buffer_type):
    """What a channel's breaker does to the buffer: degrade() at the outage,
    probe() while it lasts, recover() after it."""
    tb, buffer = buffer_rig(buffer_type, read_timeout_ns=usec(60))
    link = tb.server_links[0]
    blast(tb, 200)
    tb.sim.schedule_at(usec(25), setattr, link, "loss_probability", 1.0)
    tb.sim.schedule_at(usec(30), buffer.degrade)
    tb.sim.schedule_at(usec(90), buffer.probe)
    tb.sim.schedule_at(usec(150), setattr, link, "loss_probability", 0.0)
    tb.sim.schedule_at(usec(160), buffer.probe)
    tb.sim.schedule_at(usec(170), buffer.recover)
    blast(tb, 40, at_ns=usec(180))
    tb.sim.run(max_events=2_000_000)
    assert buffer.metrics["degraded_passthrough"] > 0 and buffer.stored_entries == 0
    observe(tb, buffer, 480, ordered=False)


def ecn_from_ring_occupancy(buffer_type):
    tb, buffer = buffer_rig(buffer_type, ecn_ring_threshold_entries=20)
    blast(tb, 150, ecn=2)
    tb.sim.run()
    assert 0 < buffer.metrics["ecn_marked"] < buffer.metrics["stored_packets"]
    assert sum(1 for record in tb.delivered if record[3] == 3) == buffer.metrics["ecn_marked"]
    observe(tb, buffer, 300)


def ring_too_small_for_the_burst(buffer_type):
    tb, buffer = buffer_rig(buffer_type, ring_entries=24)
    blast(tb, 100)
    tb.sim.run()
    assert buffer.metrics["ring_full_drops"] > 0
    observe(tb, buffer, 200)


def frames_too_big_for_an_entry(buffer_type):
    tb, buffer = buffer_rig(buffer_type, entry_bytes=1400 + ENTRY_SEQ_BYTES)
    blast(tb, 100, senders=(0,), size=1400)
    blast(tb, 100, senders=(2,), size=1500)
    tb.sim.run()
    assert buffer.metrics["oversize_drops"] > 0 and buffer.metrics["loaded_packets"] > 0
    observe(tb, buffer, 200)


def store_all_then_manual_drain(buffer_type):
    """bench_e2e's ``pktbuf_ring`` geometry."""
    tb, buffer = buffer_rig(
        buffer_type, manual_load=True, max_outstanding_reads=8
    )
    buffer.config.high_watermark_bytes, buffer.config.low_watermark_bytes = 0, 1 << 30
    blast(tb, 120, senders=(0,))
    tb.sim.run()
    assert tb.delivered == [] and buffer.stored_entries == 120
    buffer.start_draining()
    tb.sim.run()
    assert len(tb.delivered) == 120
    observe(tb, buffer, 120)


BUFFER_CASES = [
    single_channel, striped_over_three, separate_read_qps, loss_with_go_back_n,
    failover_on_strikes, breaker_degrade_and_recover, ecn_from_ring_occupancy, ring_too_small_for_the_burst, frames_too_big_for_an_entry,
    store_all_then_manual_drain,
]


@pytest.mark.parametrize("case", BUFFER_CASES, ids=lambda case: case.__name__)
def test_the_ring_delivers_every_frame_in_order_or_counts_it(case):
    case(RemotePacketBuffer)


# -- (i, continued) the state store --------------------------------------------------------

FAST_PROFILE = TierProfile(read_latency_ns=60.0, atomic_rate_ops=40e6)


def store_rig(store_type, reliable, tiered, counters=256, initial_psn=None, **config):
    tb = build_testbed(n_hosts=2, seed=1)
    program = bind(tb, CountingProgram())
    config = StateStoreConfig(counters=counters, reliable=reliable, **config)
    if tiered:
        tb.memory_server.rnic.config.tier_profiles = {TIER_FAST: FAST_PROFILE}
        pool = TieredMemoryPool(
            tb.controller, policy="frequency", policy_seed=1,
            fast_capacity_bytes=2 * 16 * 8, tick_ns=15_000.0, seed=1,
        )
        member = pool.add_server(tb.memory_server, tb.server_port)
        geometry = pool.tier_object(
            "counters", 8, counters, units_per_block=16, member=member, fast_blocks=2
        )
        store = store_type(tb.switch, config=config, tiering=geometry)
    else:
        channel = tb.controller.open_channel(tb.memory_server, tb.server_port, counters * 8)
        store = store_type(tb.switch, channel, config=config)
    if initial_psn is not None:
        for channel in [gen.channel for gen in store._gens]:
            channel.switch_qp.next_psn = channel.server_qp.expected_psn = initial_psn
    program.use_state_store(store)
    return tb, store


def bursty_updates(tb, store, updates=600, counters=256, seed=3):
    """Bursts of 40 back-to-back updates on a skewed index stream."""
    import random

    rng = random.Random(seed)
    ledger = {}
    t = 1_000.0
    for n in range(updates):
        if n and n % 40 == 0:
            t += 20_000.0
        index = min(int(rng.paretovariate(1.2)) - 1, counters - 1)
        tb.sim.schedule_at(t, store.update, index, 1)
        ledger[index] = ledger.get(index, 0) + 1
        t += 150.0
    return ledger


def observe_store(store, ledger, exact):
    """The counter ledger at quiescence: every update landed exactly once
    (*exact*) or at most once, nothing left accumulated, and the outstanding
    register equal to the windows' length.  Those are empty but for a
    best-effort store's tail that drew no response (no timer re-sends it),
    and so are the busy-block holds."""
    windows = sum(map(len, store._windows))
    assert store.pending_value == 0 and store.outstanding == windows
    assert not windows or not store.config.reliable
    assert bool(store._busy_blocks) <= bool(windows)
    counters = [store.read_counter_via_control_plane(i) for i in range(store.config.counters)]
    offered = [ledger.get(i, 0) for i in range(store.config.counters)]
    if exact:
        assert counters == offered, "an update was lost or applied twice"
    else:
        assert all(0 <= got <= want for got, want in zip(counters, offered))
    if store.config.reliable:
        assert [store._committed.get(i, 0) for i in range(len(counters))] == counters
        assert not any(store.unlanded_value(i) for i in range(len(counters)))


def drain(tb, store):
    tb.sim.run(max_events=2_000_000)
    store.flush_all()
    tb.sim.run(max_events=2_000_000)


@pytest.mark.parametrize("tiered", [False, True], ids=["untiered", "tiered"])
@pytest.mark.parametrize("reliable", [True, False], ids=["reliable", "best-effort"])
def test_state_store_matches_on_a_clean_run(reliable, tiered):
    """The counters match the ledger exactly in either mode, the window
    filling and accumulating."""
    tb, store = store_rig(RemoteStateStore, reliable, tiered)
    ledger = bursty_updates(tb, store)
    drain(tb, store)
    assert store.metrics["updates_combined"] > 0  # the window filled and accumulated
    observe_store(store, ledger, exact=True)


@pytest.mark.parametrize("tiered", [False, True], ids=["untiered", "tiered"])
@pytest.mark.parametrize("reliable", [True, False], ids=["reliable", "best-effort"])
def test_state_store_matches_under_loss_naks_and_timeouts(reliable, tiered):
    """The ledger under 3 % loss both ways: a lost request NAKs the ops
    behind it (one go-back-N in reliable mode, their values lost in
    best-effort mode), a lost ACK is covered by the next one, a lost tail
    waits for the retry timer (reliable mode)."""
    tb, store = store_rig(RemoteStateStore, reliable, tiered, retry_timeout_ns=30_000.0)
    tb.server_links[0].loss_probability = 0.03
    ledger = bursty_updates(tb, store)
    drain(tb, store)
    assert store.metrics["naks_received"] > 0
    assert store.metrics["requeued_after_nak"] > 0 if reliable else store.metrics["requeued_after_nak"] == 0
    observe_store(store, ledger, exact=reliable)


@pytest.mark.parametrize("reliable", [True, False], ids=["reliable", "best-effort"])
def test_state_store_matches_through_degrade_and_reconcile(reliable):
    """An outage with ops in flight: degrade(), local accumulation, then
    recover() — which reconciles the suspended ops in reliable mode — and a
    fast-tier spill on the way."""
    tb, store = store_rig(RemoteStateStore, reliable, tiered=True, retry_timeout_ns=30_000.0)
    link = tb.server_links[0]
    ledger = bursty_updates(tb, store, updates=800)
    # Bursts start every 26 us from t = 1 us and last 6 us: both
    # degrades land with operations on the wire.
    tb.sim.schedule_at(usec(55), store.degrade_fast)
    tb.sim.schedule_at(usec(70), store.recover_fast)
    tb.sim.schedule_at(usec(106), setattr, link, "loss_probability", 1.0)
    tb.sim.schedule_at(usec(108), store.degrade)
    tb.sim.schedule_at(usec(150), setattr, link, "loss_probability", 0.0)
    for channel in [gen.channel for gen in store._gens]:  # what the breaker does half-open
        tb.sim.schedule_at(usec(151), tb.controller.reconnect_channel, channel)
    tb.sim.schedule_at(usec(152), store.probe)
    tb.sim.schedule_at(usec(160), store.recover)
    drain(tb, store)
    assert store.metrics["degraded_updates"] > 0
    if reliable:
        assert store.metrics["reconcile_reads"] > 0
    observe_store(store, ledger, exact=reliable)


@pytest.mark.parametrize("reliable", [True, False], ids=["reliable", "best-effort"])
def test_state_store_matches_across_the_psn_wrap(reliable):
    """The ledger holds across the 24-bit PSN wrap at 2 % loss."""
    tb, store = store_rig(
        RemoteStateStore, reliable, tiered=False, initial_psn=PSN_MODULO - 150,
        retry_timeout_ns=30_000.0,
    )
    tb.server_links[0].loss_probability = 0.02
    ledger = bursty_updates(tb, store, updates=400)
    drain(tb, store)
    assert store.rocegen.channel.switch_qp.next_psn < 1_000  # it wrapped
    observe_store(store, ledger, exact=reliable)


# -- (ii) the in-place parse ---------------------------------------------------------------


def _frames():
    frame = Packet(
        headers=[
            EthernetHeader(dst=MacAddress(2), src=MacAddress(1)),
            Ipv4Header(src=Ipv4Address("10.0.0.1"), dst=Ipv4Address("10.0.0.2")),
            UdpHeader(src_port=1000, dst_port=2000),
        ],
        payload=b"x" * 40,
    ).pack()
    tcp = bytearray(frame)
    tcp[23] = Ipv4Header.PROTO_TCP  # then the IPv4 checksum must follow
    tcp[24:26] = b"\x00\x00"
    tcp[24:26] = ipv4_checksum(bytes(tcp[14:34])).to_bytes(2, "big")
    arp = bytearray(frame)
    arp[12:14] = b"\x08\x06"
    padded = frame + b"\x00" * 18  # bytes past the IPv4 length are not payload
    return [frame, bytes(tcp), bytes(arp), padded, frame[:40], frame[:30], frame[:14]]


@settings(max_examples=200, deadline=None)
@given(
    frame=st.sampled_from(_frames()),
    prefix=st.binary(max_size=24),
    flip=st.one_of(st.none(), st.tuples(st.integers(0, 41), st.integers(0, 7))),
    cut=st.integers(0, 60),
)
def test_parse_at_an_offset_equals_slice_then_parse(frame, prefix, flip, cut):
    data = bytearray(frame)
    if flip is not None and flip[0] < len(data):
        data[flip[0]] ^= 1 << flip[1]
    data = bytes(data[: len(data) - cut] if cut < len(data) else data)
    try:
        expected = reference_parse(data)
    except HeaderError as error:
        with pytest.raises(HeaderError) as raised:
            Packet.parse(prefix + data, len(prefix))
        assert str(raised.value) == str(error)
        return
    parsed = Packet.parse(prefix + data, len(prefix))
    assert parsed.headers == expected.headers and parsed.payload == expected.payload
    assert type(parsed.payload) is bytes and parsed.trailers == () and parsed.meta == {}
    assert (parsed.buffer_len, parsed.frame_len, parsed.wire_len) == (
        expected.buffer_len, expected.frame_len, expected.wire_len
    )
    assert parsed.find(UdpHeader) is expected.find(UdpHeader) or parsed.udp == expected.udp
    assert Packet.parse(data).pack() == expected.pack()


def test_parse_makes_one_slice_of_a_buffer_it_does_not_own():
    frame = _frames()[0]
    parsed = Packet.parse(memoryview(b"stamp..." + frame), 8)
    assert parsed.pack() == frame and type(parsed.payload) is bytes


# -- (iii) the count guards ----------------------------------------------------------------

BUFFER_FILES = ("/core/packet_buffer.py", "/switches/registers.py")


def _calls_in(entries, files) -> int:
    return sum(
        entry.callcount for entry in entries
        if getattr(entry.code, "co_filename", "").endswith(files)
    )


def _buffered_frames(frames: int):
    """Store then drain *frames* 1500 B frames (bench_e2e's ``pktbuf_ring``)."""
    tb = build_testbed(n_hosts=2, seed=1)
    program = bind(tb, RemoteBufferProgram())
    channel = tb.controller.open_channel(
        tb.memory_server, tb.server_port, (frames + 16) * ENTRY_BYTES
    )
    buffer = RemotePacketBuffer(
        tb.switch, channel, protected_port=tb.host_ports[1],
        config=PacketBufferConfig(
            entry_bytes=ENTRY_BYTES, high_watermark_bytes=0, low_watermark_bytes=1 << 30,
            manual_load=True, max_outstanding_reads=8,
        ),
    )
    program.use_packet_buffer(buffer)
    OpenLoopZipfTraffic(
        tb.sim, tb.hosts[0], tb.hosts[1], flows=64, alpha=0.0, packet_size=1500,
        rate_pps=30e9 / ((1500 + 24) * 8), count=frames, seed=1, arrival="paced",
    ).start()

    def run():
        tb.sim.run()
        buffer.start_draining()
        tb.sim.run()

    entries, garbage = profiled(run)
    assert buffer.metrics["loaded_packets"] == frames and buffer.stored_entries == 0
    return _calls_in(entries, BUFFER_FILES), buffer._regs.reads + buffer._regs.writes, garbage


def test_a_buffered_frame_costs_a_bounded_number_of_register_accesses_and_calls():
    frames = 400
    calls, accesses, garbage = _buffered_frames(frames)
    assert (calls, accesses, garbage) == _buffered_frames(frames), "the counts must repeat exactly"
    # Store pass: BUFFERING read, WRITE_PTR read + write.  WRITE dequeued:
    # NEXT_LOAD_PTR read.  READ response: READ_PTR read + write (release),
    # BUFFERING read, NEXT_LOAD_PTR read + write, WRITE_PTR read (the next
    # load).  10; it was 22 reads and 3 writes.
    assert 0 < accesses <= BUFFER_REGISTER_ACCESSES_PER_FRAME * frames, (
        f"{accesses / frames:.2f} register accesses per buffered frame"
    )
    # Those 10, three hook and three dequeue-listener calls (frame, WRITE,
    # READ), _store, two _on_response, _complete_load, _drain_reorder and
    # three load passes: 24; it was 84.
    assert 0 < calls <= BUFFER_CALLS_PER_FRAME * frames, (
        f"{calls / frames:.2f} calls per buffered frame"
    )
    assert garbage == 0


def _parked(frames: int, ring_entries: int, count_build: bool):
    """Host bytes kept with *frames* 1500 B frames stored in a buffer over a
    *ring_entries* ring, less the remote pages; with *count_build*, the
    buffer's constructor is counted too."""
    tb = build_testbed(n_hosts=2, seed=1)
    program = bind(tb, RemoteBufferProgram())
    channel = tb.controller.open_channel(
        tb.memory_server, tb.server_port, ring_entries * ENTRY_BYTES
    )
    traffic = OpenLoopZipfTraffic(
        tb.sim, tb.hosts[0], tb.hosts[1], flows=60_000, alpha=0.0, packet_size=1500,
        rate_pps=30e9 / ((1500 + 24) * 8), count=frames, seed=1, arrival="paced",
    )

    def build():
        buffer = RemotePacketBuffer(
            tb.switch, channel, protected_port=tb.host_ports[1],
            config=PacketBufferConfig(
                entry_bytes=ENTRY_BYTES, high_watermark_bytes=0, low_watermark_bytes=1 << 30,
                manual_load=True,
            ),
        )
        program.use_packet_buffer(buffer)
        traffic.start()
        if count_build:
            tb.sim.run()
        return buffer

    buffer, kept = retained(build)
    if not count_build:
        _, kept = retained(tb.sim.run)
    assert buffer.stored_entries == frames
    return kept - channel.region.resident_bytes


@byte_budget
def test_a_stored_entry_costs_a_bounded_number_of_host_bytes():
    few, many = _parked(500, 1_516, False), _parked(1_500, 1_516, False)
    measured = (many - few) / 1_000
    assert 0 < measured <= RING_BYTES_PER_ENTRY, f"{measured:.0f} B per stored entry"


@byte_budget
def test_the_ring_bookkeeping_grows_with_occupancy_not_capacity():
    kept = _parked(100, 1 << 20, True)
    assert 0 < kept <= SPARSE_RING_BYTES, f"{kept} B for 100 entries of a 2**20-entry ring"


def _acknowledged_fetch_adds(window: int, operations: int):
    """*operations* updates of distinct counters in bursts of *window*, a
    burst per round trip, so exactly *window* ops are in flight at an ACK."""
    tb = build_testbed(n_hosts=1, seed=1)
    program = CountingProgram()
    tb.switch.bind_program(program)
    config = StateStoreConfig(counters=1024, reliable=True, max_outstanding=window)
    channel = tb.controller.open_channel(tb.memory_server, tb.server_port, 1024 * 8)
    store = RemoteStateStore(tb.switch, channel, config=config)
    program.use_state_store(store)
    for n in range(operations):
        burst, k = divmod(n, window)
        tb.sim.schedule_at(
            1_000.0 + burst * 10_000.0 * window + k * 10.0, store.update, n % 1024, 1
        )
    entries, garbage = profiled(tb.sim.run)
    assert store.metrics["acks_received"] == operations and store.metrics["updates_combined"] == 0
    assert store.metrics["retransmissions"] == 0 and store.outstanding == 0
    psn_distance_calls = sum(
        entry.callcount for entry in entries
        if getattr(entry.code, "co_name", "") == "psn_distance"
    )
    return _calls_in(entries, ("/core/state_store.py",)), psn_distance_calls, garbage


def test_retiring_an_acknowledged_fetch_add_costs_the_same_whatever_the_window():
    operations = 320
    narrow = _acknowledged_fetch_adds(1, operations)
    wide = _acknowledged_fetch_adds(16, operations)
    assert narrow == _acknowledged_fetch_adds(1, operations), "the counts must repeat exactly"
    # update, _issue, _locate, counter_address; _on_response, _retire_through,
    # _total_inflight, _flush: 8, plus a tenth of a retry timer.  It was 15.4
    # and two psn_distance calls per op *in the window* per ACK.
    assert 0 < narrow[0] <= STATE_STORE_CALLS_PER_OP * operations, (
        f"{narrow[0] / operations:.2f} state-store calls per op at window 1"
    )
    assert wide[0] <= narrow[0] + operations, (
        f"{wide[0] / operations:.2f} calls per op at window 16, "
        f"{narrow[0] / operations:.2f} at window 1"
    )
    assert narrow[1] == wide[1] == 0, "psn_distance ran on the ACK path"
    assert narrow[2] == wide[2] == 0


# -- (iv) regressions ----------------------------------------------------------------------


class FlipHeaderBit(Corrupt):
    """``Corrupt``, aimed: flips one bit at *offset* of the payload it meets."""

    def __init__(self, offset: int) -> None:
        super().__init__(1.0)
        self.offset = offset

    def _corrupted(self, packet):
        mutant = packet.clone()
        data = bytearray(mutant.payload)
        data[self.offset] ^= 0x01
        mutant.payload = bytes(data)
        return mutant


def _store_all_rig(frames, frame_bytes=1500, seed=7, read_qp=False, **config):
    tb = build_testbed(n_hosts=2, seed=seed)
    program = bind(tb, RemoteBufferProgram())
    entry_bytes = frame_bytes + ENTRY_SEQ_BYTES
    channel = tb.controller.open_channel(
        tb.memory_server, tb.server_port, (frames + 16) * entry_bytes
    )
    read_channels = [
        tb.controller.open_channel(tb.memory_server, tb.server_port, share_region_with=channel)
    ] if read_qp else None
    buffer = RemotePacketBuffer(
        tb.switch, channel, protected_port=tb.host_ports[1],
        config=PacketBufferConfig(
            entry_bytes=entry_bytes, high_watermark_bytes=0, low_watermark_bytes=1 << 30,
            **config,
        ),
        read_channels=read_channels,
    )
    program.use_packet_buffer(buffer)
    delivered = []
    tb.hosts[1].packet_handlers.append(lambda packet, interface: delivered.append(packet))
    tb.traffic = OpenLoopZipfTraffic(
        tb.sim, tb.hosts[0], tb.hosts[1], flows=64, alpha=0.0, packet_size=frame_bytes,
        rate_pps=30e9 / ((frame_bytes + 24) * 8), count=frames, seed=seed, arrival="paced",
    )
    tb.traffic.start()
    return tb, buffer, delivered


def test_a_corrupted_buffered_frame_is_a_counted_loss_not_an_exception():
    """The reproducer (600 of its 3 000 frames): integrity off, half the
    packets on the server link take a bit flip, and some flips land in a
    stored frame's IPv4 header — valid stamp, bad checksum.  ``sim.run()``
    raised ``HeaderError`` out of ``_complete_load``."""
    frames = 600
    tb, buffer, delivered = _store_all_rig(
        frames, manual_load=True, max_outstanding_reads=8, read_timeout_ns=200_000
    )
    plan = FaultPlan(seed=7)
    plan.at(0.0, plan.on_link(tb.server_links[0], name="wire"), Corrupt(0.5))
    plan.install(tb.sim)
    tb.sim.run()
    buffer.start_draining()
    tb.sim.run()
    lost = buffer.metrics["lost_in_transit"]
    assert buffer.metrics["stored_packets"] == frames and buffer.stored_entries == 0 and lost > 0
    assert len(delivered) == buffer.metrics["loaded_packets"] == frames - lost


def test_a_flip_in_a_stored_frames_ip_header_loses_exactly_that_frame():
    tb, buffer, delivered = _store_all_rig(5, manual_load=True)
    plan = FaultPlan(seed=1)
    wire = plan.on_link(tb.server_links[0], name="wire")
    # The third WRITE's payload: stamp (8), Ethernet (14), then IPv4's TTL byte.
    plan.on_packet(wire, FlipHeaderBit(ENTRY_SEQ_BYTES + 14 + 8), nth=3, count=1)
    plan.install(tb.sim)
    tb.sim.run()
    buffer.start_draining()
    tb.sim.run()
    assert wire.effects["corrupted"] == 1
    assert buffer.metrics["lost_in_transit"] == 1 and buffer.metrics["loaded_packets"] == 4
    sent = list(tb.traffic.schedule)
    assert [packet.meta["flow_rank"] for packet in delivered] == sent[:2] + sent[3:]
    assert buffer.stored_entries == 0 and not buffer.is_buffering


def test_a_corrupted_bounced_frame_is_a_lost_lookup_not_an_exception():
    tb = build_testbed(n_hosts=2, seed=7)
    program = bind(tb, RemoteLookupProgram())
    config = LookupTableConfig(entries=1 << 8, cache_entries=0, layout="cuckoo", hash_seed=7)
    channel = tb.controller.open_channel(tb.memory_server, tb.server_port, config.region_bytes)
    table = RemoteLookupTable(tb.switch, channel, config=config)
    program.use_lookup_table(table)
    delivered = []
    tb.hosts[1].packet_handlers.append(lambda packet, interface: delivered.append(packet))
    traffic = OpenLoopZipfTraffic(
        tb.sim, tb.hosts[0], tb.hosts[1], flows=4, alpha=0.0, packet_size=256,
        rate_pps=1e5, count=4, seed=7, arrival="paced",
    )
    for rank in range(4):
        key = traffic.flow_key(rank)
        table.install(
            FiveTuple(tb.hosts[0].eth.ip.value, tb.hosts[1].eth.ip.value, 17,
                      key.src_port, key.dst_port),
            RemoteAction(ACTION_SET_EGRESS, tb.host_ports[1]),
        )
    plan = FaultPlan(seed=1)
    wire = plan.on_link(tb.server_links[0], name="wire")
    # Each bounce is a WRITE (the frame), a READ and its response: the
    # fourth packet on the link is the second bounce's WRITE.
    plan.on_packet(wire, FlipHeaderBit(14 + 8), nth=4, count=1)
    plan.install(tb.sim)
    traffic.start()
    tb.sim.run()
    assert wire.effects["corrupted"] == 1
    assert table.metrics["remote_lookups"] == 4 and table.metrics["lookups_lost"] == 1
    assert len(delivered) == 3


def test_a_refused_write_on_its_own_qp_is_a_loss_known_at_send_time():
    """Separate read QPs, so only the WRITE side can jam: the refused
    WRITE's entry is lost when the switch refuses it, and the load pass
    retires it without a READ (it used to wait for a dequeue that never
    came)."""
    tb, buffer = buffer_rig(RemotePacketBuffer, read_qps=True, ring_entries=2048)
    blast(tb, 500)
    tb.sim.run()
    refused = tb.switch.port_queue(tb.server_ports[0]).dropped_packets
    assert refused > 0 and buffer.metrics["lost_in_transit"] >= refused
    assert buffer.stored_entries == 0 and not buffer.is_buffering
    lost = buffer.metrics["lost_in_transit"] + buffer.metrics["ring_full_drops"]
    assert len(tb.delivered) + lost == 1000


@pytest.mark.parametrize("read_qp", [False, True], ids=["shared-qp", "read-qp"])
@pytest.mark.parametrize("drops", [(7,), (7, 14)], ids=["read", "read-and-reissue"])
def test_a_lost_read_restarts_the_chain_at_its_nak(drops, read_qp):
    """No watchdog; the second READ (the 7th packet on the link) is lost,
    and in one case its reissue after the restart (the 14th) too.  The
    responder NAKs the READs behind the gap.  On a shared QP that NAK did
    not restart the read chain; and a guard that took every NAK naming
    the same PSN within a time window for an echo swallowed the NAKs of
    the lost reissue.  Either way the head READ waited forever."""
    tb, buffer, delivered = _store_all_rig(5, manual_load=True, read_qp=read_qp)
    plan = FaultPlan(seed=1)
    wire = plan.on_link(tb.server_links[0], name="wire")
    for nth in drops:
        plan.on_packet(wire, IidLoss(1.0), nth=nth, count=1)
    plan.install(tb.sim)
    tb.sim.run()
    buffer.start_draining()
    tb.sim.run()
    assert wire.effects["dropped"] == buffer.metrics["read_recoveries"] == len(drops)
    assert len(delivered) == buffer.metrics["loaded_packets"] == 5
    assert buffer.stored_entries == 0 and not buffer.is_buffering


def test_a_store_whose_write_leaves_at_once_does_not_end_the_episode_under_it():
    """Store-all with automatic loading: the server port is idle, so the
    WRITE is dequeued inside ``_store`` and the load pass re-enters.  It
    used to see a ring that did not hold the entry yet, find it empty and
    leave buffering mode with the entry stranded in it."""
    tb, buffer, delivered = _store_all_rig(1)
    seen = []
    tb.switch.tm.dequeue_listeners.append(
        lambda port, packet, queue: seen.append((buffer.is_buffering, buffer.stored_entries))
    )
    tb.sim.run()
    assert seen[0] == (True, 1)  # at the WRITE's dequeue, inside the store
    assert len(delivered) == 1 and buffer.metrics["buffering_episodes"] == 1
    assert buffer.stored_entries == 0 and not buffer.is_buffering


# -- (v) configuration is checked at construction ------------------------------------------


@pytest.mark.parametrize(
    "config, message",
    [
        (dict(entry_bytes=ENTRY_SEQ_BYTES), "stamp plus a frame"),
        (dict(entry_bytes=0), "stamp plus a frame"),
        (dict(entry_bytes=min(MAX_READ_BYTES, MAX_WRITE_BYTES) + 1), "must fit one RDMA WRITE"),
        (dict(max_outstanding_reads=0), "max_outstanding_reads"),
    ],
)
def test_a_buffer_configuration_that_cannot_work_is_refused(config, message):
    tb = build_testbed(n_hosts=2, seed=1)
    channel = tb.controller.open_channel(tb.memory_server, tb.server_port, 1 << 20)
    with pytest.raises(ValueError, match=message):
        RemotePacketBuffer(
            tb.switch, channel, protected_port=tb.host_ports[1],
            config=PacketBufferConfig(**config),
        )
    assert tb.switch.tm.egress_hook is None  # refused before anything was wired


def test_the_largest_entry_one_write_can_carry_is_accepted():
    tb = build_testbed(n_hosts=2, seed=1)
    entry_bytes = min(MAX_READ_BYTES, MAX_WRITE_BYTES)
    channel = tb.controller.open_channel(tb.memory_server, tb.server_port, 4 * entry_bytes)
    buffer = RemotePacketBuffer(
        tb.switch, channel, protected_port=tb.host_ports[1],
        config=PacketBufferConfig(entry_bytes=entry_bytes),
    )
    assert buffer.capacity_entries == 4
