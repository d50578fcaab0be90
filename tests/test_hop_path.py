"""The per-packet hop: serialiser -> link -> pipeline -> traffic manager -> kernel.

Four properties of the hop path (DESIGN.md §5.1, "the hop path"):

* it makes no cyclic garbage — a packet and its pipeline context die by
  reference count, whichever program handled them;
* it costs a bounded, exactly repeatable number of Python calls per frame;
* the traffic manager's admission keeps its byte pool, its two FIFO
  classes and its counters straight under any sequence of offers, polls
  and clock ticks;
* composites steer a RoCE response to its shard by one match on
  ``dest_qp``, and the match table tracks membership.

Plus the regressions that rode along: serialiser re-entrancy, NaN event
times, and ``PipelineContext.emit`` on a hand-built context.
"""

from __future__ import annotations

import cProfile
import gc
import math
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    ACTION_SET_DSCP,
    DEFAULT_LINK_RATE,
    ENTRY_SEQ_BYTES,
    CountingProgram,
    FiveTuple,
    Host,
    L4LbController,
    L4LbProgram,
    LookupTableConfig,
    MemoryPool,
    OpenLoopZipfTraffic,
    PacketBufferConfig,
    PipelineContext,
    RemoteAction,
    RemoteBufferProgram,
    RemoteLookupProgram,
    RemoteLookupTable,
    RemotePacketBuffer,
    RemoteStateStore,
    ReplicatedStateStore,
    RoceRequestGenerator,
    ShardedLookupTable,
    Simulator,
    StateStoreConfig,
    StaticL2Program,
    TrafficManagerConfig,
    build_testbed,
)
from repro.net.headers import Ipv4Header
from repro.rdma.headers import BthHeader
from repro.rdma.packets import build_write_request
from repro.rdma.qp import QueuePair
from repro.rdma.verbs import connect_qps
from repro.sim.simulator import SimulationError
from repro.sim.units import transmission_delay_ns
from repro.switches.traffic_manager import HookVerdict, PortQueue, TrafficManager
from repro.workloads.factory import udp_between

from .budgets import HOP_CALLS_PER_FRAME

PACKETS = 2_000


def bind(tb, program):
    for host, port in zip(tb.hosts, tb.host_ports):
        program.install(host.eth.mac, port)
    tb.switch.bind_program(program)
    return program


def count_deliveries(host):
    delivered = []
    host.packet_handlers.append(lambda packet, iface: delivered.append(packet.packet_id))
    return delivered


def zipf_traffic(tb, count=PACKETS, cls=OpenLoopZipfTraffic, **kwargs):
    options = dict(flows=512, alpha=1.0, packet_size=128, rate_pps=2e6, count=count, seed=3)
    options.update(kwargs)
    return cls(tb.sim, tb.hosts[0], tb.hosts[1], **options)


def install_flows(table, tb, traffic):
    for rank in traffic.distinct_ranks():
        key = traffic.flow_key(rank)
        flow = FiveTuple(
            src_ip=tb.hosts[0].eth.ip.value, dst_ip=tb.hosts[1].eth.ip.value,
            protocol=17, src_port=key.src_port, dst_port=key.dst_port,
        )
        table.install(flow, RemoteAction(ACTION_SET_DSCP, rank % 64))


# -- (i) no garbage ------------------------------------------------------------------


@contextmanager
def no_cyclic_garbage():
    """Run the body with the collector off; nothing in it may need one."""
    gc.collect()
    gc.disable()
    try:
        yield
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable == 0, f"the data path left {unreachable} objects to the cycle collector"


def test_static_l2_forwarding_makes_no_garbage():
    tb = build_testbed(n_hosts=2, with_memory_server=False, seed=1)
    bind(tb, StaticL2Program())
    delivered = count_deliveries(tb.hosts[1])
    zipf_traffic(tb, packet_size=64).start()
    with no_cyclic_garbage():
        tb.sim.run()
    assert len(delivered) == PACKETS


def test_remote_lookup_bounce_makes_no_garbage():
    tb = build_testbed(n_hosts=2, seed=1)
    program = bind(tb, RemoteLookupProgram())
    delivered = count_deliveries(tb.hosts[1])
    traffic = zipf_traffic(tb)
    config = LookupTableConfig(entries=1 << 12, cache_entries=0, layout="cuckoo", hash_seed=1)
    channel = tb.controller.open_channel(tb.memory_server, tb.server_port, config.region_bytes)
    table = RemoteLookupTable(tb.switch, channel, config=config)
    program.use_lookup_table(table)
    install_flows(table, tb, traffic)
    traffic.start()
    with no_cyclic_garbage():
        tb.sim.run()
    assert len(delivered) == PACKETS
    assert table.metrics["remote_lookups"] == PACKETS  # cache off: every packet bounced


def test_counting_program_makes_no_garbage():
    tb = build_testbed(n_hosts=2, seed=1)
    program = bind(tb, CountingProgram())
    delivered = count_deliveries(tb.hosts[1])
    config = StateStoreConfig(counters=1024, reliable=True)
    channel = tb.controller.open_channel(tb.memory_server, tb.server_port, config.counters * 8)
    store = RemoteStateStore(tb.switch, channel, config=config)
    program.use_state_store(store)
    zipf_traffic(tb).start()
    with no_cyclic_garbage():
        tb.sim.run()
        store.flush_all()
        tb.sim.run()
    assert len(delivered) == PACKETS
    assert store.metrics["acks_received"] > 0


def test_remote_buffer_store_and_drain_make_no_garbage():
    frame_bytes = 512
    entry_bytes = frame_bytes + ENTRY_SEQ_BYTES
    tb = build_testbed(n_hosts=2, seed=1)
    program = bind(tb, RemoteBufferProgram())
    delivered = count_deliveries(tb.hosts[1])
    channel = tb.controller.open_channel(
        tb.memory_server, tb.server_port, (PACKETS + 16) * entry_bytes
    )
    buffer = RemotePacketBuffer(
        tb.switch, channel, protected_port=tb.host_ports[1],
        config=PacketBufferConfig(
            entry_bytes=entry_bytes, high_watermark_bytes=0, low_watermark_bytes=1 << 30,
            manual_load=True, max_outstanding_reads=8,
        ),
    )
    program.use_packet_buffer(buffer)
    zipf_traffic(tb, packet_size=frame_bytes, rate_pps=4e6, arrival="paced").start()
    with no_cyclic_garbage():
        tb.sim.run()
    assert delivered == [] and buffer.metrics["stored_packets"] == PACKETS
    buffer.start_draining()
    with no_cyclic_garbage():
        tb.sim.run()
    assert len(delivered) == PACKETS


class VipTraffic(OpenLoopZipfTraffic):
    """Arrivals addressed to the load balancer's virtual IP."""

    vip = None

    def packet_for(self, rank):
        packet = super().packet_for(rank)
        packet.ipv4.dst = self.vip
        return packet


def test_l4lb_program_makes_no_garbage():
    backends, connections = 3, 256
    tb = build_testbed(n_hosts=2, n_memory_servers=backends + 1, seed=1)
    pool = MemoryPool(tb.controller, seed=1, fail_after=8)
    names = [f"backend{i}" for i in range(backends)]
    for name, server, port in zip(names, tb.memory_servers[1:], tb.server_ports[1:]):
        pool.add_server(server, port, name=name)
    program = bind(tb, L4LbProgram("10.9.9.9"))
    config = LookupTableConfig(
        entries=1 << 12, packet_slot_bytes=256, cache_entries=64, layout="cuckoo",
        hash_seed=1, policy="lru",
    )
    channel = tb.controller.open_channel(
        tb.memory_servers[0], tb.server_ports[0], config.region_bytes, name="l4lb:connections"
    )
    table = RemoteLookupTable(tb.switch, channel, config=config)
    program.use_connection_table(table)
    store = ReplicatedStateStore(
        tb.switch, pool, replication=2,
        config=StateStoreConfig(counters=2 * backends, reliable=True, retry_timeout_ns=50_000.0),
    )
    program.use_counter_store(store)
    controller = L4LbController(program, table, store, pool, seed=1)
    reached = []
    for name, server, port in zip(names, tb.memory_servers[1:], tb.server_ports[1:]):
        controller.add_backend(name, server.eth.ip, server.eth.mac, port, member=pool.member(name))
        server.packet_handlers.append(lambda packet, iface: reached.append(packet.packet_id))
    traffic = zipf_traffic(tb, cls=VipTraffic, flows=connections)
    traffic.vip = program.vip
    for rank in range(connections):
        key = traffic.flow_key(rank)
        controller.admit(FiveTuple(
            src_ip=tb.hosts[0].eth.ip.value, dst_ip=program.vip.value, protocol=17,
            src_port=key.src_port, dst_port=key.dst_port,
        ))
    traffic.start()
    with no_cyclic_garbage():
        tb.sim.run()
        store.flush_all()
        tb.sim.run()
    assert len(reached) == PACKETS
    assert table.metrics["remote_lookups"] > 0 and store.total("acks_received") > 0


# -- (ii) the call budget ----------------------------------------------------------------

HOP_FILES = (
    "/net/node.py", "/net/link.py", "/net/queues.py",
    "/switches/switch.py", "/switches/pipeline.py", "/switches/traffic_manager.py",
    "/sim/simulator.py", "/hosts/server.py",
)


def _hop_calls_forwarding(frames: int) -> int:
    """Calls into the hop files while *frames* 64 B frames cross the switch
    at line rate (bench_e2e's ``l2_forward`` geometry)."""
    tb = build_testbed(n_hosts=2, with_memory_server=False, seed=1)
    bind(tb, StaticL2Program())
    delivered = count_deliveries(tb.hosts[1])
    zipf_traffic(
        tb, count=frames, flows=64, alpha=0.0, packet_size=64, arrival="paced",
        rate_pps=DEFAULT_LINK_RATE / ((64 + 24) * 8),
    ).start()
    profiler = cProfile.Profile()
    profiler.enable()
    tb.sim.run()
    profiler.disable()
    assert len(delivered) == frames
    return sum(
        entry.callcount
        for entry in profiler.getstats()
        if getattr(entry.code, "co_filename", "").endswith(HOP_FILES)
    )


def test_forwarding_a_frame_costs_a_bounded_number_of_hop_calls():
    frames = 200
    calls = _hop_calls_forwarding(frames)
    assert calls == _hop_calls_forwarding(frames), "the count must repeat exactly"
    # Per frame: 7.3 wire (send and serialiser on two hops, the host's
    # deliver, a wake for about one frame in four, as the source paces at
    # line rate, and the host queue's offer and poll), 4 pipeline (the
    # pass, which counts the arrival, its context, forward, transmit), 3
    # traffic manager, 2.3 kernel (the generator's post and clock read,
    # the wakes' pushes) and the hosts' send/receive: 18.5, plus start-up.
    # It was 21.5 with a delivery event and a posted pass into the switch,
    # 27 with a tx-complete and a delivery event per hop, 42 with the
    # helper chains.
    assert 0 < calls <= HOP_CALLS_PER_FRAME * frames, f"{calls / frames:.1f} hop calls per frame"


# -- (iii) admission -------------------------------------------------------------------


_SIM = Simulator()
_A = Host(_SIM, "a", "02:00:00:00:00:01", "10.0.0.1")
_B = Host(_SIM, "b", "02:00:00:00:00:02", "10.0.0.2")
_QP = QueuePair(0x100, _A.eth.ip, _A.eth.mac)
connect_qps(_QP, QueuePair(0x200, _B.eth.ip, _B.eth.mac))


def make_packet(kind: str, size: int, ecn: int):
    if kind == "rdma":
        packet = build_write_request(_QP, 0x1000, 0x42, b"x" * size)
    else:
        packet = udp_between(_A, _B, size)
    packet.require(Ipv4Header).ecn = ecn
    return packet


operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("offer"), st.sampled_from(["rdma", "udp"]),
            st.integers(64, 1500), st.integers(0, 3),
        ),
        st.tuples(st.just("poll")),
        st.tuples(st.just("tick"), st.floats(0.0, 5_000.0)),
    ),
    min_size=1, max_size=60,
)
configs = st.fixed_dictionaries(dict(
    buffer_bytes=st.integers(1_500, 12_000),
    per_queue_limit_bytes=st.none() | st.integers(1_000, 8_000),
    rdma_priority=st.booleans(),
    rdma_reserved_bytes=st.integers(0, 3_000),
    rdma_rate_cap_bps=st.none() | st.sampled_from([1e9, 10e9]),
    rdma_cap_burst_bytes=st.integers(500, 4_000),
    ecn_threshold_bytes=st.none() | st.integers(0, 6_000),
))


def _check_admission(config, with_hook, with_listeners, with_classifier, ops):
    """Run *ops* against one port queue, checking each step against what
    admission means: a byte pool, two FIFO classes, a token bucket."""
    clock = [0.0]
    if with_classifier:
        # A finer class than "any RoCE": odd-sized packets, RoCE or not.
        config = dict(config, priority_classifier=lambda packet: packet.buffer_len % 2)
    tm = TrafficManager(TrafficManagerConfig(**config))
    tm.clock = lambda: clock[0]
    queue = PortQueue(tm, 0)
    cfg = tm.config
    classified = cfg.rdma_priority or cfg.rdma_rate_cap_bps is not None
    held = {True: [], False: []}  # by strict-priority class, oldest first
    seen = [0]
    calls = []
    if with_hook:
        def hook(port, packet, q):  # consumes every third large packet
            seen[0] += packet.buffer_len > 700
            consumed = packet.buffer_len > 700 and seen[0] % 3 == 0
            return HookVerdict.CONSUMED if consumed else HookVerdict.PASS

        tm.egress_hook = hook
    if with_listeners:
        for tag in ("first", "second"):
            tm.dequeue_listeners.append(
                lambda port, packet, q, tag=tag: calls.append((tag, port, packet))
            )
    tokens, refilled = float(cfg.rdma_cap_burst_bytes), 0.0
    dropped = [0, 0]  # queue: packets, bytes
    total = [0, 0]  # TM: packets, bytes
    policed = marked = enqueued = peak = 0
    for op in ops:
        if op[0] == "offer":
            packet = make_packet(*op[1:])
            size, ect = packet.buffer_len, packet.require(Ipv4Header).ecn in (1, 2)
            consumed = with_hook and size > 700 and (seen[0] + 1) % 3 == 0
            depth = queue.depth_bytes
            admitted = queue.offer(packet)
            if consumed:
                assert admitted and packet not in held[True] + held[False]
                continue
            is_rdma = classified and bool(
                cfg.priority_classifier(packet) if cfg.priority_classifier is not None
                else packet.find(BthHeader) is not None
            )
            refused_by_policer = False
            if is_rdma and cfg.rdma_rate_cap_bps is not None:
                now = clock[0]
                tokens = min(
                    cfg.rdma_cap_burst_bytes,
                    tokens + max(0.0, now - refilled) * cfg.rdma_rate_cap_bps / 8e9,
                )
                refilled = now
                refused_by_policer = tokens < size
                if not refused_by_policer:
                    tokens -= size
            pool = cfg.buffer_bytes
            if cfg.rdma_priority and not is_rdma:
                pool -= cfg.rdma_reserved_bytes
            limit = cfg.per_queue_limit_bytes
            refused_by_pool = not refused_by_policer and (
                depth + size > pool or (limit is not None and depth + size > limit)
            )
            assert admitted is not (refused_by_policer or refused_by_pool)
            if refused_by_policer:
                policed += 1
            if refused_by_pool:
                dropped = [dropped[0] + 1, dropped[1] + size]
            if not admitted:
                total = [total[0] + 1, total[1] + size]
                continue
            enqueued += 1
            threshold = cfg.ecn_threshold_bytes
            hot = threshold is not None and depth >= threshold
            assert (packet.require(Ipv4Header).ecn == 3) is (hot and ect or op[3] == 3)
            marked += hot and ect
            held[is_rdma and cfg.rdma_priority].append(packet)
        elif op[0] == "poll":
            expected = next((fifo.pop(0) for fifo in (held[True], held[False]) if fifo), None)
            calls.clear()
            assert queue.poll() is expected
            if with_listeners and expected is not None:
                assert calls == [("first", 0, expected), ("second", 0, expected)]
            else:
                assert calls == []
        else:
            clock[0] += op[1]
        held_bytes = sum(p.buffer_len for fifo in held.values() for p in fifo)
        assert tm.used_bytes == queue.depth_bytes == held_bytes
        assert len(queue) == len(held[True]) + len(held[False])
        peak = max(peak, held_bytes)
        assert queue.peak_depth_bytes == tm.peak_used_bytes == peak
        assert [queue.dropped_packets, queue.dropped_bytes] == dropped
        assert [tm.total_dropped_packets, tm.total_dropped_bytes] == total
        assert (queue.rdma_policer_drops, queue.ecn_marked) == (policed, marked)
        assert queue.enqueued_packets == enqueued


@settings(max_examples=150, deadline=None)
@given(configs, st.booleans(), st.booleans(), st.booleans(), operations)
def test_admission_keeps_the_pool_the_classes_and_the_counters(
    config, with_hook, with_listeners, with_classifier, ops
):
    """One port's queue alone on its TM: the pool holds exactly the queued
    bytes; the RDMA class is polled first and each class is FIFO; a packet
    is refused if and only if the policer, the pool (less the RDMA
    headroom for other traffic) or the per-queue limit says no, and counted
    where that refusal is counted; CE is marked if and only if the queue is
    at its threshold and the packet is ECT; a consumed packet is neither
    queued nor a drop; every listener sees every poll, in order; the peaks
    are the maxima."""
    _check_admission(config, with_hook, with_listeners, with_classifier, ops)


# -- (iv) response steering: the switch's one QPN table -------------------------------------


def brute_force_requesters(*owners):
    """dest_qp -> requester by asking every owner for its requesters in turn."""
    found = {}
    for owner in owners:
        gens = [
            getattr(owner, "rocegen", None), getattr(owner, "_fastgen", None),
            *getattr(owner, "rocegens", ()), *getattr(owner, "read_rocegens", ()),
        ]
        for gen in gens:
            if gen is not None:
                assert gen.on_response.__self__ is owner  # its handler is its owner's
                found[gen.channel.switch_qp.qpn] = gen
    return found


def sharded_lookup(servers=3):
    tb = build_testbed(n_hosts=2, n_memory_servers=servers, seed=1)
    pool = MemoryPool(tb.controller, seed=1)
    for server, port in zip(tb.memory_servers, tb.server_ports):
        pool.add_server(server, port)
    program = bind(tb, RemoteLookupProgram())
    table = ShardedLookupTable(
        tb.switch, pool, config=LookupTableConfig(entries=1 << 12, cache_entries=0)
    )
    program.use_lookup_table(table)
    return tb, pool, table


def test_steering_map_tracks_join_leave_retire_and_rejoin():
    tb, pool, table = sharded_lookup(servers=3)

    def check(expected_qps):
        requesters = tb.switch.requesters
        assert requesters == brute_force_requesters(*table._retired, *table.shards.values())
        assert len(requesters) == expected_qps

    check(3)
    pool.remove_server("memserver2")  # graceful leave: the shard retires
    check(3)
    assert len(table.shards) == 2 and len(table._retired) == 1
    pool.fail_server("memserver1")  # death: retired too, still addressable
    check(3)
    pool.add_server(tb.memory_servers[2], tb.server_ports[2], name="memserver2")
    check(4)  # the re-joined member's fresh QP beside its retired one
    rejoined = table.shards["memserver2"]
    assert tb.switch.requesters[rejoined.channel.switch_qp.qpn] is rejoined.rocegen


def test_a_retired_shards_responses_still_reach_it():
    tb, pool, table = sharded_lookup(servers=2)
    traffic = zipf_traffic(tb, count=200, flows=64)
    install_flows(table, tb, traffic)
    delivered = count_deliveries(tb.hosts[1])
    traffic.start()
    leaver = table.shards["memserver1"]
    at_leave = {}

    def leave():
        at_leave.update(hits=leaver.metrics["remote_hits"], pending=len(leaver.rocegen.window))
        pool.remove_server("memserver1")

    tb.sim.schedule_at(20_000.0, leave)
    tb.sim.run()
    assert at_leave["pending"] > 0, "the leave must catch lookups in flight"
    assert leaver in table._retired
    assert tb.switch.requesters[leaver.channel.switch_qp.qpn] is leaver.rocegen
    assert leaver.metrics["remote_hits"] == at_leave["hits"] + at_leave["pending"]
    assert len(delivered) == 200 and table.lookups_lost == 0


def test_steering_follows_a_qp_reconnect():
    """A reconnect renumbers a channel with no membership event: the
    controller re-keys its requester, and the old QPN reaches no owner."""
    tb, pool, table = sharded_lookup(servers=2)
    traffic = zipf_traffic(tb, count=100, flows=64)
    install_flows(table, tb, traffic)
    delivered = count_deliveries(tb.hosts[1])
    old_qpns = [shard.channel.switch_qp.qpn for shard in table.shards.values()]
    for shard in table.shards.values():
        tb.controller.reconnect_channel(shard.channel)
    assert not set(old_qpns) & {s.channel.switch_qp.qpn for s in table.shards.values()}
    assert not set(old_qpns) & set(tb.switch.requesters)
    assert tb.switch.requesters == brute_force_requesters(*table.shards.values())
    traffic.start()
    tb.sim.run()
    assert len(delivered) == 100 and table.total("remote_hits") == 100


def test_replicated_store_and_striped_buffer_steer_by_qp():
    tb = build_testbed(n_hosts=2, n_memory_servers=3, seed=1)
    pool = MemoryPool(tb.controller, seed=1)
    for server, port in zip(tb.memory_servers, tb.server_ports):
        pool.add_server(server, port)
    store = ReplicatedStateStore(tb.switch, pool, replication=2)
    assert tb.switch.requesters == brute_force_requesters(*store.stores.values())
    pool.remove_server("memserver0")  # the closed replica keeps its entry
    stores = [*store._retired, *store.stores.values()]
    assert tb.switch.requesters == brute_force_requesters(*stores)
    assert len(tb.switch.requesters) == 3

    channels = tb.open_channels(64 * 1024)
    read_channels = [
        tb.controller.open_channel(server, port, share_region_with=channel)
        for server, port, channel in zip(tb.memory_servers, tb.server_ports, channels)
    ]
    buffer = RemotePacketBuffer(
        tb.switch, channels, protected_port=tb.host_ports[1], read_channels=read_channels
    )
    assert len(brute_force_requesters(buffer)) == 6  # a write and a read QP per server
    assert tb.switch.requesters == brute_force_requesters(*stores, buffer)
    pool.add_server(tb.memory_servers[0], tb.server_ports[0], name="late")
    stores.append(store.stores["late"])
    assert tb.switch.requesters == brute_force_requesters(*stores, buffer)
    assert len(tb.switch.requesters) == 6 + 4
    assert tb.switch.requesters[buffer.read_channels[2].switch_qp.qpn] is buffer.read_rocegens[2]


def test_a_second_handler_on_one_qpn_raises():
    tb = build_testbed(n_hosts=1, seed=1)
    channel = tb.controller.open_channel(tb.memory_server, tb.server_port, 4096)
    store = RemoteStateStore(tb.switch, channel, config=StateStoreConfig(counters=16))
    RoceRequestGenerator(tb.switch, channel)  # no handler: never in the table
    with pytest.raises(ValueError, match="already has a response handler"):
        RoceRequestGenerator(tb.switch, channel, on_response=store._on_response)
    assert tb.switch.requesters == {channel.switch_qp.qpn: store.rocegen}


# -- regressions that rode along ----------------------------------------------------------


def test_a_listener_that_refills_and_kicks_does_not_start_a_second_frame():
    """Two 1500 B frames from an idle 40 G port must leave one serialisation
    time apart, even when a dequeue listener re-injects the second one and
    kicks the port from inside the first one's dequeue (what the remote
    packet buffer's reorder drain does)."""
    tb = build_testbed(n_hosts=2, with_memory_server=False, seed=1)
    bind(tb, StaticL2Program())
    port = tb.host_ports[1]
    queue, iface = tb.switch.port_queue(port), tb.switch.port_interface(port)
    first = udp_between(tb.hosts[0], tb.hosts[1], 1500)
    second = udp_between(tb.hosts[0], tb.hosts[1], 1500)
    arrivals = []
    tb.hosts[1].packet_handlers.append(
        lambda packet, _iface: arrivals.append((packet.packet_id, tb.sim.now))
    )

    def refill(_port, packet, q):
        if packet is first:
            q.enqueue_direct(second)
            iface.kick()

    tb.switch.tm.dequeue_listeners.append(refill)
    tb.switch.transmit(first, port)
    tb.sim.run()
    assert [pid for pid, _ in arrivals] == [first.packet_id, second.packet_id]
    gap = arrivals[1][1] - arrivals[0][1]
    assert gap == pytest.approx(transmission_delay_ns(second.wire_len, DEFAULT_LINK_RATE))
    assert iface.tx_packets == 2


def test_nan_times_are_rejected_at_every_entry_point():
    sim = Simulator()
    fired = []
    nan = float("nan")
    with pytest.raises(SimulationError):
        sim.schedule(nan, fired.append, 1)
    with pytest.raises(SimulationError):
        sim.schedule_at(nan, fired.append, 2)
    with pytest.raises(SimulationError):
        sim.post(nan, fired.append, 3)
    with pytest.raises(SimulationError):
        sim.post(-1.0, fired.append, 4)
    sim.post(5.0, fired.append, 5)
    sim.run(until_ns=10.0)
    assert fired == [5] and sim.now == 10.0


def test_emit_works_on_a_hand_built_context():
    tb = build_testbed(n_hosts=2, with_memory_server=False, seed=1)
    packet = udp_between(tb.hosts[0], tb.hosts[1], 128)
    ctx = PipelineContext(tb.switch, 0)
    clone = packet.clone()
    ctx.emit(clone, 1)
    ctx.emit(packet, 0)
    assert ctx.emitted == [(clone, 1), (packet, 0)]
    assert not hasattr(ctx, "__dict__")  # a fixed struct: nothing can be hung on it
    assert not hasattr(tb.switch.port_interface(0), "on_idle")
