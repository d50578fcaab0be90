"""The bounced lookup's whole path (ISSUE 24): generation, front, bounce, response.

``stamp_ports`` builds a generated packet straight from the template's
three headers; ``ShardedLookupTable`` extracts and packs the flow key once
per pass and hands both to the shard it chose by them; a response is looked
at once (one BTH find, one in-place scan of the fetched action field).
Four angles:

(i)   the path's semantics over seeded scenarios (layouts, modes,
      caches, tiers, shards with churn, loss, a breaker, a reconnect):
      one READ per miss, every lookup delivered or counted lost, empty
      windows at the end; and the traffic source against its
      transcription (``tests/reference``);
(ii)  the one-pass scan against slot-by-slot ``RemoteAction.unpack`` over
      arbitrary bucket-pair bytes, and ``stamp_ports`` against ``clone()``
      plus field stores;
(iii) the count guard — calls per bounced lookup through a sharded cuckoo
      table, no cyclic garbage;
(iv)  the regressions: a READ response shorter than the action field is
      a counted loss, not a ``struct.error`` out of ``sim.run()``; a
      bounced packet comes back with the ``meta`` it left with;
(v)   the byte guard — remote host memory per touched bucket pair holds
      what installs and bounces wrote, not the pair's pages.
"""

from __future__ import annotations

import functools
import struct
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    ACTION_SET_DSCP,
    BreakerPolicy,
    CircuitBreakerConfig,
    FaultPlan,
    FiveTuple,
    LookupTableConfig,
    MemoryPool,
    OpenLoopZipfTraffic,
    RemoteAction,
    RemoteLookupProgram,
    RemoteLookupTable,
    ShardedLookupTable,
    TieredMemoryPool,
    build_testbed,
)
from repro.core.lookup_table import ACTION_BYTES
from repro.faults.models import IidLoss
from repro.net.headers import HeaderError
from repro.rdma.headers import RethHeader
from repro.resilience.guard import SelfHealingChannel
from repro.sim.rng import SeedSequence
from repro.sim.units import usec
from repro.workloads.factory import stamp_ports, udp_between

from .budgets import LOOKUP_CALLS_PER_MISS, REMOTE_BYTES_PER_LOOKUP_PAIR, profiled
from .reference import ReferenceZipfTraffic, reference_stamp_ports, reference_unpack
from .test_hop_path import bind

LIVE = (RemoteLookupTable, ShardedLookupTable, OpenLoopZipfTraffic)
LOOKUP_FILES = ("core/lookup_table.py",)
LOOKUP_DIRS = ("/repro/cluster/", "/repro/workloads/")


# -- (i) the lookup path's semantics, at a cut mid-run and at the end -------------------------


def flow_of_rank(tb, traffic, rank):
    key = traffic.flow_key(rank)
    return FiveTuple(
        tb.hosts[0].eth.ip.value, tb.hosts[1].eth.ip.value, 17, key.src_port, key.dst_port
    )


def rig(servers=1, seed=5):
    tb = build_testbed(n_hosts=2, n_memory_servers=servers, seed=seed)
    tb.program = bind(tb, RemoteLookupProgram())
    tb.delivered = delivered = []

    def record(packet, interface):
        ip, udp = packet.ipv4, packet.udp
        delivered.append(
            (tb.sim.now, udp.src_port, udp.dst_port, ip.dscp, ip.dst.value, ip.ttl,
             ip.total_length, packet.eth.dst, packet.buffer_len, dict(packet.meta))
        )

    tb.hosts[1].packet_handlers.append(record)
    return tb


def offer(tb, table, traffic_type, installed=0.7, **options):
    """Zipf traffic over 96 flows; actions for *installed* of the ranks offered,
    so the rest resolve to the default action."""
    settings_ = dict(flows=96, alpha=1.0, packet_size=128, rate_pps=2e6, count=500, seed=3)
    settings_.update(options)
    traffic = traffic_type(tb.sim, tb.hosts[0], tb.hosts[1], **settings_)
    ranks = traffic.distinct_ranks()
    for rank in ranks[: max(1, int(installed * len(ranks)))]:
        table.install(flow_of_rank(tb, traffic, rank), RemoteAction(ACTION_SET_DSCP, rank % 64))
    traffic.start()
    return traffic


def in_flight(shard):
    """A shard's READ windows (one per PSN stream) and its tier-block holds."""
    gens = [gen for gen in (shard.rocegen, shard._fastgen) if gen is not None]
    return [dict(gen.window) for gen in gens] + [{}] * (2 - len(gens)) + [dict(shard._busy_blocks)]


def observe(tb, shards, traffic):
    if isinstance(traffic, ReferenceZipfTraffic):
        kept = (traffic._packets_sent, list(traffic._sent_by_rank.items()))
        assert kept == (traffic.packets_sent, list(traffic.sent_by_rank.items()))
    gens = [gen for shard in shards for gen in (shard.rocegen, shard._fastgen) if gen is not None]
    return {
        "registry": tb.sim.obs.registry.snapshot(),
        "events": tb.sim.events_processed,
        "now": tb.sim.now,
        "delivered": list(tb.delivered),
        "in_flight": [in_flight(shard) for shard in shards],
        "sent": (traffic.packets_sent, dict(traffic.sent_by_rank)),
        # READs beyond one per miss: the breaker's probes only.
        "extra_reads": sum(gen.metrics["reads_issued"] for gen in gens)
        - sum(shard.metrics["remote_lookups"] for shard in shards),
        "lost": sum(shard.metrics["lookups_lost"] for shard in shards),
    }


def run_with_cut(tb, shards, traffic, cut_ns=usec(60)):
    """The run observed mid-flight and at the end."""
    tb.sim.run(until_ns=cut_ns)
    cut = observe(tb, shards(), traffic)
    assert any(pending or fast for pending, fast, _ in cut["in_flight"]), "cut caught nothing"
    tb.sim.run(max_events=2_000_000)
    return cut, observe(tb, shards(), traffic)


def policy_point(types, layout, mode, cache_entries=0, policy="fifo", cache_fill=True):
    table_type, _, traffic_type = types
    tb = rig()
    config = LookupTableConfig(
        entries=1 << 7, cache_entries=cache_entries, layout=layout, mode=mode, hash_seed=5,
        policy=policy, cache_fill=cache_fill, packet_slot_bytes=256,
    )
    channel = tb.controller.open_channel(tb.memory_server, tb.server_port, config.region_bytes)
    table = table_type(tb.switch, channel, config=config)
    tb.program.use_lookup_table(table)
    traffic = offer(tb, table, traffic_type)
    cut, end = run_with_cut(tb, lambda: [table], traffic)
    metrics = table.metrics
    assert metrics["remote_hits"] and metrics["remote_invalid"] + metrics["fingerprint_mismatches"]
    assert len(tb.delivered) == 500 and metrics["lookups_lost"] == 0
    assert bool(metrics["local_hits"]) == bool(cache_entries and cache_fill)
    assert bool(metrics["recirculation_passes"]) == (mode == "recirculate")
    return cut, end


def tiered(types):
    """Hot pairs get promoted mid-run: lookups ride both PSN streams and
    hold their block against tier moves while in flight."""
    table_type, _, traffic_type = types
    tb = rig()
    config = LookupTableConfig(
        entries=1 << 7, cache_entries=0, layout="cuckoo", hash_seed=5, packet_slot_bytes=256
    )
    pool = TieredMemoryPool(
        tb.controller, policy="frequency", policy_seed=5, tick_ns=usec(40), seed=5,
        fast_capacity_bytes=4 * 2 * config.pair_bytes,
    )
    member = pool.add_server(tb.memory_server, tb.server_port)
    geometry = pool.tier_object(
        "lookup", config.pair_bytes, config.pairs, units_per_block=2, member=member,
        fast_blocks=4,
    )
    table = table_type(tb.switch, config=config, tiering=geometry)
    tb.program.use_lookup_table(table)
    # Slow enough that hot blocks are idle (movable) at some ticks.
    traffic = offer(tb, table, traffic_type, installed=1.0, count=800, rate_pps=3e5)
    cut, end = run_with_cut(tb, lambda: [table], traffic, cut_ns=usec(1_000))
    assert cut["in_flight"][0][2], "no block was held at the cut"
    fast_reads = table._fastgen.metrics["reads_issued"]
    assert 0 < fast_reads < table.metrics["remote_lookups"] == 800
    assert len(tb.delivered) == 800
    return cut, end


def sharded_with_churn(types):
    """Three members, then a join, a graceful leave (drain) and a death."""
    _, sharded_type, traffic_type = types
    tb = rig(servers=4)
    pool = MemoryPool(tb.controller, vnodes=32, seed=1)
    for server, port in zip(tb.memory_servers[:3], tb.server_ports[:3]):
        pool.add_server(server, port)
    config = LookupTableConfig(
        entries=1 << 8, cache_entries=0, layout="cuckoo", hash_seed=5, packet_slot_bytes=256
    )
    table = sharded_type(tb.switch, pool, config=config)
    tb.program.use_lookup_table(table)
    traffic = offer(tb, table, traffic_type, installed=1.0, count=900, rate_pps=3e6)
    at_leave = {}

    def leave():
        at_leave["pending"] = len(table.shards["memserver1"].rocegen.window)
        pool.remove_server("memserver1")

    def die():
        at_leave["dying"] = len(table.shards["memserver0"].rocegen.window)
        pool.fail_server("memserver0")

    tb.sim.schedule_at(usec(50), pool.add_server, tb.memory_servers[3], tb.server_ports[3])
    tb.sim.schedule_at(usec(120), leave)
    tb.sim.schedule_at(usec(200), die)
    shards = lambda: [*table.shards.values(), *table._retired]  # noqa: E731
    cut, end = run_with_cut(tb, shards, traffic, cut_ns=usec(121))
    assert at_leave["pending"] > 0 and at_leave["dying"] > 0
    cluster = table.cluster_stats
    assert (cluster.members_joined, cluster.members_left, cluster.members_failed) == (1, 1, 1)
    assert cluster.drains_completed == 1 and cluster.flows_migrated > 0
    assert cluster.lookups_lost_on_failure == at_leave["dying"]
    assert len(tb.delivered) == 900 - at_leave["dying"] and end["lost"] == 0
    end["cluster"] = (vars(cluster), dict(table._placement), sorted(table.shards))
    return cut, end


def lossy_link(types):
    """3 % loss on the server link: NAK resyncs, echo NAKs, lost lookups."""
    table_type, _, traffic_type = types
    tb = rig()
    config = LookupTableConfig(
        entries=1 << 7, cache_entries=0, layout="cuckoo", hash_seed=5, packet_slot_bytes=256
    )
    channel = tb.controller.open_channel(tb.memory_server, tb.server_port, config.region_bytes)
    table = table_type(tb.switch, channel, config=config)
    tb.program.use_lookup_table(table)
    tb.server_links[0].loss_probability = 0.03
    traffic = offer(tb, table, traffic_type, count=1500)
    cut, end = run_with_cut(tb, lambda: [table], traffic)
    roce = table.rocegen.metrics
    assert 0 < roce["strikes"] < roce["naks_received"], "no echo NAK was ignored"
    assert table.metrics["lookups_lost"] > 0
    assert len(tb.delivered) + table.metrics["lookups_lost"] == 1500
    # A lookup is written off only when its READ drew no response: every
    # response the table received for a tracked READ delivered its packet.
    assert len(tb.delivered) == table.metrics["remote_hits"] + table.metrics["remote_invalid"] + (
        table.metrics["fingerprint_mismatches"]
    )
    return cut, end


def breaker_opens_and_recovers(types):
    """An outage opens the breaker: in-flight bounces are written off, misses
    get the default action, then a reconnect, a probe and remote lookups again."""
    table_type, _, traffic_type = types
    tb = rig()
    config = LookupTableConfig(
        entries=1 << 7, cache_entries=16, layout="cuckoo", hash_seed=5, policy="lru",
        packet_slot_bytes=256,
    )
    channel = tb.controller.open_channel(tb.memory_server, tb.server_port, config.region_bytes)
    table = table_type(tb.switch, channel, config=config)
    tb.program.use_lookup_table(table)
    guard = SelfHealingChannel(
        tb.controller, channel, table,
        policy=BreakerPolicy(
            config=CircuitBreakerConfig(
                fail_threshold=2, close_threshold=1, open_timeout_ns=usec(40),
                probe_timeout_ns=usec(30), probe_jitter_ns=usec(5), backoff=2.0,
            ),
            rng=SeedSequence(5).stream("breaker"),
        ),
    )
    plan = FaultPlan(seed=5)
    plan.at(usec(80), plan.on_link(tb.server_links[0], name="wire"), IidLoss(0.6),
            duration_ns=usec(120))
    plan.install(tb.sim)
    traffic = offer(tb, table, traffic_type, count=1200)
    cut, end = run_with_cut(tb, lambda: [table], traffic)
    degraded = table.metrics["degraded_defaults"]
    assert guard.breaker.opens >= 1 and guard.reconnects >= 1 and guard.breaker.is_closed
    assert degraded > 0 and table.metrics["degraded_hits"] > 0
    assert table.metrics["remote_lookups"] + table.metrics["local_hits"] + degraded == 1200
    assert end["extra_reads"] == guard.reconnects  # one probe down each fresh QP
    end["extra_reads"] = 0
    return cut, end


def qp_reconnect(types):
    """A reconnect renumbers every shard's QP mid-run with no membership
    event: the controller re-keys each requester in the switch's table."""
    _, sharded_type, traffic_type = types
    tb = rig(servers=2)
    pool = MemoryPool(tb.controller, seed=1)
    for server, port in zip(tb.memory_servers, tb.server_ports):
        pool.add_server(server, port)
    config = LookupTableConfig(entries=1 << 8, cache_entries=0, packet_slot_bytes=256)
    table = sharded_type(tb.switch, pool, config=config)
    tb.program.use_lookup_table(table)
    traffic = offer(tb, table, traffic_type, installed=1.0)
    before = sorted(tb.switch.requesters)

    def reconnect():
        for shard in table.shards.values():
            tb.controller.reconnect_channel(shard.channel)

    tb.sim.schedule_at(usec(100), reconnect)
    cut, end = run_with_cut(tb, lambda: list(table.shards.values()), traffic)
    assert not set(before) & set(tb.switch.requesters), "the table was never re-keyed"
    assert table.total("remote_hits") + table.lookups_lost == 500
    end["steering"] = sorted(tb.switch.requesters)
    return cut, end


def both_buckets_the_same(types):
    """A key whose two bucket hashes name one pair (``h0 == h1``)."""
    table_type, _, traffic_type = types
    tb = rig()
    config = LookupTableConfig(
        entries=1 << 6, cache_entries=0, layout="cuckoo", hash_seed=5, packet_slot_bytes=256
    )
    channel = tb.controller.open_channel(tb.memory_server, tb.server_port, config.region_bytes)
    table = table_type(tb.switch, channel, config=config)
    tb.program.use_lookup_table(table)
    probe = traffic_type(tb.sim, tb.hosts[0], tb.hosts[1], flows=4096, count=1)
    keys = ((rank, flow_of_rank(tb, probe, rank).pack()) for rank in range(4096))
    twins = [
        rank for rank, packed in keys if table.dataplane.h0(packed) == table.dataplane.h1(packed)
    ][:12]
    assert len(twins) == 12
    traffic = traffic_type(
        tb.sim, tb.hosts[0], tb.hosts[1], flows=4096, alpha=0.0, packet_size=128,
        rate_pps=2e6, count=len(twins) * 20, seed=3,
    )
    traffic.schedule[:] = array("I", twins * 20)
    for rank in twins:
        table.install(flow_of_rank(tb, traffic, rank), RemoteAction(ACTION_SET_DSCP, rank % 64))
    traffic.start()
    cut, end = run_with_cut(tb, lambda: [table], traffic)
    assert table.metrics["remote_hits"] == len(tb.delivered) == 240
    assert {record[3] for record in tb.delivered} == {rank % 64 for rank in twins}
    return cut, end


SCENARIOS = {
    "direct-bounce": lambda types: policy_point(types, "direct", "bounce"),
    "direct-recirculate": lambda types: policy_point(types, "direct", "recirculate"),
    "cuckoo-bounce": lambda types: policy_point(types, "cuckoo", "bounce"),
    "cuckoo-recirculate": lambda types: policy_point(types, "cuckoo", "recirculate"),
    "cuckoo-fifo-cache": lambda types: policy_point(types, "cuckoo", "bounce", 16, "fifo"),
    "cuckoo-lru-cache": lambda types: policy_point(types, "cuckoo", "bounce", 16, "lru"),
    "direct-lru-no-fill": lambda types: policy_point(
        types, "direct", "bounce", 16, "lru", cache_fill=False
    ),
    "tiered": tiered,
    "sharded-join-leave-death": sharded_with_churn,
    "lossy-link": lossy_link,
    "breaker": breaker_opens_and_recovers,
    "qp-reconnect": qp_reconnect,
    "h0-equals-h1": both_buckets_the_same,
}


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_every_miss_is_one_read_and_every_lookup_lands_or_is_counted(scenario):
    """One READ per miss, and at the end nothing left in a window or
    holding a tier block: every lookup was answered or written off."""
    cut, end = SCENARIOS[scenario](LIVE)
    assert end["extra_reads"] == 0, f"{end['extra_reads']} READs beyond one per miss"
    assert all(window == {} for shard in end["in_flight"] for window in shard)


def test_the_traffic_source_matches_the_one_it_replaced():
    """Generation alone against its transcription (a ``FlowKey`` and a
    clone per packet, the ledger kept by the tick): one seeded schedule,
    the same deliveries, header fields, ``meta`` and clock."""
    types = (RemoteLookupTable, ShardedLookupTable, ReferenceZipfTraffic)
    for mine, theirs in zip(SCENARIOS["cuckoo-bounce"](LIVE), SCENARIOS["cuckoo-bounce"](types)):
        assert mine == theirs


# -- (ii) the scan and the stamp, property by property ---------------------------------------

_SLOT = struct.Struct("!BBII6x")
_slots = st.tuples(
    st.sampled_from([0, 0, 1, 1, 7]),  # valid: any non-zero byte
    st.integers(0, 255),
    st.integers(0, 0xFFFFFFFF),
    st.sampled_from([0, 1, 0xDEADBEEF, 0xFFFFFFFF]),  # few values: duplicates are common
)


@functools.cache
def scan_table(layout):
    tb = build_testbed(n_hosts=2, seed=1)
    config = LookupTableConfig(entries=1 << 6, cache_entries=0, layout=layout)
    channel = tb.controller.open_channel(tb.memory_server, tb.server_port, config.region_bytes)
    return RemoteLookupTable(
        tb.switch, channel, config=config, default_action=RemoteAction(9, 9)
    )


_SCAN_COUNTERS = ("remote_hits", "fingerprint_mismatches", "remote_invalid")


def slot_by_slot(table, entry, fingerprint):
    """The scan as it stood: every slot sliced out and decoded whole."""
    occupied = False
    for offset in range(0, table._action_bytes, ACTION_BYTES):
        valid, action, stored = reference_unpack(entry[offset:offset + ACTION_BYTES])
        assert (valid, action, stored) == RemoteAction.unpack(entry[offset:])
        if valid and stored == fingerprint:
            return action, "remote_hits"
        occupied = occupied or valid
    return table.default_action, "fingerprint_mismatches" if occupied else "remote_invalid"


@settings(max_examples=300, deadline=None)
@given(
    layout=st.sampled_from(["direct", "cuckoo"]),
    slots=st.lists(_slots, min_size=8, max_size=8),
    fingerprint=st.sampled_from([0, 1, 0xDEADBEEF, 0xFFFFFFFF]),
    tail=st.binary(max_size=40),
)
def test_the_one_pass_scan_matches_a_slot_by_slot_decode(layout, slots, fingerprint, tail):
    """All-invalid fields, duplicate fingerprints (the first valid match
    wins), a match in the last slot, whatever frame bytes follow."""
    table = scan_table(layout)
    entry = b"".join(_SLOT.pack(*slot) for slot in slots)[: table._action_bytes] + tail
    before = {name: table.metrics[name] for name in _SCAN_COUNTERS}
    action = table._resolve_entry(entry, FiveTuple(1, 2, 17, 3, 4), fingerprint)
    expected, counted = slot_by_slot(table, entry, fingerprint)
    assert action == expected
    after = {name: table.metrics[name] for name in _SCAN_COUNTERS}
    assert after == {name: before[name] + (name == counted) for name in _SCAN_COUNTERS}


def test_a_short_slot_is_refused_by_both_decoders():
    for decode in (RemoteAction.unpack, reference_unpack):
        with pytest.raises(struct.error):
            decode(bytes(ACTION_BYTES - 1))


@functools.cache
def _hosts():
    return build_testbed(n_hosts=2, with_memory_server=False).hosts


@settings(max_examples=100, deadline=None)
@given(
    src_port=st.integers(-2, 0x10001), dst_port=st.integers(-2, 0x10001),
    size=st.integers(42, 1500), dscp=st.integers(0, 63),
)
def test_stamp_ports_matches_a_clone_with_two_field_stores(src_port, dst_port, size, dscp):
    src, dst = _hosts()
    template = udp_between(src, dst, size, dscp=dscp)
    template.meta["template_only"] = True
    if not (0 <= src_port <= 0xFFFF and 0 <= dst_port <= 0xFFFF):
        for stamp in (stamp_ports, reference_stamp_ports):
            with pytest.raises(HeaderError):
                stamp(template, src_port, dst_port)
        return
    stamped = stamp_ports(template, src_port, dst_port)
    cloned = reference_stamp_ports(template, src_port, dst_port)
    assert stamped.headers == cloned.headers and stamped.pack() == cloned.pack()
    assert (stamped.buffer_len, stamped.frame_len, stamped.wire_len, stamped.trailers) == (
        cloned.buffer_len, cloned.frame_len, cloned.wire_len, cloned.trailers
    )
    assert stamped.packet_id == cloned.packet_id - 1
    assert stamped.payload is template.payload  # shared, never copied
    assert stamped.meta == {} and stamped.meta is not template.meta  # fresh, not the template's
    for mine, theirs in zip(stamped.headers, template.headers):
        assert mine is not theirs and type(mine) is type(theirs)
    assert stamped.find(type(template.udp)) is stamped.headers[2]
    stamped.ipv4.ttl, stamped.eth.ethertype = 1, 0x1234
    assert (template.ipv4.ttl, template.eth.ethertype, template.udp.src_port) == (64, 0x0800, 10_000)


# -- (iii) the count guard -------------------------------------------------------------------


def _bounced_lookups(packets: int):
    """bench_e2e's ``lookup_miss_x4``: cache off, cuckoo, four shards."""
    tb = rig(servers=4, seed=1)
    pool = MemoryPool(tb.controller, vnodes=128, seed=1)
    for server, port in zip(tb.memory_servers, tb.server_ports):
        pool.add_server(server, port)
    config = LookupTableConfig(entries=1 << 12, cache_entries=0, layout="cuckoo", hash_seed=1)
    table = ShardedLookupTable(tb.switch, pool, config=config)
    tb.program.use_lookup_table(table)
    offer(tb, table, OpenLoopZipfTraffic, installed=1.0, flows=2048, count=packets, rate_pps=5e6)
    entries, garbage = profiled(tb.sim.run)
    assert table.total("remote_hits") == len(tb.delivered) == packets
    calls = sum(
        entry.callcount for entry in entries
        if getattr(entry.code, "co_filename", "").endswith(LOOKUP_FILES)
        or any(part in getattr(entry.code, "co_filename", "") for part in LOOKUP_DIRS)
    )
    return calls, garbage


def test_a_bounced_lookup_costs_a_bounded_number_of_calls():
    packets = 400
    calls, garbage = _bounced_lookups(packets)
    assert (calls, garbage) == _bounced_lookups(packets), "the counts must repeat exactly"
    # _tick, packet_for, stamp_ports; the front's lookup and _owner, the
    # ring's owner and _hash_key; the shard's lookup and _remote_lookup;
    # the shard's _on_response, _resolve_entry and _mutate; three
    # health-monitor calls per response: 15.  It was 34.
    assert 0 < calls <= LOOKUP_CALLS_PER_MISS * packets, (
        f"{calls / packets:.2f} lookup-path calls per bounced lookup"
    )
    assert garbage == 0


# -- (iv) regression: a short READ response --------------------------------------------------


@pytest.mark.parametrize("layout", ["direct", "cuckoo"])
def test_a_read_response_shorter_than_the_action_field_is_a_lost_lookup(layout):
    """The reproducer: the server sees the READ asking for 8 bytes, so the
    response cannot hold one action slot.  ``sim.run()`` raised
    ``struct.error`` out of ``_resolve_entry``."""
    tb = rig()
    config = LookupTableConfig(entries=1 << 6, cache_entries=0, layout=layout, hash_seed=5)
    channel = tb.controller.open_channel(tb.memory_server, tb.server_port, config.region_bytes)
    table = RemoteLookupTable(tb.switch, channel, config=config)
    tb.program.use_lookup_table(table)
    eth = tb.memory_server.eth
    deliver = eth.deliver

    def truncating(packet):
        reth = packet.find(RethHeader)
        if reth is not None and not packet.payload:  # the READ request, not the WRITE
            reth.dma_length = 8
        deliver(packet)

    eth.deliver = truncating
    packet = udp_between(tb.hosts[0], tb.hosts[1], 128, src_port=5000, dst_port=6000)
    table.install(FiveTuple.of(packet), RemoteAction(ACTION_SET_DSCP, 7))
    tb.hosts[0].send(packet)
    tb.sim.run()
    metrics = table.metrics
    assert (metrics["remote_lookups"], metrics["lookups_lost"], metrics["remote_hits"]) == (1, 1, 0)
    assert not tb.delivered and not table.rocegen.window
    # The next lookup is untouched by the loss.
    eth.deliver = deliver
    tb.hosts[0].send(udp_between(tb.hosts[0], tb.hosts[1], 128, src_port=5000, dst_port=6000))
    tb.sim.run()
    assert table.metrics["remote_hits"] == 1 and [r[3] for r in tb.delivered] == [7]


def test_a_bounced_packet_comes_back_with_the_meta_it_left_with():
    """The in-flight record keeps a copy of ``meta`` taken at the bounce: a
    sender that re-sends one frame object, restamping its ``meta`` each
    time (as a retransmitting host does), sees every delivery carry the
    stamp it was sent with, not the latest."""
    tb = rig()
    config = LookupTableConfig(entries=1 << 6, cache_entries=0, layout="cuckoo", hash_seed=5)
    channel = tb.controller.open_channel(tb.memory_server, tb.server_port, config.region_bytes)
    table = RemoteLookupTable(tb.switch, channel, config=config)
    tb.program.use_lookup_table(table)
    packet = udp_between(tb.hosts[0], tb.hosts[1], 128, src_port=5000, dst_port=6000)
    table.install(FiveTuple.of(packet), RemoteAction(ACTION_SET_DSCP, 7))

    def send(seq):
        packet.meta["seq"] = seq
        tb.hosts[0].send(packet)

    for seq, at_ns in enumerate((0.0, 1_500.0, 3_000.0), start=1):  # each bounce before the last returns
        tb.sim.schedule_at(at_ns, send, seq)
    tb.sim.run()
    assert [record[-1]["seq"] for record in tb.delivered] == [1, 2, 3]


# -- (v) remote bytes per bucket pair ---------------------------------------------------------


def _remote_bytes_per_pair(flows: int) -> float:
    """Install *flows* flows into a cuckoo table with the default packet
    slot, bounce one 128 B frame per flow, and divide the region's resident
    bytes by the bucket pairs holding any non-zero byte."""
    tb = rig()
    config = LookupTableConfig(entries=1 << 12, cache_entries=0, layout="cuckoo", hash_seed=1)
    channel = tb.controller.open_channel(tb.memory_server, tb.server_port, config.region_bytes)
    table = RemoteLookupTable(tb.switch, channel, config=config)
    tb.program.use_lookup_table(table)
    for i in range(flows):
        packet = udp_between(tb.hosts[0], tb.hosts[1], 128, src_port=5000 + i, dst_port=6000)
        table.install(FiveTuple.of(packet), RemoteAction(ACTION_SET_DSCP, i % 64))
        tb.sim.schedule_at(1_000.0 * i, tb.hosts[0].send, packet)
    tb.sim.run()
    assert len(tb.delivered) == table.metrics["remote_hits"] == flows
    region, pair = channel.region, config.pair_bytes
    touched = sum(
        any(region.read(channel.base_address + i * pair, pair)) for i in range(config.pairs)
    )
    return region.resident_bytes / touched


def test_remote_memory_holds_what_a_lookup_pair_was_written():
    per_pair = _remote_bytes_per_pair(1000)
    assert per_pair == _remote_bytes_per_pair(1000), "the count must repeat exactly"
    assert 0 < per_pair <= REMOTE_BYTES_PER_LOOKUP_PAIR, (
        f"{per_pair:.0f} resident bytes per touched bucket pair"
    )
