"""The control-plane install path (ISSUE 20): one table entry, computed once.

``L4LbController.admit`` → ``RemoteLookupTable.install`` →
``CuckooDirectory.insert`` → ``ChoiceFilter`` → region write was rebuilt
around a call budget with **placement frozen**.  Five angles:

(i)   the new directory + filter against a transcription of the pair they
      replaced, over small geometries where kicks, T1 escapes, cascades,
      both ``CuckooFullError`` causes and rollbacks all occur (the
      benchmark populations exercise none of them);
(ii)  the three benchmark-shaped populations, hashed — remote bytes,
      ``location``, ``kick_log`` — and pinned from the parent commit;
(iii) the ``FiveTuple`` contract (a named tuple that hashes like its fields);
(iv)  cProfile budget guards on calls per install / per admit, and
      tracemalloc guards on host bytes per admit / per migration;
(v)   regressions: sharded install bookkeeping, the stale SRAM copy (and
      its refill by a READ that raced the re-install), the T0-index leak,
      the wider ``check_invariant()`` and the stale remote slot a
      multi-move insert left (``remote_slots_agree``).
"""

from __future__ import annotations

import hashlib
import random
import struct
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    ACTION_SET_DSCP,
    FiveTuple,
    L4LbController,
    L4LbProgram,
    LookupTableConfig,
    MemoryPool,
    OpenLoopZipfTraffic,
    RemoteAction,
    RemoteLookupProgram,
    RemoteLookupTable,
    ReplicatedStateStore,
    ShardedLookupTable,
    StateStoreConfig,
    build_testbed,
)
from repro.apps.l4lb import BACKEND_DRAINING
from repro.core.lookup_table import ACTION_BYTES, fingerprint_of
from repro.cuckoo.layout import (
    _MORE,
    CuckooConfig,
    CuckooDirectory,
    CuckooFullError,
    SlotRef,
    T0,
    T1,
)
from repro.net.headers import Ipv4Header
from repro.policies.cache import make_cache_policy
from repro.switches.hashing import crc32
from repro.workloads.factory import udp_between

from .budgets import (
    ADMIT_CALLS,
    CONNECTION_BYTES,
    INSTALL_CALLS,
    MIGRATION_BYTES,
    byte_budget,
    profiled,
    retained,
)
from .reference import ReferenceDirectory
from .test_apps_l4lb import build_l4lb, vip_flow

# -- (i) differential: new pair == replaced pair --------------------------------------


def _key(n: int) -> bytes:
    return struct.pack("!IH", n, n % 7)


def _same_state(new: CuckooDirectory, ref: ReferenceDirectory, keys) -> None:
    # ``location`` holds flat slot ints; the reference's holds ``SlotRef``s.
    decoded = {key: new.slot_ref(at) for key, at in new.location.items()}
    assert decoded == ref.location
    assert list(decoded) == list(ref.location), "location order"
    assert new.kick_log == ref.kick_log
    assert (new.kicks, new.relocations, new.failed_inserts) == (
        ref.kicks, ref.relocations, ref.failed_inserts,
    )
    assert [new.filter.cell_value(c) for c in range(new.filter.cells)] == list(
        ref.filter._cells
    )
    assert new.check_invariant() == ref.check_invariant() == []
    config = new.config
    for table in (T0, T1):
        for index in range(config.pairs):
            for slot in range(config.slots_per_bucket):
                at = SlotRef(table, index, slot)
                assert new.slot_key(at) == ref.slot_key(at)
    for key in keys:
        kb = new.packer(key)
        assert new.filter.indices(kb) == ref.filter.indices(kb)
        assert new.candidate_pairs(key) == (ref.h0(kb), ref.h1(kb))
        assert new.dataplane.read_index(kb) == ref.read_index(kb)


def _apply(directory, op, key):
    """(outcome, detail) of one operation; a failed insert is an outcome."""
    try:
        if op == "insert":
            return "moves", directory.insert(key)
        return "removed", directory.remove(key)
    except CuckooFullError:
        return "full", None


def _run_differential(config: CuckooConfig, ops) -> CuckooDirectory:
    new = CuckooDirectory(config, packer=bytes)
    ref = ReferenceDirectory(config, packer=bytes)
    seen = set()
    for op, n in ops:
        key = _key(n)
        seen.add(key)
        assert _apply(new, op, key) == _apply(ref, op, key), (op, n)
        assert len(new.kick_log) == len(ref.kick_log) and len(new) == len(ref.location)
    _same_state(new, ref, sorted(seen))
    return new


@st.composite
def _geometry_and_ops(draw):
    pairs = draw(st.sampled_from([4, 5, 8, 16, 64]))
    slots = draw(st.integers(1, 4))
    capacity = pairs * 2 * slots
    config = CuckooConfig(
        pairs=pairs,
        slots_per_bucket=slots,
        seed=draw(st.integers(0, 2**32)),
        max_kicks=draw(st.sampled_from([0, 2, 8, 64])),
        max_relocations=draw(st.sampled_from([1, 4, 256])),
        cbf_cells=draw(st.sampled_from([0, 3, 16, capacity])),
        cbf_hashes=draw(st.integers(1, 3)),
    )
    # Operations come from a drawn seed, not a drawn list (Hypothesis keeps
    # lists short, and nothing interesting happens below ~capacity inserts):
    # up to 4 x capacity (at most 600) over a key universe a little larger than
    # the table, so re-inserts, removes of residents, kicks, cascades,
    # overload and rollbacks all come up.
    rng = random.Random(draw(st.integers(0, 2**32)))
    universe = draw(st.sampled_from([capacity, 3 * capacity // 2 + 2, 3 * capacity]))
    removes = draw(st.sampled_from([0.0, 0.2, 0.5]))
    ops = [
        ("remove" if rng.random() < removes else "insert", rng.randrange(universe))
        for _ in range(draw(st.sampled_from([3, capacity, 2 * capacity, min(4 * capacity, 600)])))
    ]
    return config, ops


@settings(max_examples=100, deadline=None)
@given(_geometry_and_ops())
def test_directory_and_filter_match_the_pair_they_replaced(case):
    _run_differential(*case)


def test_the_differential_reaches_every_hard_path():
    """One fixed overload run that provably kicks in both subtables,
    cascades, exhausts the kick budget and rolls back — and keeps matching
    through the kicks that follow, so the victim stream a failed insert drew
    from was restored exactly."""
    config = CuckooConfig(
        pairs=8, slots_per_bucket=2, seed=0, max_kicks=6, max_relocations=12,
        cbf_cells=48,
    )
    new = CuckooDirectory(config, packer=bytes)
    ref = ReferenceDirectory(config, packer=bytes)
    kicks_at_first_failure = None
    resident = deque()
    for n in range(6 * config.capacity):
        key = _key(n)
        outcome = _apply(new, "insert", key)
        assert outcome == _apply(ref, "insert", key), n
        if outcome[0] == "moves":
            resident.append(key)
            continue
        assert len(new) < config.capacity, "the kick budget, not a full table"
        if kicks_at_first_failure is None:
            kicks_at_first_failure = new.kicks
        for _ in range(2):  # make room, oldest first
            oldest = resident.popleft()
            assert _apply(new, "remove", oldest) == _apply(ref, "remove", oldest)
    _same_state(new, ref, [_key(n) for n in range(6 * config.capacity)])
    assert kicks_at_first_failure is not None and new.failed_inserts > 10
    assert new.kicks > kicks_at_first_failure + 10, "kicks after a rolled-back failure"
    assert new.relocations > 0
    kicked_from = {ref.table for why, _, ref in new.kick_log if why == "kick"}
    assert kicked_from == {T0, T1}


def test_the_differential_reaches_a_full_table():
    """The other ``CuckooFullError`` cause: every slot taken."""
    config = CuckooConfig(pairs=4, slots_per_bucket=4, seed=1)
    new = _run_differential(config, [("insert", n) for n in range(3 * config.capacity)])
    assert len(new) == config.capacity and new.failed_inserts > 0


def test_a_failed_insert_leaves_no_trace_even_in_the_victim_stream():
    config = CuckooConfig(pairs=4, slots_per_bucket=2, seed=11, max_kicks=4, cbf_cells=16)
    tried = CuckooDirectory(config, packer=bytes)
    clean = CuckooDirectory(config, packer=bytes)
    n = 0
    while tried.failed_inserts == 0:
        try:
            tried.insert(_key(n))
            clean.insert(_key(n))
        except CuckooFullError:
            pass
        n += 1
    assert len(tried) < config.capacity
    assert tried._rng.getstate() == clean._rng.getstate()
    assert tried.location == clean.location and tried.kick_log == clean.kick_log
    assert (tried.kicks, tried.relocations) == (clean.kicks, clean.relocations)
    assert tried._slots == clean._slots
    assert {cell: set(at) for cell, at in tried._t0_listed().items()} == {
        cell: set(at) for cell, at in clean._t0_listed().items()
    }
    assert tried.check_invariant() == []


# -- (ii) benchmark-shaped populations, pinned from the parent --------------------------


_REF = struct.Struct("!BIB")


def _placement_digest(tables) -> str:
    """SHA-256 over each table's remote bytes, ``location`` (decoded to
    ``SlotRef``s, as the pins were taken) and ``kick_log``."""
    digest = hashlib.sha256()
    for table in tables:
        channel = table.channel
        digest.update(channel.region.read(channel.base_address, table.config.region_bytes))
        directory = table.directory
        for flow, at in directory.location.items():
            ref = directory.slot_ref(at)
            digest.update(flow.pack() + _REF.pack(ref.table, ref.index, ref.slot))
        for why, flow, ref in directory.kick_log:
            digest.update(why.encode() + flow.pack())
            digest.update(_REF.pack(ref.table, ref.index, ref.slot))
        digest.update(
            struct.pack("!III", directory.kicks, directory.relocations, len(directory))
        )
    return digest.hexdigest()


def _zipf_flows(tb, packets: int, seed: int = 42):
    """The flows bench_e2e's lookup workloads pre-install at this seed."""
    traffic = OpenLoopZipfTraffic(
        tb.sim, tb.hosts[0], tb.hosts[1], flows=1_000_000, alpha=1.0,
        packet_size=128, rate_pps=2e6, count=packets, seed=seed,
    )
    src_ip, dst_ip = tb.hosts[0].eth.ip.value, tb.hosts[1].eth.ip.value
    return [
        (
            FiveTuple(
                src_ip=src_ip, dst_ip=dst_ip, protocol=17,
                src_port=traffic.flow_key(rank).src_port,
                dst_port=traffic.flow_key(rank).dst_port,
            ),
            RemoteAction(ACTION_SET_DSCP, rank % 64),
        )
        for rank in traffic.distinct_ranks()
    ]


def test_lookup_cached_population_lands_where_the_parent_put_it():
    tb = build_testbed(n_hosts=2, seed=42)
    flows = _zipf_flows(tb, packets=30_000)
    assert len(flows) == 13_727
    config = LookupTableConfig(
        entries=1 << 15, cache_entries=1024, layout="cuckoo", hash_seed=42,
        policy="lru", policy_seed=42,
    )
    channel = tb.controller.open_channel(tb.memory_server, tb.server_port, config.region_bytes)
    table = RemoteLookupTable(tb.switch, channel, config=config)
    tb.controller.install_hash_seeds(table, 42)
    for flow, action in flows:
        table.install(flow, action)
    assert table.directory.check_invariant() == []
    assert _placement_digest([table]) == (
        "5e107b29888132e7dd4ee5af7290851a3a1d2f119788dcee69b339922ea9c2f7"
    )


def test_sharded_population_lands_where_the_parent_put_it():
    tb = build_testbed(n_hosts=2, n_memory_servers=4, seed=42)
    pool = MemoryPool(tb.controller, vnodes=128, seed=1)
    for server, port in zip(tb.memory_servers, tb.server_ports):
        pool.add_server(server, port)
    flows = _zipf_flows(tb, packets=30_000)
    config = LookupTableConfig(
        entries=1 << 15, cache_entries=0, layout="cuckoo", hash_seed=42
    )
    table = ShardedLookupTable(tb.switch, pool, config=config)
    tb.controller.install_hash_seeds(table, 42)
    for flow, action in flows:
        table.install(flow, action)
    shards = [table.shards[name] for name in sorted(table.shards)]
    assert sum(len(shard.directory) for shard in shards) == len(flows)
    assert _placement_digest(shards) == (
        "a48c0d4de052bae253d390163f076770a20243508a4494ca395b50a7a0d8b589"
    )


def _l4lb_rig(backends: int, entries: int, cache_entries: int, seed: int):
    tb = build_testbed(n_hosts=2, n_memory_servers=backends + 1, seed=seed)
    pool = MemoryPool(tb.controller, vnodes=128, seed=1, fail_after=8)
    names = [f"backend{i}" for i in range(backends)]
    for name, server, port in zip(names, tb.memory_servers[1:], tb.server_ports[1:]):
        pool.add_server(server, port, name=name)
    program = L4LbProgram("10.9.9.9")
    for host, port in zip(tb.hosts, tb.host_ports):
        program.install(host.eth.mac, port)
    tb.switch.bind_program(program)
    config = LookupTableConfig(
        entries=entries, packet_slot_bytes=256, cache_entries=cache_entries,
        layout="cuckoo", hash_seed=seed, policy="lru",
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
    controller = L4LbController(program, table, store, pool, seed=seed)
    for name, server, port in zip(names, tb.memory_servers[1:], tb.server_ports[1:]):
        controller.add_backend(name, server.eth.ip, server.eth.mac, port, member=pool.member(name))
    return tb, program, table, controller


def _connection(tb, program, rank: int) -> FiveTuple:
    return FiveTuple(
        src_ip=tb.hosts[0].eth.ip.value, dst_ip=program.vip.value, protocol=17,
        src_port=1024 + rank % 60_000, dst_port=1024 + rank // 60_000,
    )


def test_l4lb_population_lands_where_the_parent_put_it():
    tb, program, table, controller = _l4lb_rig(
        backends=4, entries=1 << 16, cache_entries=4096, seed=42
    )
    for rank in range(37_500):
        controller.admit(_connection(tb, program, rank))
    assert table.directory.check_invariant() == []
    digest = hashlib.sha256(_placement_digest([table]).encode())
    for flow, name in controller.placement.items():
        digest.update(flow.pack() + name.encode())
    for name, flows in controller.flows_by_backend.items():
        # Set order: the drain and the kill re-point connections in it.
        digest.update(name.encode() + b"".join(flow.pack() for flow in flows))
    assert digest.hexdigest() == (
        "ef2d522e2ec75cf7dcf64b3900f153baff6c6a3ef1a1f7a26eaa3bc9eaedbf7c"
    )


# -- (iii) the FiveTuple contract ------------------------------------------------------


@given(
    st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1), st.integers(0, 255),
    st.integers(0, 65535), st.integers(0, 65535),
)
def test_five_tuple_hashes_and_compares_like_its_fields(src, dst, proto, sport, dport):
    flow = FiveTuple(src, dst, proto, sport, dport)
    fields = (src, dst, proto, sport, dport)
    assert hash(flow) == hash(fields)
    assert flow == fields and tuple(flow) == fields
    assert flow == FiveTuple(
        src_ip=src, dst_ip=dst, protocol=proto, src_port=sport, dst_port=dport
    )
    assert flow.pack() == struct.pack("!IIBHH", *fields)
    assert flow.hash() == crc32(flow.pack())
    assert flow.hash(8) == flow.hash() & 0xFF
    moved = flow._replace(dst_ip=dst ^ 1)
    assert moved.dst_ip == dst ^ 1 and moved != flow and flow.dst_ip == dst
    assert moved._replace(dst_ip=dst) == flow


def test_five_tuple_is_immutable_and_checks_ranges_at_pack():
    flow = FiveTuple(1, 2, 17, 3, 4)
    with pytest.raises(AttributeError):
        flow.src_port = 9
    with pytest.raises(AttributeError):
        flow.colour = "red"
    assert FiveTuple(1, 2, 17, 70_000, 4).src_port == 70_000  # built unchecked ...
    with pytest.raises(struct.error):
        FiveTuple(1, 2, 17, 70_000, 4).pack()  # ... refused where it matters
    with pytest.raises(struct.error):
        FiveTuple(-1, 2, 17, 3, 4).pack()


def test_five_tuple_of_a_packet_and_the_l4lb_connection_key():
    tb = build_testbed(n_hosts=2, seed=1)
    packet = udp_between(tb.hosts[0], tb.hosts[1], 128, src_port=4000, dst_port=5000)
    flow = FiveTuple.of(packet)
    ip = packet.require(Ipv4Header)
    assert flow == (ip.src.value, ip.dst.value, 17, 4000, 5000)
    program = L4LbProgram("10.9.9.9")
    key = program.connection_key(packet)
    assert key == flow._replace(dst_ip=program.vip.value) and type(key) is FiveTuple
    ip.dst = program.vip
    assert program.connection_key(packet) == key


# -- (iv) the call budget ---------------------------------------------------------------


def _calls(run) -> int:
    """Every call cProfile sees while *run* runs, C functions included."""
    entries, _garbage = profiled(run)
    return sum(entry.callcount for entry in entries) - 1  # less disable()


def _install_calls(installs: int) -> int:
    tb = build_testbed(n_hosts=2, seed=1)
    config = LookupTableConfig(
        entries=1 << 12, packet_slot_bytes=256, cache_entries=64, layout="cuckoo",
        hash_seed=1, policy="lru",
    )
    channel = tb.controller.open_channel(tb.memory_server, tb.server_port, config.region_bytes)
    table = RemoteLookupTable(tb.switch, channel, config=config)
    work = [
        (FiveTuple(0x0A000001, 0x0A000002, 17, 1024 + rank, 6000),
         RemoteAction(ACTION_SET_DSCP, rank % 64))
        for rank in range(installs)
    ]

    def run():
        for flow, action in work:
            table.install(flow, action)

    calls = _calls(run)
    assert len(table.directory) == installs and table.directory.load <= 0.6
    return calls


def test_a_table_install_costs_a_bounded_number_of_calls():
    installs = 2_000
    calls = _install_calls(installs)
    assert calls == _install_calls(installs), "the count must repeat exactly"
    # Per install of a key that lands in T0 (nearly all do at this load, and
    # take the common insert): 3 in the table (install, _install_cuckoo,
    # _write_slot), 2 to pack the flow, 1 table-driven fingerprint, 2 to
    # pack the action, 6 in the region write, 9 in the directory and filter
    # (insert, indices, _t0_home, query_cells, _free_slot, _arrive, 3
    # CRC32s), the SlotRef and the Move, and the len checks: 31.  It was 33
    # with a dict.setdefault per filter cell into the T0 index, 41 with two
    # pure-Python CRC16s and the rollback scaffolding built for every
    # insert, 113 with the per-step re-hashing.
    assert 0 < calls <= INSTALL_CALLS * installs, f"{calls / installs:.1f} calls per install"


def _admit_calls(admits: int) -> int:
    tb, program, table, controller = _l4lb_rig(
        backends=3, entries=1 << 12, cache_entries=64, seed=1
    )
    flows = [_connection(tb, program, rank) for rank in range(admits)]

    def run():
        for flow in flows:
            controller.admit(flow)

    calls = _calls(run)
    assert controller.stats.connections_admitted == admits
    assert table.directory.load <= 0.6
    return calls


def test_an_admit_costs_a_bounded_number_of_calls():
    admits = 2_000
    calls = _admit_calls(admits)
    assert calls == _admit_calls(admits), "the count must repeat exactly"
    # The install's 31 plus admit, place, a second pack of the flow (2), one
    # running CRC32 and one per backend (4), and get/items/add: 42.  Was 44
    # with the T0 index's setdefaults, 52 before, and 136 before that.
    assert 0 < calls <= ADMIT_CALLS * admits, f"{calls / admits:.1f} calls per admit"


def _admitted_bytes(admits: int) -> int:
    """Bytes *admits* admissions leave allocated in ``build_l4lb()``'s world
    (4 096 slots), the ``FiveTuple``s built before the trace."""
    tb, _, _, _, _, controller = build_l4lb()
    flows = [vip_flow(tb, rank) for rank in range(admits)]

    def admit_all() -> None:
        for flow in flows:
            controller.admit(flow)

    _, kept = retained(admit_all)
    assert controller.stats.connections_admitted == admits
    return kept


def _migration_bytes(admits: int) -> float:
    """Bytes per migration one ``_repoint`` of ``backend0`` leaves allocated,
    once *admits* connections are placed."""
    tb, _, _, _, _, controller = build_l4lb()
    for rank in range(admits):
        controller.admit(vip_flow(tb, rank))
    backend = controller.backends["backend0"]
    backend.state = BACKEND_DRAINING
    moved, kept = retained(lambda: controller._repoint(backend, "drain"))
    assert moved == len(controller.journal) > 0
    return kept / moved


@byte_budget
def test_an_admitted_connection_costs_a_bounded_number_of_bytes():
    measured = (_admitted_bytes(2_400) - _admitted_bytes(800)) / 1_600
    assert 0 < measured <= CONNECTION_BYTES, f"{measured:.0f} B per admitted connection"


@byte_budget
def test_a_migration_costs_a_bounded_number_of_bytes():
    measured = _migration_bytes(2_400)
    assert 0 < measured <= MIGRATION_BYTES, f"{measured:.0f} B per migration"


# -- (v) regressions --------------------------------------------------------------------


def test_a_refused_sharded_install_leaves_no_bookkeeping_behind():
    tb = build_testbed(n_hosts=2, n_memory_servers=3, seed=1)
    pool = MemoryPool(tb.controller, seed=1)
    for server, port in zip(tb.memory_servers[:2], tb.server_ports[:2]):
        pool.add_server(server, port)
    table = ShardedLookupTable(
        tb.switch, pool,
        config=LookupTableConfig(entries=16, cache_entries=0, layout="cuckoo"),
    )
    action = RemoteAction(ACTION_SET_DSCP, 46)
    installed, refused = [], None
    for sport in range(10_000, 10_100):
        flow = FiveTuple(0x0A000001, 0x0A000002, 17, sport, 20_000)
        try:
            table.install(flow, action)
        except CuckooFullError:
            refused = flow
            break
        installed.append(flow)
    assert refused is not None
    assert refused not in table._journal and refused not in table._placement
    assert all(refused not in shard.directory for shard in table.shards.values())
    # A join re-homes journaled flows only: the refused one stays out.
    pool.add_server(tb.memory_servers[2], tb.server_ports[2])
    assert set(table._journal) == set(installed)
    assert all(refused not in shard.directory for shard in table.shards.values())
    # ... and retrying it now is a first install, like any other.
    owner = pool.member_for(refused.hash()).name
    try:
        table.install(refused, action)
    except CuckooFullError:
        assert refused not in table._journal and refused not in table._placement
    else:
        assert table._placement[refused] == owner
        assert table._journal[refused] == action
        assert refused in table.shards[owner].directory


def _cached_table(policy: str, layout: str):
    """A lookup program whose table caches; ``send()`` runs one packet of
    the flow to its destination and returns the DSCP it arrived with."""
    tb = build_testbed(n_hosts=2, seed=1)
    program = RemoteLookupProgram()
    for host, port in zip(tb.hosts, tb.host_ports):
        program.install(host.eth.mac, port)
    tb.switch.bind_program(program)
    config = LookupTableConfig(
        entries=1 << 10, cache_entries=64, layout=layout, policy=policy, pin_threshold=1
    )
    channel = tb.controller.open_channel(tb.memory_server, tb.server_port, config.region_bytes)
    table = RemoteLookupTable(tb.switch, channel, config=config)
    program.use_lookup_table(table)
    received = []
    tb.hosts[1].packet_handlers.append(lambda packet, iface: received.append(packet))

    def send():
        packet = udp_between(tb.hosts[0], tb.hosts[1], 128, src_port=5000, dst_port=6000)
        tb.hosts[0].send(packet)
        tb.sim.run()
        return received[-1].require(Ipv4Header).dscp

    flow = FiveTuple.of(udp_between(tb.hosts[0], tb.hosts[1], 128, src_port=5000, dst_port=6000))
    return tb, table, flow, send


@pytest.mark.parametrize("layout", ["cuckoo", "direct"])
@pytest.mark.parametrize("policy", ["fifo", "lru", "lfu", "pin"])
def test_a_reinstall_refreshes_the_sram_copy(policy, layout):
    tb, table, flow, send = _cached_table(policy, layout)
    table.install(flow, RemoteAction(ACTION_SET_DSCP, 10))
    assert send() == 10 and send() == 10  # the second from SRAM
    assert table.cache.contains(flow) and table.metrics["local_hits"] >= 1
    hits, remote = table.metrics["local_hits"], table.metrics["remote_lookups"]
    table.install(flow, RemoteAction(ACTION_SET_DSCP, 20))
    assert send() == 20
    assert (table.metrics["local_hits"], table.metrics["remote_lookups"]) == (hits + 1, remote)
    assert table.stale_cached() == []


@pytest.mark.parametrize("layout", ["cuckoo", "direct"])
@pytest.mark.parametrize("policy", ["fifo", "lru", "lfu", "pin"])
def test_a_read_that_raced_a_reinstall_never_fills_the_sram_copy(policy, layout):
    """The READ runs at the server, the flow is re-installed, then the READ's
    response lands.  It steers its own packet with the action it read — the
    bound: one remote round trip — but must not fill SRAM with it: the next
    packet, and the cache, carry the new action."""
    tb, table, flow, send = _cached_table(policy, layout)
    table.install(flow, RemoteAction(ACTION_SET_DSCP, 10))
    region = table.channel.region
    read = region.read

    def read_then_reinstall(va, size):
        data = read(va, size)  # the READ executes at the server ...
        region.read = read
        # ... and the control plane re-installs before its response lands.
        tb.sim.schedule(0.0, table.install, flow, RemoteAction(ACTION_SET_DSCP, 20))
        return data

    region.read = read_then_reinstall
    assert send() == 10  # the raced packet: the action its READ found
    assert region.read is read, "the re-install never ran"
    assert send() == 20
    assert table.cache.peek(flow) == RemoteAction(ACTION_SET_DSCP, 20)
    assert table.stale_cached() == []
    assert send() == 20 and table.metrics["local_hits"] >= 1
    # The check reports a stale SRAM copy wherever one comes from.
    table.cache.admit(flow, RemoteAction(ACTION_SET_DSCP, 10))
    assert table.stale_cached() == [flow]


@pytest.mark.parametrize("policy", ["fifo", "lru", "lfu", "pin"])
def test_contains_touches_no_recency_or_counter_state(policy):
    """Why the refresh may ask ``contains()`` first, and the staleness check
    ``peek()``: asking changes nothing."""
    def warmed():
        cache = make_cache_policy(policy, 2, seed=3, pin_threshold=1)
        cache.admit(b"x", 1)
        cache.admit(b"y", 2)
        return cache

    asked, untouched = warmed(), warmed()
    assert asked.contains(b"x") and not asked.contains(b"z")
    assert asked.peek(b"x") == 1 and asked.peek(b"z") is None
    for cache in (asked, untouched):
        cache.admit(b"z", 3)  # evicts by recency / frequency / age
    for key in (b"x", b"y", b"z"):
        assert asked.contains(key) == untouched.contains(key)
    for counter in ("_m_hits", "_m_misses", "_m_inserts", "_m_evictions", "_m_pins"):
        assert getattr(asked, counter).value == getattr(untouched, counter).value


def test_churn_leaves_no_emptied_index_entries_behind():
    config = CuckooConfig(pairs=32, slots_per_bucket=4, seed=9)
    directory = CuckooDirectory(config, packer=bytes)
    resident = deque()
    fresh = map(_key, range(10**9))

    def insert_one():
        while True:  # a refused key (rolled back) just makes way for the next
            key = next(fresh)
            try:
                directory.insert(key)
            except CuckooFullError:
                continue
            resident.append(key)
            return

    while directory.load < 0.8:
        insert_one()
    for _ in range(5_000):
        assert directory.remove(resident.popleft()) is not None
        insert_one()
    assert directory.load >= 0.8 and directory.failed_inserts > 0
    assert directory.check_invariant() == []
    live_cells = {
        cell
        for key, at in directory.location.items()
        if directory.slot_ref(at).table == T0
        for cell in directory.filter.indices(key)
    }
    column, more = directory._t0_column, directory._t0_more
    assert {cell for cell, word in enumerate(column) if word} == live_cells
    assert {cell for cell, word in enumerate(column) if word & _MORE} == set(more)
    assert all(type(extra) is int or len(extra) > 1 for extra in more.values()), (
        "no emptied entry left behind"
    )


def test_check_invariant_audits_the_bookkeeping_too():
    def populated():
        directory = CuckooDirectory(CuckooConfig(pairs=8, slots_per_bucket=2, seed=3), packer=bytes)
        for n in range(12):
            directory.insert(_key(n))
        assert directory.check_invariant() == []
        return directory

    clean = populated()
    key, at = next(
        (key, at) for key, at in clean.location.items() if clean.slot_ref(at).table == T0
    )

    broken = populated()
    broken._slots[at] = None  # location names a slot the array says is free
    assert broken.check_invariant()

    broken = populated()
    free = broken._slots.index(None)
    broken._slots[free] = b"ghost"  # an occupant location does not know
    assert broken.check_invariant()

    # A cell's word is one resident's flat slot + 1, flagged _MORE when the
    # overflow map holds the others: one int, or a tuple of two or more.
    def listed(directory, cell):
        return list(directory._t0_listed().get(cell, ()))

    def relist(directory, cell, residents):
        directory._t0_more.pop(cell, None)
        directory._t0_column[cell] = residents[0] + 1 if residents else 0
        if len(residents) > 1:
            directory._t0_column[cell] |= _MORE
            extra = residents[1:]
            directory._t0_more[cell] = tuple(extra) if len(extra) > 1 else extra[0]

    broken = populated()
    cell = broken.filter.indices(key)[0]
    relist(broken, cell, [s for s in listed(broken, cell) if s != at])  # a T0 resident missing
    assert broken.check_invariant()

    broken = populated()
    relist(broken, cell, listed(broken, cell) + [at])  # ... or listed twice
    assert broken.check_invariant()

    broken = populated()
    unused = next(c for c in range(broken.filter.cells) if not broken._t0_column[c])
    broken._t0_column[unused] = at + 1  # a stale slot under a cell the key never probes
    assert broken.check_invariant()

    broken = populated()
    broken._t0_more[unused] = ()  # an emptied overflow entry left behind
    assert broken.check_invariant()

    broken = populated()
    broken._t0_column[cell] |= _MORE  # flagged, with nothing in the overflow map
    broken._t0_more.pop(cell, None)
    assert broken.check_invariant()

    broken = populated()
    relist(broken, cell, listed(broken, cell))
    broken._t0_column[cell] |= _MORE
    broken._t0_more[cell] = (at,)  # one extra as a tuple, not an int
    assert broken.check_invariant()
    assert broken.slot_key(SlotRef(T0, 99, 0)) is None
    assert broken.slot_key(SlotRef(2, 0, 0)) is None and broken.slot_key(SlotRef(T1, 0, 9)) is None


def remote_slots_agree(table: RemoteLookupTable) -> list:
    """Every cuckoo slot whose remote bytes disagree with the directory.

    A slot the directory gives a key holds a valid entry with that key's
    fingerprint; a slot it holds empty is all zero.  Returns the
    disagreeing slots' refs, so an agreeing table returns ``[]``.
    """
    directory, region = table.directory, table.channel.region
    per_bucket = table.config.slots_per_bucket
    bad = []
    for index in range(table.config.pairs):
        pair = region.read(table.entry_address(index), table.config.bucket_pair_bytes)
        for side in (T0, T1):
            for slot in range(per_bucket):
                ref = SlotRef(side, index, slot)
                at = (side * per_bucket + slot) * ACTION_BYTES
                data = pair[at:at + ACTION_BYTES]
                key = directory.slot_key(ref)
                if key is None:
                    agrees = data == bytes(ACTION_BYTES)
                else:
                    valid, _, fingerprint = RemoteAction.unpack(data)
                    agrees = valid and fingerprint == fingerprint_of(key)
                if not agrees:
                    bad.append(ref)
    return bad


@pytest.mark.parametrize("seed", [3, 11, 13])
def test_a_multi_move_insert_leaves_no_stale_remote_slot(seed):
    # At these seeds some insert's kick chain writes a slot and then
    # vacates it again; the directory holds it empty, so must memory.
    tb = build_testbed(n_hosts=2, seed=seed)
    config = LookupTableConfig(
        entries=1 << 7, cache_entries=0, layout="cuckoo",
        packet_slot_bytes=256, hash_seed=seed,
    )
    channel = tb.controller.open_channel(tb.memory_server, tb.server_port, config.region_bytes)
    table = RemoteLookupTable(tb.switch, channel, config=config)
    rng = random.Random(seed)
    action = RemoteAction(ACTION_SET_DSCP, 1)
    while True:
        flow = FiveTuple(
            rng.getrandbits(32), rng.getrandbits(32), 17,
            rng.getrandbits(16), rng.getrandbits(16),
        )
        try:
            table.install(flow, action)
        except CuckooFullError:
            break
        assert remote_slots_agree(table) == [], table.directory.load
    assert table.directory.load > 0.7
