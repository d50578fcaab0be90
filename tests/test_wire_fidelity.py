"""Wire-fidelity tests: the structured simulation matches real bytes.

The simulator moves structured packets for speed, but every header codec
is byte-exact.  These tests tap live links, serialize everything that
crosses them, re-parse the bytes, and assert the reconstructed packets
match — including full RoCE exchanges driven by the switch data plane.
Each seed-fixed scenario's tapped bytes are also pinned by SHA-256, so a
change that moves a single byte on the wire fails here.
"""

import hashlib

import pytest

from repro.apps.programs import CountingProgram, RemoteLookupProgram
from repro.core.lookup_table import (
    ACTION_SET_DSCP,
    LookupTableConfig,
    RemoteAction,
    RemoteLookupTable,
)
from repro.core.state_store import RemoteStateStore, StateStoreConfig
from repro.testbed import build_testbed
from repro.net.headers import EthernetHeader, Ipv4Header, UdpHeader
from repro.net.packet import Packet
from repro.rdma.constants import Opcode
from repro.rdma.headers import (
    AtomicEthHeader,
    BthHeader,
    GrhHeader,
    RethHeader,
    gid_from_ipv4,
    parse_roce,
)
from repro.rdma.packets import convert_to_rocev1
from repro.switches.hashing import FiveTuple
from repro.workloads.perftest import RawEthernetBw
from repro.sim.units import gbps


class WireChecker:
    """Link tap: packs each packet, re-parses, compares layer by layer.

    Also keeps every packed frame (``self.raw``) so a test can pin the
    wire bytes, not merely check that they are well-formed.
    """

    def __init__(self, link):
        self.checked = 0
        self.roce_checked = 0
        self.raw: list = []
        link.taps.append(self._tap)

    def _tap(self, src, packet: Packet) -> None:
        raw = packet.pack()
        self.raw.append(raw)
        parsed = Packet.parse(raw)
        assert parsed.eth == packet.eth
        ip = packet.find(Ipv4Header)
        if ip is not None:
            assert parsed.ipv4 == ip
        udp = packet.find(UdpHeader)
        if udp is not None:
            assert parsed.udp == udp
        bth = packet.find(BthHeader)
        if bth is not None:
            # Continue parsing the RoCE section from the UDP payload.
            headers, payload, icrc = parse_roce(parsed.payload)
            assert headers[0] == bth
            roce_index = packet.index_of(BthHeader)
            expected_stack = packet.headers[roce_index:]
            assert headers == expected_stack
            assert payload == packet.payload
            self.roce_checked += 1
        else:
            assert parsed.payload == packet.payload
        self.checked += 1


def _frames_sha256(frames) -> str:
    """SHA-256 over *frames*, each prefixed with its 4-byte length."""
    digest = hashlib.sha256()
    for frame in frames:
        digest.update(len(frame).to_bytes(4, "big"))
        digest.update(frame)
    return digest.hexdigest()


def _reset_global_id_counters():
    """Pin the one process-global ID counter left to a fixed origin.

    Work-request ids come from a process-wide ``itertools.count``; rkeys
    and QPNs are per-server namespaces and need no pinning.
    """
    import itertools

    from repro.rdma import qp as rdma_qp

    rdma_qp._wr_ids = itertools.count(1)


def _run_state_store_traffic():
    _reset_global_id_counters()
    tb = build_testbed(n_hosts=2)
    program = CountingProgram()
    for host, port in zip(tb.hosts, tb.host_ports):
        program.install(host.eth.mac, port)
    tb.switch.bind_program(program)
    config = StateStoreConfig(counters=1 << 10)
    channel = tb.controller.open_channel(
        tb.memory_server, tb.server_port, config.counters * 8
    )
    store = RemoteStateStore(tb.switch, channel, config=config)
    program.use_state_store(store)
    checker = WireChecker(tb.server_link)
    gen = RawEthernetBw(
        tb.sim, tb.hosts[0], tb.hosts[1],
        packet_size=256, rate_bps=gbps(10), count=50,
    )
    gen.start()
    tb.sim.run()
    return checker


def test_state_store_traffic_is_byte_faithful():
    checker = _run_state_store_traffic()
    assert checker.roce_checked > 0
    # Every packet on the server link is RoCE (requests + atomic acks).
    assert checker.roce_checked == checker.checked
    assert _frames_sha256(checker.raw) == (
        "4d04643543148ee01c8408de69b36a454e6185230d4ff7a7c5b1486da713763b"
    )


def _run_lookup_bounce_traffic():
    _reset_global_id_counters()
    tb = build_testbed(n_hosts=2)
    program = RemoteLookupProgram()
    for host, port in zip(tb.hosts, tb.host_ports):
        program.install(host.eth.mac, port)
    tb.switch.bind_program(program)
    config = LookupTableConfig(entries=1 << 10, cache_entries=0)
    channel = tb.controller.open_channel(
        tb.memory_server, tb.server_port,
        config.entries * config.entry_bytes,
    )
    table = RemoteLookupTable(tb.switch, channel, config=config)
    program.use_lookup_table(table)
    flow = FiveTuple(
        src_ip=tb.hosts[0].eth.ip.value,
        dst_ip=tb.hosts[1].eth.ip.value,
        protocol=17,
        src_port=10_000,
        dst_port=20_000,
    )
    table.install(flow, RemoteAction(ACTION_SET_DSCP, 9))
    server_checker = WireChecker(tb.server_link)
    host_checker = WireChecker(tb.host_links[1])
    gen = RawEthernetBw(
        tb.sim, tb.hosts[0], tb.hosts[1],
        packet_size=512, rate_bps=gbps(5), count=20,
    )
    gen.start()
    tb.sim.run()
    return server_checker, host_checker


def test_lookup_bounce_traffic_is_byte_faithful():
    server_checker, host_checker = _run_lookup_bounce_traffic()
    # 20 bounces: WRITE + READ per packet toward the server, plus responses.
    assert server_checker.roce_checked >= 60
    assert host_checker.checked == 20
    assert _frames_sha256(server_checker.raw) == (
        "5d79cea5af2711e31f6d7a57f37bb2d262c862ad804bbf4fb1625a687db342e9"
    )
    assert _frames_sha256(host_checker.raw) == (
        "5b619378337fc4c8f3e3d51c6260d5364eab682a76d4cd5bb3fd2ec2b35eb1f5"
    )


def _run_l4lb_migration_traffic(seed=42):
    """L4LB with a mid-run live migration: installs, VIP lookups, counter
    FAAs, and the migration's re-install all cross tapped links."""
    from repro.apps.l4lb import L4LbController, L4LbProgram
    from repro.cluster.pool import MemoryPool
    from repro.cluster.replicated_store import ReplicatedStateStore
    from repro.net.addresses import Ipv4Address
    from repro.workloads.factory import udp_between

    _reset_global_id_counters()
    tb = build_testbed(n_hosts=3, n_memory_servers=3, seed=seed)
    pool = MemoryPool(tb.controller, seed=1)
    for server, port in zip(tb.memory_servers[1:], tb.server_ports[1:]):
        pool.add_server(server, port)
    program = L4LbProgram("10.9.9.9")
    for host, port in zip(tb.hosts, tb.host_ports):
        program.install(host.eth.mac, port)
    tb.switch.bind_program(program)
    config = LookupTableConfig(
        entries=1 << 10, cache_entries=64, layout="cuckoo",
        hash_seed=seed, policy="lru",
    )
    channel = tb.controller.open_channel(
        tb.memory_servers[0], tb.server_ports[0], config.region_bytes,
        name="l4lb:connections",
    )
    table = RemoteLookupTable(tb.switch, channel, config=config)
    program.use_connection_table(table)
    store = ReplicatedStateStore(
        tb.switch,
        pool,
        config=StateStoreConfig(
            counters=4, reliable=True, retry_timeout_ns=50_000.0
        ),
        replication=2,
    )
    program.use_counter_store(store)
    controller = L4LbController(program, table, store, pool, seed=seed)
    backends = [
        controller.add_backend(
            name, host.eth.ip, host.eth.mac, port
        )
        for name, host, port in [
            ("alpha", tb.hosts[1], tb.host_ports[1]),
            ("beta", tb.hosts[2], tb.host_ports[2]),
        ]
    ]
    vip = Ipv4Address("10.9.9.9")
    flows = [
        FiveTuple(
            src_ip=tb.hosts[0].eth.ip.value,
            dst_ip=vip.value,
            protocol=17,
            src_port=10_000 + i,
            dst_port=20_000,
        )
        for i in range(8)
    ]
    for flow in flows:
        controller.admit(flow)
    table_checker = WireChecker(tb.server_links[0])
    counter_checker = WireChecker(tb.server_links[1])
    backend_checker = WireChecker(tb.host_links[1])

    def send(i):
        packet = udp_between(
            tb.hosts[0], tb.hosts[1], 128,
            src_port=10_000 + i, dst_port=20_000,
        )
        packet.require(Ipv4Header).dst = vip
        tb.hosts[0].send(packet)

    for tick in range(24):
        tb.sim.schedule_at(tick * 1_000.0, send, tick % 8)

    def migrate_half():
        for flow in flows[:4]:
            source = controller.backends[controller.placement[flow]]
            target = backends[1] if source is backends[0] else backends[0]
            controller.migrate(flow, target, reason="drain")

    tb.sim.schedule_at(11_500.0, migrate_half)
    tb.sim.run()
    return table_checker, counter_checker, backend_checker, controller


def test_l4lb_migration_traffic_is_byte_faithful():
    table_checker, counter_checker, backend_checker, controller = (
        _run_l4lb_migration_traffic()
    )
    # Installs + lookup bounces + the migration's re-installs: everything
    # on the table link is RoCE and round-trips byte-exactly.
    assert table_checker.roce_checked == table_checker.checked
    assert table_checker.roce_checked > 0
    # Per-backend counter FAAs crossed the replica link.
    assert counter_checker.roce_checked > 0
    # Load-balanced data traffic actually reached a backend.
    assert backend_checker.checked > 0
    assert controller.stats.connections_migrated == 4
    # Seed 42: the table link, a counter-replica link, a backend's link.
    assert [
        _frames_sha256(checker.raw)
        for checker in (table_checker, counter_checker, backend_checker)
    ] == [
        "0040486567662043ac50099692dfd0587391cdd5ed7d3ef94b9d7397789db169",
        "f72e36e9fbf61e755800429efab41ff514169feeb524d7483adb0f3a572e6f6f",
        "5823273ca7b9e428b643a03256d0ff853e565225e1571d4c6ffc96f51f8acc6b",
    ]


class RawTap:
    """Byte-only link tap for guarded links.

    :class:`WireChecker` re-parses every frame and asserts the IPv4/UDP
    layers round-trip — but a guarded link carries 0x88B6-shimmed frames
    :meth:`Packet.parse` deliberately treats as opaque payload, so here
    we keep just the packed bytes (shims, resends, and standalone guard
    ACK/NAK control frames included) for the pinned hash.
    """

    def __init__(self, link):
        self.raw: list = []
        link.taps.append(lambda src, packet: self.raw.append(packet.pack()))


def _run_guarded_store_traffic(seed=42):
    """Reliable store over a guarded, corrupting+losing server link."""
    import random

    from repro.faults.injectors import LinkFaultInjector
    from repro.faults.models import Corrupt, IidLoss
    from repro.linkguard.guard import LinkGuard

    _reset_global_id_counters()
    tb = build_testbed(n_hosts=2)
    program = CountingProgram()
    for host, port in zip(tb.hosts, tb.host_ports):
        program.install(host.eth.mac, port)
    tb.switch.bind_program(program)
    config = StateStoreConfig(
        counters=1 << 10, reliable=True, retry_timeout_ns=50_000.0
    )
    channel = tb.controller.open_channel(
        tb.memory_server, tb.server_port, config.counters * 8
    )
    store = RemoteStateStore(tb.switch, channel, config=config)
    program.use_state_store(store)
    guard = LinkGuard(tb.server_link)
    tap = RawTap(tb.server_link)
    injector = LinkFaultInjector(
        tb.server_link, rng=random.Random(seed)
    )
    injector.arm(Corrupt(0.02))
    injector.arm(IidLoss(0.02))
    gen = RawEthernetBw(
        tb.sim, tb.hosts[0], tb.hosts[1],
        packet_size=256, rate_bps=gbps(10), count=50,
    )
    gen.start()
    tb.sim.run()
    return tap, guard


def test_guarded_traffic_is_shimmed_on_the_wire():
    from repro.linkguard.shim import ETHERTYPE_LINKGUARD, GuardShimHeader

    tap, guard = _run_guarded_store_traffic()
    assert guard.counts["protected"] > 0
    # Every frame the tap saw carries the guard ethertype and a
    # well-formed shim right behind the Ethernet header.
    assert len(tap.raw) > 0
    for raw in tap.raw:
        eth = EthernetHeader.unpack(raw[: EthernetHeader.LENGTH])
        assert eth.ethertype == ETHERTYPE_LINKGUARD
        shim = GuardShimHeader.unpack(
            raw[EthernetHeader.LENGTH:
                EthernetHeader.LENGTH + GuardShimHeader.LENGTH]
        )
        assert shim.kind in (0, 1, 2, 3)
    # Seed 42: data frames, piggybacked acks, resends and standalone guard
    # control frames, byte for byte; the guard masked real losses.
    assert _frames_sha256(tap.raw) == (
        "fe7d6878466f8fef7b635a1a92568a4468b73673dcd5419ce9589c8e1f0b8134"
    )
    assert guard.counts == {
        "protected": 82, "masked_losses": 4, "resent": 4, "shim_bytes": 4392,
        "reorder_fixed": 4, "corrupt_dropped": 1, "duplicates_dropped": 0,
        "naks_sent": 4, "acks_sent": 25, "resyncs": 0, "buffer_exhausted": 0,
        "tail_timeouts": 0, "unmasked_losses": 0,
    }


def _run_tiered_promotion_cycle(seed=42):
    """Drive a full promotion/demotion cycle on a tiered state store.

    Phase 1 heats blocks 0 and 1 (fills the two-slot fast window); phase 2
    heats blocks 2 and 3 while the residents idle, forcing the frequency
    policy to demote the cold residents and promote the new hot set.
    Bursts are separated by quiet gaps so in-flight ops quiesce — busy
    blocks refuse to move by design.
    """
    from repro.obs import Observability
    from repro.obs.trace import WireTrace
    from repro.obs.trace import KIND_TIER_MOVE
    from repro.tiering.pool import TieredMemoryPool

    _reset_global_id_counters()
    obs = Observability(trace=WireTrace())
    with obs.activate():
        tb = build_testbed(n_hosts=2)
        program = CountingProgram()
        for host, port in zip(tb.hosts, tb.host_ports):
            program.install(host.eth.mac, port)
        tb.switch.bind_program(program)
        pool = TieredMemoryPool(
            tb.controller,
            policy="frequency",
            policy_seed=seed,
            fast_capacity_bytes=512,
            tick_ns=10_000.0,
            seed=seed,
        )
        member = pool.add_server(tb.memory_server, tb.server_port)
        geometry = pool.tier_object(
            "counters", 8, 256, units_per_block=16,
            member=member, fast_blocks=2,
        )
        store = RemoteStateStore(
            tb.switch,
            config=StateStoreConfig(counters=256, reliable=True),
            tiering=geometry,
        )
        program.use_state_store(store)
        checker = WireChecker(tb.server_link)

        def burst(t0, index, count, gap_ns=400.0):
            for i in range(count):
                tb.sim.schedule(t0 + i * gap_ns, store.update, index, 1)

        for round_ in range(3):
            t0 = round_ * 18_000.0
            burst(t0, 0, 8)  # block 0
            burst(t0 + 4_000.0, 16, 8)  # block 1
        for round_ in range(3):
            t0 = 60_000.0 + round_ * 18_000.0
            burst(t0, 32, 10)  # block 2
            burst(t0 + 4_500.0, 48, 10)  # block 3
        tb.sim.run()
    moves = [
        (event.t_ns, event.psn, event.channel)
        for event in obs.trace.events
        if event.kind == KIND_TIER_MOVE
    ]
    return checker, moves


def test_tiered_promotion_cycle_is_byte_faithful():
    checker, moves = _run_tiered_promotion_cycle()
    assert checker.roce_checked > 0
    # Seed 42: the wire bytes and the TIER_MOVE stream, exactly.
    assert _frames_sha256(checker.raw) == (
        "c02d2b152dbab35fa62f337f2f769b04c11834d36b2372e7760eba0ce322b53d"
    )
    assert moves == [
        (10000.0, 0, "counters:promote"),
        (10000.0, 1, "counters:promote"),
        (70000.0, 0, "counters:demote"),
        (70000.0, 3, "counters:promote"),
        (70000.0, 1, "counters:demote"),
        (70000.0, 2, "counters:promote"),
    ]


class TestGrh:
    def test_round_trip(self):
        from repro.net.addresses import Ipv4Address

        grh = GrhHeader(
            src_gid=gid_from_ipv4(Ipv4Address("10.0.0.1")),
            dst_gid=gid_from_ipv4(Ipv4Address("10.0.0.2")),
            payload_length=1234,
            hop_limit=3,
            traffic_class=7,
            flow_label=0xABCDE,
        )
        assert GrhHeader.unpack(grh.pack()) == grh
        assert len(grh.pack()) == 40

    def test_gid_mapping(self):
        from repro.net.addresses import Ipv4Address

        gid = gid_from_ipv4(Ipv4Address("1.2.3.4"))
        assert len(gid) == 16
        assert gid[-4:] == bytes([1, 2, 3, 4])
        assert gid[10:12] == b"\xff\xff"

    def test_convert_to_rocev1_preserves_roce_section(self):
        from repro.net.addresses import Ipv4Address, MacAddress
        from repro.rdma.packets import build_write_request
        from repro.rdma.qp import QueuePair
        from repro.rdma.verbs import connect_qps

        qp_a = QueuePair(1, Ipv4Address("10.0.0.1"), MacAddress(1))
        qp_b = QueuePair(2, Ipv4Address("10.0.0.2"), MacAddress(2))
        connect_qps(qp_a, qp_b)
        v2 = build_write_request(qp_a, 0x2000, 0x99, b"payload")
        v1 = convert_to_rocev1(v2)
        assert v1.find(GrhHeader) is not None
        assert v1.find(Ipv4Header) is None
        assert v1.require(BthHeader) == v2.require(BthHeader)
        assert v1.require(RethHeader) == v2.require(RethHeader)
        assert v1.payload == v2.payload
        # v1 framing is 12 bytes bigger (40 GRH vs 28 IPv4+UDP).
        assert v1.header_len == v2.header_len + 12
        # The original is untouched.
        assert v2.find(Ipv4Header) is not None

    def test_grh_rejects_bad_gid(self):
        from repro.net.headers import HeaderError

        with pytest.raises(HeaderError):
            GrhHeader(src_gid=b"short", dst_gid=b"\x00" * 16)
