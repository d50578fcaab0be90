"""Link-guard tests: shim codec, protection semantics, breaker escalation.

The contract under test (DESIGN.md §14): a guarded link masks loss and
corruption *below* the transport — in ``full-ordered`` mode nothing is
lost and nothing is reordered, the RDMA machinery above sees zero NAKs,
zero timeouts, and zero retransmissions, and when the emergency buffer
can no longer honor that promise the guard says so loudly (escalation
hooks + RESYNC) instead of hanging.
"""

import random

import pytest

from repro.apps.programs import CountingProgram
from repro.core.state_store import RemoteStateStore, StateStoreConfig
from repro.testbed import build_testbed
from repro.faults.injectors import LinkFaultInjector
from repro.faults.models import Corrupt, IidLoss
from repro.linkguard.guard import LinkGuard, LinkGuardConfig, PROTECTION_LEVELS
from repro.linkguard.shim import ETHERTYPE_LINKGUARD, GuardShimHeader, guard_checksum
from repro.rdma.packets import integrity_protected
from repro.resilience.breaker import CircuitBreaker, CircuitBreakerConfig
from repro.sim.units import gbps, usec
from repro.workloads.perftest import PacketSink, RawEthernetBw

DST_PORT = 20_000


def _guarded_run(
    protection="full-ordered",
    config=None,
    corrupt=0.02,
    loss=0.02,
    count=400,
    seed=42,
    shape=None,
    direction="both",
):
    """Raw forwarding through the switch with a guarded, faulty host link."""
    tb = build_testbed(n_hosts=2, with_memory_server=False)
    program = CountingProgram()
    for host, port in zip(tb.hosts, tb.host_ports):
        program.install(host.eth.mac, port)
    tb.switch.bind_program(program)
    link = tb.host_links[1]
    if config is not None:
        guard = LinkGuard(link, config=config)
    else:
        guard = LinkGuard(link, protection=protection)
    injector = LinkFaultInjector(
        link, rng=random.Random(seed), direction=direction
    )
    if shape is not None:
        shape(injector)
    else:
        if corrupt:
            injector.arm(Corrupt(corrupt))
        if loss:
            injector.arm(IidLoss(loss))
    sink = PacketSink(tb.hosts[1], dst_port=DST_PORT)
    gen = RawEthernetBw(
        tb.sim, tb.hosts[0], tb.hosts[1],
        packet_size=256, rate_bps=gbps(5), count=count,
    )
    gen.start()
    tb.sim.run()
    return tb, guard, injector, sink, gen


class TestShimCodec:
    def test_round_trip(self):
        shim = GuardShimHeader(
            kind=2, flags=3, seq=0xDEADBEEF, ack=7, extent=9,
            checksum=0xABCD, inner_ethertype=0x0800,
        )
        raw = shim.pack()
        assert len(raw) == GuardShimHeader.LENGTH == 18
        again = GuardShimHeader.unpack(raw)
        assert again == shim
        assert again.pack() == raw

    def test_validates_fields(self):
        with pytest.raises(ValueError):
            GuardShimHeader(kind=9)
        with pytest.raises(ValueError):
            GuardShimHeader(seq=-1)
        with pytest.raises(ValueError):
            GuardShimHeader(checksum=1 << 16)

    def test_checksum_is_16_bit_and_content_sensitive(self):
        a = guard_checksum(b"hello world")
        b = guard_checksum(b"hello worle")
        assert 0 <= a < (1 << 16)
        assert a != b

    def test_protection_levels_exported(self):
        assert PROTECTION_LEVELS == ("off", "checksummed", "full-ordered")
        assert ETHERTYPE_LINKGUARD == 0x88B6


class TestConfig:
    def test_rejects_unknown_protection(self):
        with pytest.raises(ValueError):
            LinkGuardConfig(protection="best-effort")

    def test_rejects_nonpositive_buffers(self):
        with pytest.raises(ValueError):
            LinkGuardConfig(buffer_packets=0)
        with pytest.raises(ValueError):
            LinkGuardConfig(reorder_packets=0)
        with pytest.raises(ValueError):
            LinkGuardConfig(ack_every=0)

    def test_rejects_config_and_protection_together(self):
        tb = build_testbed(n_hosts=2, with_memory_server=False)
        with pytest.raises(ValueError):
            LinkGuard(
                tb.host_links[0],
                config=LinkGuardConfig(),
                protection="off",
            )


class TestFullOrdered:
    def test_masks_loss_and_corruption_in_order(self):
        tb, guard, injector, sink, gen = _guarded_run()
        assert sink.packets == gen.report.packets_sent
        assert sink.out_of_order == 0
        assert guard.counts["masked_losses"] > 0
        assert guard.counts["corrupt_dropped"] > 0
        assert guard.counts["unmasked_losses"] == 0

    def test_tail_drop_recovers_by_timeout(self):
        # Drop exactly the last data frame (guard seq 19): no later
        # frame exposes the hole at the receiver, so only the
        # sender-side tail timer can recover it.
        from repro.faults.models import LinkFault
        from repro.linkguard.shim import FLAG_RESENT, GUARD_DATA

        class DropLastData(LinkFault):
            name = "drop-last-data"

            def __init__(self, seq):
                super().__init__()
                self.seq = seq
                self.done = False

            def apply(self, deliveries, injector):
                kept = []
                for delay, pkt in deliveries:
                    shim = next(
                        (h for h in pkt.headers
                         if isinstance(h, GuardShimHeader)),
                        None,
                    )
                    if (
                        not self.done
                        and shim is not None
                        and shim.kind == GUARD_DATA
                        and shim.seq == self.seq
                        and not shim.flags & FLAG_RESENT
                    ):
                        self.done = True
                        injector.note("dropped", pkt)
                        continue
                    kept.append((delay, pkt))
                return kept

        tb, guard, injector, sink, gen = _guarded_run(
            count=20, shape=lambda inj: inj.arm(DropLastData(19))
        )
        assert sink.packets == 20
        assert guard.counts["tail_timeouts"] >= 1
        assert guard.counts["resent"] >= 1


class TestProtectionLevels:
    def test_off_is_passthrough(self):
        tb, guard, injector, sink, gen = _guarded_run(protection="off")
        assert guard.counts["protected"] == 0
        assert guard.counts["shim_bytes"] == 0
        # Losses leak straight through: the guard did nothing.
        assert sink.packets < gen.report.packets_sent

    def test_checksummed_delivers_all_without_ordering(self):
        tb, guard, injector, sink, gen = _guarded_run(
            protection="checksummed"
        )
        assert sink.packets == gen.report.packets_sent
        # Recovered frames are delivered as they arrive — reordering is
        # the price of the cheaper level.
        assert sink.out_of_order > 0
        assert guard.counts["reorder_fixed"] == 0

    def test_full_ordered_repairs_reordering(self):
        tb, guard, injector, sink, gen = _guarded_run()
        assert sink.out_of_order == 0
        assert guard.counts["reorder_fixed"] > 0


class TestDuplicateSuppression:
    def test_duplicate_frames_dropped_once(self):
        from repro.faults.models import Duplicate

        def shape(injector):
            injector.arm(Duplicate(0.05))

        tb, guard, injector, sink, gen = _guarded_run(shape=shape)
        assert sink.packets == gen.report.packets_sent
        assert sink.out_of_order == 0
        assert guard.counts["duplicates_dropped"] > 0


class TestDetach:
    def test_detach_restores_link_and_interfaces(self):
        tb = build_testbed(n_hosts=2, with_memory_server=False)
        link = tb.host_links[1]
        before_carry = link.carry
        before_deliver = {link.a: link.a.deliver, link.b: link.b.deliver}
        guard = LinkGuard(link)
        assert link.carry is not before_carry
        guard.detach()
        assert link.carry == before_carry
        assert link.a.deliver == before_deliver[link.a]
        assert link.b.deliver == before_deliver[link.b]
        assert not hasattr(link, "guard")


class TestTransportMasking:
    def test_transport_sees_nothing_under_iid_loss(self):
        """The §14 headline: with the guard on a lossy server link, the
        reliable store's entire recovery machinery stays idle — zero
        NAKs, zero timeouts, zero watchdog retransmissions — while the
        guard's own counters show it did the work."""
        with integrity_protected():
            tb = build_testbed(n_hosts=2)
            program = CountingProgram()
            for host, port in zip(tb.hosts, tb.host_ports):
                program.install(host.eth.mac, port)
            tb.switch.bind_program(program)
            config = StateStoreConfig(
                counters=1 << 10, reliable=True, retry_timeout_ns=usec(50)
            )
            channel = tb.controller.open_channel(
                tb.memory_server, tb.server_port, config.counters * 8
            )
            store = RemoteStateStore(tb.switch, channel, config=config)
            program.use_state_store(store)
            guard = LinkGuard(tb.server_link)
            injector = LinkFaultInjector(
                tb.server_link, rng=random.Random(42)
            )
            injector.arm(IidLoss(0.02))
            injector.arm(Corrupt(0.01))
            gen = RawEthernetBw(
                tb.sim, tb.hosts[0], tb.hosts[1],
                packet_size=128, rate_bps=1e9, count=600,
            )
            gen.start()
            tb.sim.run()
            for _ in range(64):
                if store.pending_value == 0 and store.outstanding == 0:
                    break
                store.flush_all()
                tb.sim.run()

            roce = store.rocegen.metrics
            assert guard.counts["masked_losses"] > 0
            assert roce["naks_received"] == 0
            assert roce["timeouts"] == 0
            assert store.metrics["retransmissions"] == 0


class TestBufferExhaustion:
    def test_exhaustion_fires_hooks_and_escalates_to_breaker(self):
        """When loss outruns the bounded buffer, the guard cannot mask —
        it must escalate.  Every unprotectable frame fires the
        ``on_exhausted`` hooks; wiring those into a circuit breaker
        (strike per event) turns sustained exhaustion into an open
        breaker, the §11 machinery taking over where §14 gives up."""
        tb = build_testbed(n_hosts=2, with_memory_server=False)
        program = CountingProgram()
        for host, port in zip(tb.hosts, tb.host_ports):
            program.install(host.eth.mac, port)
        tb.switch.bind_program(program)
        link = tb.host_links[1]
        guard = LinkGuard(
            link,
            config=LinkGuardConfig(buffer_packets=2, ack_every=64),
        )
        breaker = CircuitBreaker(
            tb.sim,
            "linkguard-escalation",
            config=CircuitBreakerConfig(
                fail_threshold=3, close_threshold=1
            ),
        )
        # Resolve every half-open probe successfully (the link is
        # lossy, not dead) — otherwise the unattended breaker would
        # re-trip and reschedule probes forever.
        breaker.on_half_open.append(lambda b: b.record("progress"))
        hook_hits = []

        def escalate(g, lane, seq):
            hook_hits.append((lane, seq))
            breaker.record("strike")

        guard.on_exhausted.append(escalate)
        injector = LinkFaultInjector(link, rng=random.Random(42))
        injector.arm(IidLoss(0.10))
        sink = PacketSink(tb.hosts[1], dst_port=DST_PORT)
        gen = RawEthernetBw(
            tb.sim, tb.hosts[0], tb.hosts[1],
            packet_size=256, rate_bps=gbps(20), count=200,
        )
        gen.start()
        tb.sim.run()

        assert guard.counts["buffer_exhausted"] > 0
        assert len(hook_hits) == guard.counts["buffer_exhausted"]
        assert breaker.opens >= 1
        # Unprotected frames that were then lost are *reported*
        # (RESYNC + unmasked counter), never silently stranded —
        # and the stream still terminates.
        assert guard.counts["resyncs"] > 0
        assert guard.counts["unmasked_losses"] > 0
        assert sink.packets < gen.report.packets_sent


class TestMetricsAndTrace:
    def test_guard_events_reach_the_wire_trace(self):
        from repro.obs import Observability
        from repro.obs.trace import WireTrace
        from repro.obs.trace import KIND_GUARD

        obs = Observability(trace=WireTrace())
        with obs.activate():
            tb, guard, injector, sink, gen = _guarded_run(count=100)
        kinds = {e.kind for e in obs.trace.events}
        assert KIND_GUARD in kinds
        actions = {
            e.channel for e in obs.trace.events if e.kind == KIND_GUARD
        }
        assert "nak" in actions
        assert "resend" in actions

    def test_counts_match_registry(self):
        tb, guard, injector, sink, gen = _guarded_run(count=100)
        for leaf in ("protected", "masked_losses", "resent", "shim_bytes"):
            assert guard.metrics[leaf] == guard.counts[leaf]
