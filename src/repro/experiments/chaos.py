"""Chaos soak: the state store under a lossy switch-to-server link.

The paper's counter primitive (§4, Fig. 3b) assumes its RDMA channel is
lossless; §5 then admits "RDMA requests were occasionally dropped at the
NIC" without saying what that costs.  This experiment answers with the
fault subsystem: sweep i.i.d. loss on the memory-server link (both
directions — lost Fetch-and-Adds *and* lost ACKs) while a switch counts
a fixed packet schedule into the remote store, and measure

* **correctness** — with the reliable-mode store (same-PSN retransmit,
  NAK-driven go-back-N, watchdog), every per-counter total must match
  the send schedule exactly: zero lost updates at every loss rate;
* **goodput** — completed counter updates per second of simulated time,
  reported relative to the lossless run.  NAK-driven recovery keeps the
  penalty small (the LinkGuardian argument: react to the loss *event*,
  not the timeout) — the acceptance bar is ≥ 90 % of lossless goodput
  at 1 % loss.

Every fault draws from the :class:`~repro.faults.FaultPlan`'s seed, so a
row reproduces byte-for-byte from ``(seed, loss_rate)`` — the committed
``benchmarks/BENCH_chaos.json`` record is regenerated, not re-measured.
"""

from __future__ import annotations

from typing import Dict, Sequence

from ..apps.programs import RemoteBufferProgram
from ..core.packet_buffer import (
    ENTRY_SEQ_BYTES,
    PacketBufferConfig,
    RemotePacketBuffer,
)
from ..core.state_store import StateStoreConfig
from ..faults.models import Blackout, IidLoss
from ..faults.plan import FaultPlan
from ..policies.breaker import BreakerPolicy
from ..resilience.breaker import CircuitBreakerConfig
from ..resilience.guard import SelfHealingChannel
from ..sim.rng import SeedSequence
from ..sim.units import usec
from ..workloads.perftest import PacketSink, RawEthernetBw
from ..testbed import build_testbed
from . import Experiment
from .scaleout import count_schedule, counter_schedule, counting_store

#: Root seed for every chaos run; one number pins the whole timeline.
CHAOS_SEED = 42

#: The swept per-packet loss probabilities (both link directions).
LOSS_RATES = (0.0, 0.001, 0.01, 0.05)

_DST_PORT = 20_000


def run_chaos_point(
    loss_rate: float,
    packets: int = 3000,
    flows: int = 16,
    counters: int = 1 << 12,
    seed: int = CHAOS_SEED,
    reliable: bool = True,
    retry_timeout_ns: float = 50_000.0,
) -> dict:
    """Count *packets* through a link losing each packet with *loss_rate*.

    The expected per-counter totals are fixed by the send schedule (the
    flow rotation and the counter hash), so correctness is exact, not
    statistical.  ``reliable=False`` runs the same sweep without the
    recovery machinery — the ablation showing how much the paper's
    fire-and-forget counters actually lose.
    """
    tb = build_testbed(n_hosts=2, with_memory_server=True)
    store = counting_store(
        tb,
        StateStoreConfig(
            counters=counters, reliable=reliable, retry_timeout_ns=retry_timeout_ns
        ),
    )

    plan = FaultPlan(seed=seed)
    wire = None
    if loss_rate > 0.0:
        wire = plan.on_link(tb.server_link, name="server-link")
        plan.at(0.0, wire, IidLoss(loss_rate))
    plan.install(tb.sim)

    expected = counter_schedule(tb, packets, flows, counters)
    count_schedule(tb, store, packets, flows)
    recovered = {
        index: store.read_counter_via_control_plane(index)
        for index in expected
    }
    # Read drop totals off the injector object, not a registry snapshot:
    # under a shared registry a second sweep point's scope is renamed
    # ("...#2") and a name-based snapshot reads the wrong run.
    dropped = wire.dropped if wire is not None else 0
    expected_total, recovered_total = sum(expected.values()), sum(recovered.values())
    duration_ms = tb.sim.now / 1e6
    roce = store.rocegen.metrics
    return {
        "seed": seed,
        "loss_rate": loss_rate,
        "packets_sent": packets,
        "duration_ms": duration_ms,
        "expected_total": expected_total,
        "recovered_total": recovered_total,
        "lost_updates": expected_total - recovered_total,
        # Counters whose recovered value differs from the schedule.
        "counters_wrong": sum(
            1 for index, value in expected.items() if recovered[index] != value
        ),
        "link_drops": int(dropped),
        "retransmissions": store.metrics["retransmissions"],
        "naks": roce["naks_received"],
        "timeouts": roce["timeouts"],
        "goodput_updates_per_ms": recovered_total / duration_ms if duration_ms > 0 else 0.0,
    }


def run_chaos_sweep(
    loss_rates: Sequence[float] = LOSS_RATES,
    packets: int = 3000,
    seed: int = CHAOS_SEED,
    reliable: bool = True,
) -> Dict[str, dict]:
    """The soak: one row per loss rate, identical workload and seed."""
    return {
        f"loss[{rate:g}]": run_chaos_point(
            rate, packets=packets, seed=seed, reliable=reliable
        )
        for rate in loss_rates
    }


def breaker_config() -> CircuitBreakerConfig:
    """Breaker pacing tuned to 50 µs retry/read watchdogs; the linkguard
    and L4LB scenarios use the same."""
    return CircuitBreakerConfig(
        fail_threshold=3,
        close_threshold=1,
        open_timeout_ns=usec(100),
        probe_timeout_ns=usec(60),
        probe_jitter_ns=usec(10),
        backoff=2.0,
    )


def run_chaos_recovery(
    packets: int = 2000,
    flows: int = 16,
    counters: int = 1 << 12,
    seed: int = CHAOS_SEED,
    blackout_start_ns: float = usec(300),
    blackout_ns: float = usec(400),
) -> dict:
    """Blackout → degrade → reconnect → reconcile, at one fixed seed.

    **Phase A** counts a fixed schedule into a reliable state store while
    the server link blacks out for *blackout_ns* — far longer than the
    50 µs retry window, so every in-flight Fetch-and-Add stalls.  The
    channel's breaker must open (degraded accumulation), fail at least
    one half-open probe (the blackout outlives the first reopen window),
    then reconnect and reconcile to **exact** per-counter totals.

    **Phase B** stores a burst into a remote packet-buffer ring, blacks
    the link out as draining starts, and requires every stranded entry to
    be delivered in order after the breaker re-closes: zero dropped
    buffered packets.  Both phases run under one seed and must land on
    *exact* totals.
    """
    seeds = SeedSequence(seed)

    # ---- phase A: state store under blackout -------------------------------
    tb = build_testbed(n_hosts=2, with_memory_server=True)
    store = counting_store(
        tb, StateStoreConfig(counters=counters, reliable=True, retry_timeout_ns=usec(50))
    )
    guard = SelfHealingChannel(
        tb.controller,
        store.channel,
        store,
        policy=BreakerPolicy(
            config=breaker_config(),
            rng=seeds.stream("breaker[store]"),
        ),
    )

    plan = FaultPlan(seed=seed)
    plan.at(
        blackout_start_ns,
        plan.on_link(tb.server_link, name="server-link"),
        Blackout(),
        duration_ns=blackout_ns,
    )
    plan.install(tb.sim)

    expected = counter_schedule(tb, packets, flows, counters)
    count_schedule(tb, store, packets, flows)
    recovered = {
        index: store.read_counter_via_control_plane(index)
        for index in expected
    }
    store_duration_ms = tb.sim.now / 1e6
    store_breaker = guard.breaker

    # ---- phase B: packet buffer ring stranded behind a blackout ------------
    tb2 = build_testbed(n_hosts=2, with_memory_server=True)
    buf_program = tb2.bind(RemoteBufferProgram())
    frame_bytes = 128
    entry_bytes = frame_bytes + ENTRY_SEQ_BYTES
    buf_packets = max(64, packets // 8)
    buf_channel = tb2.controller.open_channel(
        tb2.memory_server, tb2.server_port, (buf_packets + 16) * entry_bytes
    )
    primitive = RemotePacketBuffer(
        tb2.switch,
        buf_channel,
        protected_port=tb2.host_ports[1],
        config=PacketBufferConfig(
            entry_bytes=entry_bytes,
            high_watermark_bytes=0,  # store the whole burst
            low_watermark_bytes=1 << 30,
            manual_load=True,
            max_outstanding_reads=4,
            read_timeout_ns=usec(50),
        ),
    )
    buf_program.use_packet_buffer(primitive)
    buf_guard = SelfHealingChannel(
        tb2.controller,
        buf_channel,
        primitive,
        policy=BreakerPolicy(
            config=breaker_config(),
            rng=seeds.stream("breaker[pktbuf]"),
        ),
    )

    sink = PacketSink(tb2.hosts[1], dst_port=_DST_PORT)
    gen = RawEthernetBw(
        tb2.sim,
        tb2.hosts[0],
        tb2.hosts[1],
        packet_size=frame_bytes,
        rate_bps=1e9,
        count=buf_packets,
        dst_port=_DST_PORT,
    )
    gen.start()
    tb2.sim.run()  # store phase: the whole burst lands in the remote ring
    buffered = primitive.metrics["stored_packets"]

    # Black the link out exactly as draining starts: the read chain
    # stalls, the breaker opens, and the ring is stranded until the
    # post-blackout probe succeeds.
    drain_plan = FaultPlan(seed=seed + 1)
    drain_plan.at(
        tb2.sim.now,
        drain_plan.on_link(tb2.server_link, name="server-link"),
        Blackout(),
        duration_ns=blackout_ns,
    )
    drain_plan.install(tb2.sim)
    primitive.start_draining()
    tb2.sim.run()

    expected_total, recovered_total = sum(expected.values()), sum(recovered.values())
    degraded_updates = store.metrics["degraded_updates"]
    degraded_ms = store_breaker.degraded_ns / 1e6
    healthy_ms = store_duration_ms - degraded_ms
    return {
        "seed": seed,
        "packets_sent": packets,
        "store_duration_ms": store_duration_ms,
        "buffer_duration_ms": tb2.sim.now / 1e6,
        "expected_total": expected_total,
        "recovered_total": recovered_total,
        "lost_updates": expected_total - recovered_total,
        "counters_wrong": sum(
            1 for index, value in expected.items() if recovered[index] != value
        ),
        "degraded_updates": degraded_updates,
        "degraded_ms": degraded_ms,
        # Updates absorbed per ms while the store breaker was open, and
        # per ms over the healthy remainder of the run.
        "goodput_degraded_per_ms": (
            degraded_updates / degraded_ms if degraded_ms > 0 else 0.0
        ),
        "goodput_healthy_per_ms": (
            (expected_total - degraded_updates) / healthy_ms if healthy_ms > 0 else 0.0
        ),
        "store_breaker_opens": store_breaker.opens,
        "store_probe_failures": store_breaker.probe_failures,
        "store_reconnects": guard.reconnects,
        "buffered_packets": buffered,
        "delivered_packets": sink.packets,
        "lost_buffered": buffered - sink.packets,
        "out_of_order": sink.out_of_order,
        "buffer_reconnects": buf_guard.reconnects,
        "store_breaker_closes": store_breaker.closes,
        "buffer_breaker_opens": buf_guard.breaker.opens,
        "buffer_breaker_closes": buf_guard.breaker.closes,
        "reconcile_reads": store.metrics["reconcile_reads"],
        "reconciled_reissued": store.metrics["reconciled_reissued"],
        "lost_in_transit": primitive.metrics["lost_in_transit"],
        "lost_to_failover": primitive.metrics["lost_to_failover"],
        "buffer_probe_failures": buf_guard.breaker.probe_failures,
        "buffer_degraded_ns": buf_guard.breaker.degraded_ns,
    }


def _checks(record) -> dict:
    sweep = [r for name, r in record.items() if name.startswith("loss[")]
    lossless, lossy = record["loss[0]"], record["loss[0.01]"]
    recovery = record["recovery"]
    return {
        "zero lost updates at every loss rate": all(
            r["lost_updates"] == 0 for r in sweep
        ),
        "every counter exact at every loss rate": all(
            r["counters_wrong"] == 0 for r in sweep
        ),
        "1% loss actually drops frames": lossy["link_drops"] > 0,
        "goodput at 1% loss within 10% of lossless": (
            lossy["goodput_updates_per_ms"]
            >= 0.9 * lossless["goodput_updates_per_ms"]
        ),
        "recovery: no lost update": recovery["lost_updates"] == 0,
        "recovery: every counter exact": recovery["counters_wrong"] == 0,
        "recovery: no buffered packet lost": recovery["lost_buffered"] == 0,
        "recovery: buffer drains in order": recovery["out_of_order"] == 0,
        "recovery: buffered packets drained": recovery["delivered_packets"] > 0,
        "recovery: both breakers open": recovery["store_breaker_opens"] > 0
        and recovery["buffer_breaker_opens"] > 0,
        "recovery: both breakers re-close": recovery["store_breaker_closes"] > 0
        and recovery["buffer_breaker_closes"] > 0,
        "recovery: the blackout outlives the first probe": (
            recovery["store_probe_failures"] > 0
        ),
    }


EXPERIMENT = Experiment(
    name="chaos",
    run=lambda packets: {
        **run_chaos_sweep(packets=packets),
        "recovery": run_chaos_recovery(packets=packets),
    },
    checks=_checks,
    quick={"packets": 1000}, full={"packets": 3000},
)
