"""Link-protection sweep: goodput over a corrupting link, guard vs breaker.

The LinkGuardian paper's `effective_lossRate_linkSpeed` experiment asks
one question of a corrupting link: how much goodput survives at a given
loss rate, with and without link-local protection?  This harness ports
that question onto the repo's two streaming primitives and its two
resilience mechanisms, at a fixed 10⁻³ per-frame corruption rate:

* ``lossless``     — clean link, no protection: the baseline.
* ``guard-off``    — corruption, transport go-back-N only (DESIGN.md
  §10): every corrupted frame is an ICRC drop that costs a NAK replay
  or a watchdog timeout — and, for the lookup table's bounced packets,
  is simply *lost* (the bounce has no end-to-end retry).
* ``breaker-only`` — corruption plus a :class:`SelfHealingChannel`
  (§11).  The decision-surface datum: scattered corruption never trips
  a breaker (strikes are not consecutive), so it behaves like
  ``guard-off`` — the breaker is the wrong tool for this failure.
* ``guard-on``     — corruption plus a full-ordered
  :class:`~repro.linkguard.LinkGuard` (§14): the guard detects the
  corrupt frame *at the link*, NAKs immediately, and resends from its
  emergency buffer within a link RTT.  The transport never notices.

Two workloads, both on the switch↔memory-server link:

* ``lookup`` — the §4 bounce-mode lookup table with its SRAM cache
  disabled, so every packet crosses the bad link twice in each
  direction; goodput is packets delivered to the destination host.
* ``pktbuf`` — the remote packet-buffer ring: a burst is stored over a
  clean link, the link then starts corrupting, and the drain must
  deliver every stranded entry; goodput is drained packets per ms of
  drain time (self-clocked, so recovery stalls show up directly).

Everything runs under :func:`~repro.rdma.packets.integrity_protected`
(ICRC verified end to end) and one seed: rows reproduce byte-for-byte
from ``(seed, variant, workload)``, and the committed
``benchmarks/BENCH_linkguard.json`` is regenerated, not re-measured.
"""

from __future__ import annotations

from typing import Dict, Sequence

from ..apps.programs import RemoteBufferProgram, RemoteLookupProgram
from ..core.lookup_table import (
    ACTION_SET_DSCP,
    LookupTableConfig,
    RemoteAction,
    RemoteLookupTable,
)
from ..core.packet_buffer import (
    ENTRY_SEQ_BYTES,
    PacketBufferConfig,
    RemotePacketBuffer,
)
from ..faults.models import Corrupt
from ..faults.plan import FaultPlan
from ..linkguard.guard import LinkGuard
from ..policies.breaker import BreakerPolicy
from ..rdma.packets import integrity_protected
from ..resilience.guard import SelfHealingChannel
from ..sim.rng import SeedSequence
from ..sim.units import gbps, usec
from ..switches.hashing import FiveTuple
from ..workloads.perftest import PacketSink, RawEthernetBw
from ..testbed import build_testbed
from . import Experiment
from .chaos import breaker_config

#: Root seed: one number pins every variant's timeline.
LINKGUARD_SEED = 42

#: The swept per-frame corruption probability (both link directions).
CORRUPT_RATE = 1e-3

#: Protection variants, weakest first.
VARIANTS = ("lossless", "guard-off", "breaker-only", "guard-on")

#: The two streaming primitives the sweep measures.
WORKLOADS = ("lookup", "pktbuf")

_DST_PORT = 20_000


def _protect(variant: str, tb, channel, primitive, seeds: SeedSequence):
    """Install the variant's protection; returns ``(guard, healer)``."""
    guard = healer = None
    if variant == "guard-on":
        guard = LinkGuard(tb.server_link)
    elif variant == "breaker-only":
        healer = SelfHealingChannel(
            tb.controller,
            channel,
            primitive,
            policy=BreakerPolicy(
                config=breaker_config(),
                rng=seeds.stream(f"breaker[{variant}]"),
            ),
        )
    return guard, healer


def _corrupt(variant: str, tb, at_ns: float, rate: float, seed: int):
    """Arm symmetric corruption on the server link (except ``lossless``)."""
    if variant == "lossless" or rate <= 0.0:
        return None
    plan = FaultPlan(seed=seed)
    wire = plan.on_link(tb.server_link, name="server-link")
    plan.at(at_ns, wire, Corrupt(rate))
    plan.install(tb.sim)
    return wire


def run_linkguard_point(
    variant: str,
    workload: str,
    packets: int = 1500,
    corrupt_rate: float = CORRUPT_RATE,
    seed: int = LINKGUARD_SEED,
) -> dict:
    """One protection variant driving one primitive over the bad link."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected {VARIANTS}")
    if workload == "lookup":
        return _run_lookup(variant, packets, corrupt_rate, seed)
    if workload == "pktbuf":
        return _run_pktbuf(variant, packets, corrupt_rate, seed)
    raise ValueError(f"unknown workload {workload!r}; expected {WORKLOADS}")


def _row(
    variant, workload, seed, corrupt_rate, sent, sink, wire, guard, healer,
    transport_naks, transport_timeouts, duration_ms,
) -> dict:
    # Read effect totals off the injector/guard objects, not a registry
    # snapshot: under a shared registry a later variant's scope is
    # renamed ("...#2") and a name-based snapshot reads the wrong run.
    counts = guard.counts if guard is not None else {}
    return {
        "seed": seed,
        "variant": variant,
        "workload": workload,
        "corrupt_rate": corrupt_rate,
        "packets_sent": sent,
        # The measurement window: total run for ``lookup``, the drain
        # phase for ``pktbuf`` (its store phase is identical across
        # variants).
        "duration_ms": duration_ms,
        "delivered": sink.packets,
        "lost": sent - sink.packets,
        "out_of_order": sink.out_of_order,
        # Frames the fault injector corrupted on the wire.
        "corrupted_frames": wire.effects.get("corrupted", 0) if wire is not None else 0,
        # Transport-level recovery the variant paid (go-back-N NAK replays
        # plus watchdog timeouts) — zero when the guard masks below it.
        "transport_naks": transport_naks,
        "transport_timeouts": transport_timeouts,
        # Losses the guard repaired before the transport could see them.
        "masked_losses": counts.get("masked_losses", 0),
        "guard_resent": counts.get("resent", 0),
        "shim_bytes": counts.get("shim_bytes", 0),
        "breaker_opens": healer.breaker.opens if healer is not None else 0,
        "goodput_per_ms": sink.packets / duration_ms if duration_ms > 0 else 0.0,
    }


def _run_lookup(
    variant: str, packets: int, corrupt_rate: float, seed: int
) -> dict:
    """Bounce-mode lookups with the cache off: four bad-link crossings
    per packet, and a deposited packet a transport retry cannot recover."""
    seeds = SeedSequence(seed)
    with integrity_protected():
        tb = build_testbed(n_hosts=2, with_memory_server=True)
        program = tb.bind(RemoteLookupProgram())
        config = LookupTableConfig(entries=1 << 10, cache_entries=0)
        channel = tb.controller.open_channel(
            tb.memory_server,
            tb.server_port,
            config.entries * config.entry_bytes,
        )
        table = RemoteLookupTable(tb.switch, channel, config=config)
        program.use_lookup_table(table)
        flow = FiveTuple(
            src_ip=tb.hosts[0].eth.ip.value,
            dst_ip=tb.hosts[1].eth.ip.value,
            protocol=17,
            src_port=10_000,
            dst_port=_DST_PORT,
        )
        table.install(flow, RemoteAction(ACTION_SET_DSCP, 9))

        guard, healer = _protect(variant, tb, channel, table, seeds)
        wire = _corrupt(variant, tb, 0.0, corrupt_rate, seed)
        sink = PacketSink(tb.hosts[1], dst_port=_DST_PORT)
        gen = RawEthernetBw(
            tb.sim,
            tb.hosts[0],
            tb.hosts[1],
            packet_size=512,
            rate_bps=gbps(5),
            count=packets,
            dst_port=_DST_PORT,
        )
        gen.start()
        tb.sim.run()
        roce = table.rocegen.metrics
        return _row(
            variant, "lookup", seed, corrupt_rate, packets, sink, wire,
            guard, healer, roce["naks_received"], roce["timeouts"],
            tb.sim.now / 1e6,
        )


def _run_pktbuf(
    variant: str, packets: int, corrupt_rate: float, seed: int
) -> dict:
    """Store a burst cleanly, then drain it while the link corrupts.

    The drain is self-clocked (chained READs, bounded outstanding), so
    every recovery stall — a 50 µs read watchdog versus a µs-scale guard
    resend — lands directly in the drain time.
    """
    seeds = SeedSequence(seed)
    with integrity_protected():
        tb = build_testbed(n_hosts=2, with_memory_server=True)
        program = tb.bind(RemoteBufferProgram())
        frame_bytes = 128
        entry_bytes = frame_bytes + ENTRY_SEQ_BYTES
        channel = tb.controller.open_channel(
            tb.memory_server, tb.server_port, (packets + 16) * entry_bytes
        )
        primitive = RemotePacketBuffer(
            tb.switch,
            channel,
            protected_port=tb.host_ports[1],
            config=PacketBufferConfig(
                entry_bytes=entry_bytes,
                high_watermark_bytes=0,  # store the whole burst
                low_watermark_bytes=1 << 30,
                manual_load=True,
                max_outstanding_reads=4,
                read_timeout_ns=usec(50),
            ),
        )
        program.use_packet_buffer(primitive)

        guard, healer = _protect(variant, tb, channel, primitive, seeds)
        sink = PacketSink(tb.hosts[1], dst_port=_DST_PORT)
        gen = RawEthernetBw(
            tb.sim,
            tb.hosts[0],
            tb.hosts[1],
            packet_size=frame_bytes,
            rate_bps=gbps(1),
            count=packets,
            dst_port=_DST_PORT,
        )
        gen.start()
        tb.sim.run()  # store phase: the burst lands in the remote ring
        stored = primitive.metrics["stored_packets"]

        wire = _corrupt(variant, tb, tb.sim.now, corrupt_rate, seed)
        drain_start = tb.sim.now
        primitive.start_draining()
        tb.sim.run()
        # The drain's recovery cost: NAKs, and the read QPs' timer rounds
        # that found a READ unanswered.
        gens = {id(g): g for g in (*primitive.rocegens, *primitive.read_rocegens)}
        naks = sum(g.metrics["naks_received"] for g in gens.values())
        timeouts = sum(g.metrics["timeouts"] for g in gens.values())
        return _row(
            variant, "pktbuf", seed, corrupt_rate, stored, sink, wire,
            guard, healer, naks, timeouts,
            (tb.sim.now - drain_start) / 1e6,
        )


def run_linkguard_sweep(
    packets: int = 1500,
    corrupt_rate: float = CORRUPT_RATE,
    seed: int = LINKGUARD_SEED,
    variants: Sequence[str] = VARIANTS,
    workloads: Sequence[str] = WORKLOADS,
) -> Dict[str, dict]:
    """The full grid: one entry per ``workload[variant]``, goodput also as
    a fraction of the workload's lossless run."""
    record = {
        f"{workload}[{variant}]": run_linkguard_point(
            variant, workload,
            packets=packets, corrupt_rate=corrupt_rate, seed=seed,
        )
        for workload in workloads
        for variant in variants
    }
    lossless = {
        r["workload"]: r["goodput_per_ms"]
        for r in record.values()
        if r["variant"] == "lossless"
    }
    for r in record.values():
        base = lossless.get(r["workload"], 0)
        r["goodput_vs_lossless"] = r["goodput_per_ms"] / base if base > 0 else None
    return record


def _checks(record) -> dict:
    def rows(workloads=WORKLOADS, variants=VARIANTS):
        return [record[f"{w}[{v}]"] for w in workloads for v in variants]

    guarded = rows(variants=("guard-on",))
    return {
        "lossless baselines lose nothing": all(
            r["lost"] == 0 for r in rows(variants=("lossless",))
        ),
        "guard-on loses nothing, in order": all(
            r["lost"] == 0 and r["out_of_order"] == 0 for r in guarded
        ),
        "guard-on within 5% of lossless goodput": all(
            r["goodput_vs_lossless"] >= 0.95 for r in guarded
        ),
        "guard-on masks the corruption": all(r["masked_losses"] > 0 for r in guarded),
        "guard-on hides every loss from the transport": all(
            r["transport_naks"] == 0 and r["transport_timeouts"] == 0 for r in guarded
        ),
        "pktbuf loses nothing, in order, in every variant": all(
            r["lost"] == 0 and r["out_of_order"] == 0 for r in rows(("pktbuf",))
        ),
        "pktbuf guard-off falls back on transport recovery": (
            record["pktbuf[guard-off]"]["transport_naks"]
            + record["pktbuf[guard-off]"]["transport_timeouts"]
            > 0
        ),
        "lookup guard-off loses bounced packets": record["lookup[guard-off]"]["lost"] > 0,
        "no breaker opens on scattered corruption": all(
            r["breaker_opens"] == 0 for r in rows()
        ),
    }


EXPERIMENT = Experiment(
    name="linkguard", run=run_linkguard_sweep, checks=_checks,
    quick={"packets": 800}, full={"packets": 1500},
)
