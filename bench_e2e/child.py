"""One repetition of one workload, in a process of its own.

``run.py`` starts this file with a fresh interpreter per repetition so
set-up time and peak RSS are what a cold process really pays.  The child
times its own calls into the layers' public functions from outside,
reads the deterministic counters at the layer boundaries when the run
ends, and prints one JSON object on its last stdout line.

No span or timer is added under ``src/``: the traced variant wraps the
run phase in ``cProfile`` and attributes self time to layers by file.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import json
import re
import resource
import statistics
import sys
import time
from contextlib import contextmanager
from heapq import heappop, heappush
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


class _Cell:
    __slots__ = ("key", "owner", "pair")

    def __init__(self, key, owner, pair) -> None:
        self.key = key
        self.owner = owner
        self.pair = pair


def reference_spin(iterations: int) -> float:
    """Time a fixed pure-Python loop: the host-speed reference.

    Shaped like the simulator's own work (small-object allocation, a
    heap, a dict, attribute stores) because a neighbour that slows the
    host slows allocation-heavy code more than bare arithmetic: against
    this loop the run-to-run spread of the corrected rate was 1.9 % where
    an arithmetic loop left 3.1 % (raw: 8.6 %).
    """
    # A collection of the simulator's heap must not land in a sample.
    gc.disable()
    heap: list = []
    cells: dict = {}
    # The first quarter is untimed: it re-warms the caches the simulator
    # just evicted, so the sample follows the host, not the workload.
    for i in range(-(iterations // 4), iterations):
        if i == 0:
            start = time.perf_counter()
        cell = _Cell(i, None, (i, i + 1))
        heappush(heap, [(i * 7919) % 1009, i, cell])
        cells[i & 1023] = cell
        if len(heap) > 256:
            entry = heappop(heap)
            entry[2].owner = entry[1]
    elapsed = time.perf_counter() - start
    gc.enable()
    return elapsed


#: Reference spins interleaved with each run phase and the size of one
#: (~4.5 ms): ~0.6 s per phase, enough samples to track a host whose
#: speed drifts by 10-50 % within seconds.
REF_TICKS = 128
REF_TICK_ITERATIONS = 4_000
#: The loop timed just before and just after set-up (~55 ms each).
REF_LOOP_ITERATIONS = 50_000
#: One reference iteration on the reference container when it is quiet
#: (4.5 ms per interleaved spin).  Host time is counted in units of it:
#: a slowdown is measured time per iteration over this.
NOMINAL_ITERATION_S = 0.0045 / REF_TICK_ITERATIONS


def slowdown(spin_s: float, iterations: int) -> float:
    """How much slower than reference speed the host ran a spin."""
    return spin_s / (iterations * NOMINAL_ITERATION_S)


class SetupDone(Exception):
    """Raised at the first ``sim.run()`` of a set-up-only child."""


class Clock:
    """Times the workload's phases from outside the layers."""

    def __init__(self, t0: float, profiler, setup_only: bool, packets_created) -> None:
        self.t0 = t0
        self.profiler = profiler
        self.setup_only = setup_only
        self.packets_created = packets_created
        self.phases = {"build": 0.0, "install": 0.0, "verify": 0.0}
        self.first_run_at = None
        self.ref_loop_after = 0.0
        self.run_wall = 0.0
        self.run_cpu = 0.0
        self.packets_before = 0
        self.packets_after = 0
        #: Durations of the reference spins that fired inside run phases.
        self.ref_samples = []
        #: Host time the ticks took as a whole; not part of the run phase.
        self._tick_wall = 0.0
        self._tick_cpu = 0.0

    @contextmanager
    def phase(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.phases[name] += time.perf_counter() - start

    def reference(self, sim, start_ns: float, span_ns: float) -> None:
        """Interleave reference spins with the coming run phase.

        The spins are host-side callbacks scheduled at simulated times
        inside ``[start_ns, start_ns + 0.9 * span_ns]``, where the
        workload knows it will still be busy: they touch no simulated
        state, end before the workload does (``sim.now`` at the end is
        unchanged) and their time is taken out of the run phase.  A
        traced run schedules none, so the profile holds only the system.
        """
        if self.profiler is not None:
            return
        step = 0.9 * span_ns / REF_TICKS
        for k in range(1, REF_TICKS + 1):
            sim.schedule_at(start_ns + k * step, self._ref_tick)

    def _ref_tick(self) -> None:
        cpu = time.process_time()
        wall = time.perf_counter()
        self.ref_samples.append(reference_spin(REF_TICK_ITERATIONS))
        self._tick_wall += time.perf_counter() - wall
        self._tick_cpu += time.process_time() - cpu

    def run(self, sim) -> None:
        """``sim.run()``, the only thing the run phase times."""
        if self.first_run_at is None:
            self.first_run_at = time.monotonic() - self.t0
            self.ref_loop_after = reference_spin(REF_LOOP_ITERATIONS)
            self.packets_before = self.packets_created()
            if self.setup_only:
                raise SetupDone
        profiler = self.profiler
        tick_wall, tick_cpu = self._tick_wall, self._tick_cpu
        cpu = time.process_time()
        wall = time.perf_counter()
        if profiler is not None:
            profiler.enable()
        sim.run()
        if profiler is not None:
            profiler.disable()
        self.run_wall += time.perf_counter() - wall - (self._tick_wall - tick_wall)
        self.run_cpu += time.process_time() - cpu - (self._tick_cpu - tick_cpu)
        self.packets_after = self.packets_created()


# -- reading the layer boundaries ----------------------------------------------------


def canonical(value):
    """Registry values with floats rounded to 9 significant digits."""
    if isinstance(value, float):
        return float(f"{value:.9g}")
    if isinstance(value, dict):
        return {key: canonical(item) for key, item in sorted(value.items())}
    return value


def sim_digest(snapshot: dict, now: float) -> str:
    """SHA-256 over every simulated statistic of the run."""
    payload = json.dumps([canonical(snapshot), canonical(float(now))], sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


class Snapshot:
    """Sums registry leaves over every instance of a component scope."""

    def __init__(self, snapshot: dict) -> None:
        self.items = snapshot

    def values(self, base: str, leaf: str):
        """Values of ``base[...]#n.leaf`` — the scope itself, not children."""
        pattern = re.compile(rf"^{base}(\[[^\]]*\])?(#\d+)?\.{re.escape(leaf)}$")
        return [value for name, value in self.items.items() if pattern.match(name)]

    def total(self, base: str, leaf: str):
        return sum(self.values(base, leaf))

    def histogram_mean(self, base: str, leaf: str) -> float:
        found = self.values(base, leaf)
        count = sum(h["count"] for h in found)
        return sum(h["sum"] for h in found) / count if count else 0.0


RNIC = (
    "requests_received responses_sent writes_executed reads_executed atomics_executed "
    "bytes_written bytes_read naks_sent retransmissions rx_overflow_drops icrc_drops"
).split()
ROCEGEN = (
    "writes_issued reads_issued fetch_adds_issued request_wire_bytes "
    "response_wire_bytes timeouts naks_received"
).split()
STATESTORE = "operations_issued acks_received updates_combined retransmissions".split()
PKTBUF = "stored_packets loaded_packets ring_full_drops reorder_peak".split()
LINKGUARD = "protected resent masked_losses unmasked_losses shim_bytes".split()


def counted_metrics(outcome, clock: Clock) -> dict:
    """The untraced per-layer metrics of one run (host timings excluded)."""
    tb = outcome.tb
    registry = tb.sim.obs.registry
    snap = Snapshot(registry.snapshot())
    ops = outcome.ops
    packets = clock.packets_after - clock.packets_before
    out = {
        "sim.events": tb.sim.events_processed - len(clock.ref_samples),
        "sim.sim_ms": tb.sim.now / 1e6,
        "net.model.packets_created": packets,
        "net.model.packets_per_op": packets / ops,
        "switches.tm.drops": tb.switch.tm.total_dropped_packets,
        "obs.metrics_registered": len(registry),
    }
    for leaf in RNIC:
        out[f"rdma.rnic.{leaf}"] = snap.total("rnic", leaf)
    for leaf in ROCEGEN:
        out[f"core.rocegen.{leaf}"] = snap.total("roce", leaf)
    for leaf in STATESTORE:
        out[f"core.statestore.{leaf}"] = snap.total("statestore", leaf)
    for leaf in PKTBUF:
        out[f"core.pktbuf.{leaf}"] = snap.total("pktbuf", leaf)
    for leaf in LINKGUARD:
        out[f"linkguard.{leaf}"] = snap.total("linkguard", leaf)

    hits = snap.total("lookup", "local_hits")
    remote = snap.total("lookup", "remote_lookups")
    reads = sum(
        registry.value(f"{table.rocegen.metrics.name}.reads_issued", 0)
        for table in outcome.lookup_tables
    )
    out["core.lookup.local_hits"] = hits
    out["core.lookup.remote_lookups"] = remote
    out["core.lookup.lookups_lost"] = snap.total("lookup", "lookups_lost")
    out["core.lookup.hit_rate"] = hits / (hits + remote) if hits + remote else 0.0
    out["core.lookup.reads_per_miss"] = reads / remote if remote else 0.0
    out["core.lookup.remote_latency_mean_ns"] = snap.histogram_mean(
        "lookup", "remote_latency_ns"
    )
    out["core.statestore.op_latency_mean_ns"] = snap.histogram_mean(
        "statestore", "op_latency_ns"
    )
    out["cuckoo.relocations"] = snap.total("lookup", "cuckoo.relocations")
    out["cuckoo.kicks"] = snap.total("lookup", "cuckoo.kicks")
    out["cuckoo.load"] = max(snap.values("lookup", "cuckoo.load"), default=0.0)

    fast_hits = snap.total("tiering", "tier[fast].hits")
    dram_hits = snap.total("tiering", "tier[dram].hits")
    out["tiering.promotions"] = snap.total("tiering", "tier[fast].promotions")
    out["tiering.demotions"] = snap.total("tiering", "tier[dram].demotions")
    out["tiering.moves_skipped"] = snap.total("tiering", "moves_skipped")
    out["tiering.fast_hit_share"] = (
        fast_hits / (fast_hits + dram_hits) if fast_hits + dram_hits else 0.0
    )
    out["cluster.timeouts"] = snap.total(r"cluster\.member", "timeout")
    out["cluster.members_dead"] = sum(
        1 for alive in snap.values(r"cluster\.member", "alive") if not alive
    )
    out["faults.corrupted"] = snap.total(r"faults\.link", "corrupted")
    out["resilience.breaker_opens"] = snap.total(r"resilience\.breaker", "opens")
    out["resilience.degraded_ns"] = snap.total(r"resilience\.breaker", "degraded_ns")
    out["core.pktbuf.forward_gbps"] = 0.0
    out["apps.l4lb.migrations"] = 0
    out["apps.l4lb.affinity_breaks"] = 0
    out.update(outcome.extras)
    return out


def layer_profile(profiler, layer_of) -> dict:
    """Aggregate cProfile self time and call counts by layer."""
    src = str(SRC / "repro") + "/"
    here = str(HERE) + "/"
    layers: dict = {}
    for entry in profiler.getstats():
        code = entry.code
        filename = getattr(code, "co_filename", "")
        if filename.startswith(src):
            layer = layer_of(filename[len(src):])
        elif filename.startswith(here):
            layer = "workloads"  # the benchmark's own sinks and schedules
        else:
            layer = "other"
        slot = layers.setdefault(layer, {"self_s": 0.0, "calls": 0})
        slot["self_s"] += entry.inlinetime
        slot["calls"] += entry.callcount
    return layers


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True, help="parent's monotonic clock at spawn")
    parser.add_argument("--profile", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    spin_started = time.monotonic()
    ref_s = reference_spin(REF_LOOP_ITERATIONS)
    # Set-up is timed from the parent's spawn, less the reference loop.
    t0 = args.t0 + (time.monotonic() - spin_started)
    sys.path[:0] = [str(SRC), str(HERE)]
    import repro.api as api

    import_s = time.monotonic() - t0

    from metrics import layer_of
    from workloads import WORKLOADS

    # The process-wide packet counter lives beside Packet, wherever that is.
    packets_created = sys.modules[api.Packet.__module__].packets_created
    profiler = cProfile.Profile() if args.profile else None
    clock = Clock(t0, profiler, args.setup_only, packets_created)
    try:
        outcome = WORKLOADS[args.workload](args.scale, args.seed, clock)
    except SetupDone:
        outcome = None

    # Set-up is bracketed by two reference loops; their mean corrects it.
    loop_s = (ref_s + clock.ref_loop_after) / 2
    result = {
        "workload": args.workload,
        "scale": args.scale,
        "seed": args.seed,
        "traced": args.profile,
        "import_s": import_s,
        "phases": clock.phases,
        "raw_setup_s": clock.first_run_at,
        "ref_loop_s": loop_s,
        "setup_slowdown": slowdown(loop_s, REF_LOOP_ITERATIONS),
    }
    if outcome is not None:
        tb = outcome.tb
        result.update(
            run_wall_s=clock.run_wall,
            run_cpu_s=clock.run_cpu,
            # None in a traced run, which interleaves no reference spins.
            run_slowdown=slowdown(statistics.mean(clock.ref_samples), REF_TICK_ITERATIONS)
            if clock.ref_samples
            else None,
            ops=outcome.ops,
            failed=outcome.failed,
            checks=outcome.checks,
            notes=outcome.notes,
            counted=counted_metrics(outcome, clock),
            sim_digest=sim_digest(tb.sim.obs.registry.snapshot(), tb.sim.now),
            # ru_maxrss is KiB on Linux.
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
        if profiler is not None:
            result["layers"] = layer_profile(profiler, layer_of)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
