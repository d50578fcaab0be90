"""§2.3 / Fig. 1c: telemetry state-store scaling.

Two results the section argues for:

1. **Counter scaling** — remote DRAM holds orders of magnitude more
   counters than switch SRAM (the paper says 10^3x: 100 GB DRAM vs
   <100 MB SRAM), with exact per-flow counts at zero CPU.
2. **Sketch accuracy** — a sketch sized to an SRAM budget saturates and
   overestimates under many flows; the same sketch algorithm with a
   DRAM-resident (remote) backend is wide enough to stay accurate.
   Measured by mean relative error and heavy-hitter detection F1.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..apps.sketch import (
    CountMinSketch,
    CountSketch,
    LocalCounterBackend,
    RemoteCounterBackend,
    SketchGeometry,
)
from ..apps.telemetry import (
    HeavyHitterDetector,
    SketchTelemetryProgram,
    mean_relative_error,
)
from ..core.state_store import RemoteStateStore, StateStoreConfig
from ..rdma.constants import ATOMIC_OPERAND_BYTES
from ..sim.units import gbps, kib
from ..switches.hashing import FiveTuple
from ..workloads.flows import ZipfFlowWorkload
from ..testbed import build_testbed
from . import Experiment


def _run_backend(
    backend: str,
    flows: int,
    packets: int,
    sram_budget_bytes: int,
    remote_counters: int,
    alpha: float,
    hh_threshold: int,
    seed: int,
    sketch_kind: str = "countmin",
) -> dict:
    if sketch_kind not in ("countmin", "countsketch"):
        raise ValueError(f"unknown sketch kind {sketch_kind!r}")
    tb = build_testbed(n_hosts=2, with_memory_server=backend == "remote")
    program = tb.bind(SketchTelemetryProgram())

    depth = 4
    store: Optional[RemoteStateStore] = None
    if backend == "local":
        width = max(16, sram_budget_bytes // (depth * 8))
        geometry = SketchGeometry(depth=depth, width=width)
        counters = LocalCounterBackend(depth, width, sram_budget_bytes)
    else:
        width = remote_counters // depth
        geometry = SketchGeometry(depth=depth, width=width)
        config = StateStoreConfig(counters=depth * width, max_outstanding=16)
        channel = tb.controller.open_channel(
            tb.memory_server,
            tb.server_port,
            config.counters * ATOMIC_OPERAND_BYTES,
        )
        store = RemoteStateStore(tb.switch, channel, config=config)
        counters = RemoteCounterBackend(store, depth, width)
    sketch_cls = CountMinSketch if sketch_kind == "countmin" else CountSketch
    sketch = sketch_cls(geometry, counters)
    program.use_sketch(sketch)

    workload = ZipfFlowWorkload(
        tb.sim,
        tb.hosts[0],
        tb.hosts[1],
        flows=flows,
        alpha=alpha,
        packet_size=256,
        rate_bps=gbps(10),
        count=packets,
        seed=seed,
    )
    workload.start()
    tb.sim.run()
    if store is not None:
        store.flush_all()
        tb.sim.run()

    # Control-plane estimation pass over every flow the workload touched.
    keys: Dict[int, bytes] = {}
    estimates = []
    sent_by_rank = workload.sent_by_rank
    for rank, sent in sent_by_rank.items():
        key = workload.flow_key(rank)
        flow = FiveTuple(
            src_ip=tb.hosts[0].eth.ip.value,
            dst_ip=tb.hosts[1].eth.ip.value,
            protocol=17,
            src_port=key.src_port,
            dst_port=key.dst_port,
        )
        keys[rank] = flow.pack()
        estimates.append((sketch.estimate(keys[rank]), sent))

    detector = HeavyHitterDetector(sketch)
    report = detector.detect(keys, hh_threshold, sent_by_rank)
    return {
        "backend": backend,
        "sketch_kind": sketch_kind,
        "sketch_counters": geometry.counters,
        "sketch_bytes": geometry.bytes,
        "packets": workload.packets_sent,
        "distinct_flows": workload.distinct_flows_sent(),
        "mean_relative_error": mean_relative_error(estimates),
        "hh_precision": report.precision,
        "hh_recall": report.recall,
        "hh_f1": report.f1,
        "fa_operations": store.metrics["operations_issued"] if store else 0,
        "server_cpu_packets": tb.memory_server.cpu_packets if tb.memory_server else 0,
    }


def run_telemetry(
    flows: int = 20_000,
    packets: int = 20_000,
    sram_budget_bytes: int = kib(8),
    remote_counters: int = 1 << 20,
    alpha: float = 1.05,
    hh_threshold: int = 50,
    seed: int = 0,
    sketch_kind: str = "countmin",
) -> Dict[str, dict]:
    """Local-SRAM sketch vs remote-DRAM sketch on the same Zipf stream.

    ``sketch_kind`` picks the algorithm: Count-Min, or the paper's cited
    Count Sketch [11] (whose signed ±1 updates ride Fetch-and-Add as
    two's-complement deltas).
    """
    record = {
        backend: _run_backend(
            backend, flows, packets, sram_budget_bytes, remote_counters,
            alpha, hh_threshold, seed, sketch_kind=sketch_kind,
        )
        for backend in ("local", "remote")
    }
    # The configured counter count goes into the record: the size check
    # compares the remote sketch against it, not against a fixed ratio.
    record["remote"]["configured_counters"] = remote_counters
    return record


def _checks(record) -> dict:
    local, remote = record["local"], record["remote"]
    return {
        "remote sketch holds its configured counters, more than SRAM": (
            remote["sketch_counters"] == remote["configured_counters"]
            > local["sketch_counters"]
        ),
        "remote error under a fifth of SRAM's": (
            remote["mean_relative_error"] < local["mean_relative_error"] / 5
        ),
        "heavy hitters found at least as well": remote["hh_f1"] >= local["hh_f1"],
        "heavy-hitter F1 over 0.9": remote["hh_f1"] > 0.9,
        "no server CPU involved": remote["server_cpu_packets"] == 0,
    }


EXPERIMENT = Experiment(
    name="telemetry", run=run_telemetry, checks=_checks,
    quick={"flows": 3000, "packets": 4000, "remote_counters": 1 << 16},
    full={"flows": 20_000, "packets": 20_000, "remote_counters": 1 << 20},
)
