"""Tests for the telemetry program and heavy-hitter detection."""

import pytest

from repro.apps.sketch import CountMinSketch, LocalCounterBackend, SketchGeometry
from repro.apps.telemetry import (
    HeavyHitterDetector,
    HeavyHitterReport,
    SketchTelemetryProgram,
    mean_relative_error,
)
from repro.testbed import build_testbed
from repro.sim.units import gbps, kib
from repro.switches.hashing import FiveTuple
from repro.workloads.flows import ZipfFlowWorkload


def make_sketch(width=2048):
    geometry = SketchGeometry(depth=4, width=width)
    backend = LocalCounterBackend(4, width, sram_budget_bytes=4 * width * 8)
    return CountMinSketch(geometry, backend)


class TestHeavyHitterReport:
    def test_perfect_detection(self):
        report = HeavyHitterReport(threshold=5, detected={1, 2}, truth={1, 2})
        assert report.precision == 1.0
        assert report.recall == 1.0
        assert report.f1 == 1.0

    def test_false_positive_hurts_precision(self):
        report = HeavyHitterReport(threshold=5, detected={1, 2, 3}, truth={1, 2})
        assert report.precision == pytest.approx(2 / 3)
        assert report.recall == 1.0

    def test_miss_hurts_recall(self):
        report = HeavyHitterReport(threshold=5, detected={1}, truth={1, 2})
        assert report.recall == 0.5

    def test_empty_sets_are_vacuously_perfect(self):
        report = HeavyHitterReport(threshold=5, detected=set(), truth=set())
        assert report.precision == 1.0
        assert report.recall == 1.0
        assert report.f1 == 1.0


class TestMeanRelativeError:
    def test_exact_is_zero(self):
        assert mean_relative_error([(10, 10), (5, 5)]) == 0.0

    def test_overcount(self):
        assert mean_relative_error([(15, 10)]) == pytest.approx(0.5)

    def test_ignores_zero_truth(self):
        assert mean_relative_error([(5, 0), (10, 10)]) == 0.0

    def test_all_zero_truth_rejected(self):
        with pytest.raises(ValueError):
            mean_relative_error([(5, 0)])


class TestTelemetryProgram:
    def test_sketch_sees_every_forwarded_packet(self):
        tb = build_testbed(n_hosts=2, with_memory_server=False)
        program = SketchTelemetryProgram()
        for host, port in zip(tb.hosts, tb.host_ports):
            program.install(host.eth.mac, port)
        tb.switch.bind_program(program)
        sketch = make_sketch()
        program.use_sketch(sketch)
        workload = ZipfFlowWorkload(
            tb.sim, tb.hosts[0], tb.hosts[1],
            flows=20, count=200, rate_bps=gbps(10),
        )
        workload.start()
        tb.sim.run()
        assert sketch.items_added == 200
        # CMS estimates for each flow must be at least the ground truth.
        for rank, count in workload.sent_by_rank.items():
            key = workload.flow_key(rank)
            flow = FiveTuple(
                src_ip=tb.hosts[0].eth.ip.value,
                dst_ip=tb.hosts[1].eth.ip.value,
                protocol=17,
                src_port=key.src_port,
                dst_port=key.dst_port,
            )
            assert sketch.estimate(flow.pack()) >= count

    def test_detector_finds_planted_heavy_hitter(self):
        sketch = make_sketch()
        keys = {i: f"flow-{i}".encode() for i in range(20)}
        truth = {}
        for i, key in keys.items():
            count = 100 if i == 0 else 2
            truth[i] = count
            for _ in range(count):
                sketch.add(key)
        detector = HeavyHitterDetector(sketch)
        report = detector.detect(keys, threshold=50, truth_counts=truth)
        assert report.detected == {0}
        assert report.truth == {0}
        assert report.f1 == 1.0
