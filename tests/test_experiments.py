"""Smoke + shape tests for every experiment harness.

Each harness runs at a reduced scale here; the benchmarks run them at
paper scale.  These tests pin the *qualitative* results the paper reports
(who wins, directions of deltas, accuracy claims).
"""

import pytest

from repro.experiments.ablations import (
    run_batching_ablation,
    run_cache_ablation,
    run_drop_ablation,
    run_mode_ablation,
    run_window_ablation,
)
from repro.experiments.baremetal import run_baremetal_comparison
from repro.experiments.fig3a import run_fig3a
from repro.experiments.fig3b import run_fig3b
from repro.experiments.incast import run_incast_comparison
from repro.experiments.overhead import run_overhead
from repro.experiments.packet_buffer_rate import (
    run_native_baseline,
    run_store_load_point,
)
from repro.experiments.telemetry import run_telemetry
from repro.rdma.constants import Opcode


class TestFig3a:
    def test_lookup_adds_one_to_three_microseconds(self):
        rows = run_fig3a(packet_sizes=(64, 512), probes=8)
        for row in rows.values():
            assert row["lookup_us"] > row["baseline_us"]
            assert 0.5 <= row["delta_us"] <= 3.5

    def test_latency_grows_with_packet_size(self):
        rows = run_fig3a(packet_sizes=(64, 1024), probes=8)
        assert rows["1024"]["baseline_us"] > rows["64"]["baseline_us"]
        assert rows["1024"]["lookup_us"] > rows["64"]["lookup_us"]


class TestFig3b:
    def test_fa_bandwidth_capped_regardless_of_packet_size(self):
        rows = run_fig3b(packet_sizes=(64, 1024), packets=2500)
        for row in rows.values():
            assert 1.5 <= row["fa_request_gbps"] <= 3.0
        spread = abs(rows["64"]["fa_request_gbps"] - rows["1024"]["fa_request_gbps"])
        assert spread < 0.5  # flat across packet sizes

    def test_counter_100_percent_accurate(self):
        rows = run_fig3b(packet_sizes=(256,), packets=2000)
        assert rows["256"]["counter_accurate"]

    def test_no_end_to_end_throughput_degradation(self):
        rows = run_fig3b(packet_sizes=(1024,), packets=2000)
        row = rows["1024"]
        assert row["goodput_gbps"] == pytest.approx(
            row["baseline_goodput_gbps"], rel=0.02
        )


class TestPacketBufferRate:
    def test_store_lossless_below_knee(self):
        result = run_store_load_point(offered_gbps=30, packets=800)
        assert result["lossless"]
        assert result["delivered"] == 800

    def test_store_lossy_above_knee(self):
        result = run_store_load_point(offered_gbps=40, packets=4000)
        assert not result["lossless"]

    def test_forward_rate_in_paper_ballpark(self):
        result = run_store_load_point(offered_gbps=30, packets=800)
        assert 33 <= result["forward_rate_gbps"] <= 40

    def test_native_baselines_reasonable(self):
        write = run_native_baseline(Opcode.RDMA_WRITE_ONLY, operations=500)
        read = run_native_baseline(Opcode.RDMA_READ_REQUEST, operations=500)
        assert 30 <= write <= 40
        assert 30 <= read <= 40


class TestIncast:
    @pytest.fixture(scope="class")
    def results(self):
        return run_incast_comparison(scale=0.04, n_memory_servers=8)

    def test_droptail_loses_heavily(self, results):
        assert results["droptail"]["loss_rate"] > 0.3

    def test_remote_buffer_lossless(self, results):
        r = results["remote_buffer"]
        assert r["lossless"]
        assert r["switch_drops"] == 0
        assert r["remote_stored"] > 0
        assert r["out_of_order"] == 0

    def test_pfc_lossless_but_blocks_victim(self, results):
        pfc = results["pfc"]
        remote = results["remote_buffer"]
        assert pfc["lossless"]
        assert pfc["pause_events"] > 0
        # PFC head-of-line blocks the victim; the remote buffer does not.
        assert pfc["victim_completion_ms"] > 2 * remote["victim_completion_ms"]

    def test_remote_buffer_does_not_slow_victim(self, results):
        droptail = results["droptail"]
        remote = results["remote_buffer"]
        assert remote["victim_completion_ms"] == pytest.approx(
            droptail["victim_completion_ms"], rel=0.2
        )


class TestOverhead:
    def test_all_rows_match_paper(self):
        rows = run_overhead()
        assert len(rows) == 3
        assert all(row["matches_paper"] for row in rows.values())

    def test_specific_numbers(self):
        by_name = run_overhead()
        assert by_name["RDMA WRITE"]["paper_total"] == 56
        assert by_name["Fetch-and-Add"]["paper_total"] == 68
        assert by_name["RDMA WRITE"]["rocev1_total"] == 68


class TestBaremetal:
    def test_remote_table_eliminates_slow_path(self):
        results = run_baremetal_comparison(vips=2000, packets=1200)
        slow, remote = results["slowpath"], results["remote"]
        assert remote["delivery_rate"] == 1.0
        assert remote["slow_path_translations"] == 0
        assert slow["slow_path_translations"] > 0
        # Tail latency collapses without the software path.
        assert remote["p99_latency_us"] < slow["p99_latency_us"] / 3


class TestTelemetry:
    def test_remote_sketch_more_accurate_than_sram(self):
        record = run_telemetry(flows=3000, packets=4000, remote_counters=1 << 16)
        local, remote = record["local"], record["remote"]
        assert remote["sketch_counters"] > 10 * local["sketch_counters"]
        assert remote["mean_relative_error"] < local["mean_relative_error"] / 2
        assert remote["hh_f1"] >= local["hh_f1"]
        assert remote["server_cpu_packets"] == 0

    def test_count_sketch_variant_works_over_remote_memory(self):
        """Count Sketch [11] — signed updates over Fetch-and-Add."""
        record = run_telemetry(
            flows=2000, packets=3000, remote_counters=1 << 16,
            sketch_kind="countsketch",
        )
        local, remote = record["local"], record["remote"]
        assert remote["sketch_kind"] == "countsketch"
        assert remote["mean_relative_error"] < local["mean_relative_error"] / 2
        assert remote["hh_f1"] >= 0.9
        assert remote["server_cpu_packets"] == 0

    def test_unknown_sketch_kind_rejected(self):
        with pytest.raises(ValueError):
            run_telemetry(flows=10, packets=10, sketch_kind="hyperloglog")


class TestAblations:
    def test_batching_reduces_operations(self):
        results = run_batching_ablation(batch_sizes=(1, 16), packets=1500)
        assert results[1]["operations"] < results[0]["operations"]
        # No counts are ever lost, just delayed.
        for r in results:
            assert r["counted_remotely"] + r["pending_locally"] == r["packets"]

    def test_window_beyond_rnic_limit_loses_counts(self):
        results = run_window_ablation(windows=(16, 64), packets=1500)
        within, beyond = results
        assert within["accurate"]
        assert not beyond["accurate"]
        assert beyond["rnic_overflow_drops"] > 0

    def test_bigger_cache_higher_hit_rate(self):
        results = run_cache_ablation(
            cache_sizes=(0, 1024), flows=1024, packets=1200
        )
        assert results[0]["hit_rate"] == 0.0
        assert results[1]["hit_rate"] > 0.5
        assert results[1]["remote_lookups"] < results[0]["remote_lookups"]

    def test_recirculate_saves_bandwidth_costs_passes(self):
        bounce, recirc = run_mode_ablation(packets=400)
        assert recirc["remote_request_bytes"] < bounce["remote_request_bytes"] / 2
        assert recirc["recirculation_passes"] >= 400
        assert bounce["recirculation_passes"] == 0

    def test_reliability_extension_fixes_drops(self):
        results = run_drop_ablation(
            loss_probabilities=(0.02,), packets=1000, modes=(False, True)
        )
        best_effort, reliable = results
        assert best_effort["count_error_rate"] > 0.0
        assert reliable["count_error_rate"] == 0.0
        assert reliable["retransmissions"] > 0


class TestLinkGuard:
    """Reduced-scale link-protection sweep: the §14 decision surface."""

    @pytest.fixture(scope="class")
    def rows(self):
        from repro.experiments.linkguard import run_linkguard_sweep

        return run_linkguard_sweep(packets=600)

    def test_acceptance_bar_holds_at_reduced_scale(self, rows):
        from repro.experiments.linkguard import EXPERIMENT

        assert EXPERIMENT.failures(rows) == []

    def test_guard_on_loses_nothing_guard_off_does(self, rows):
        assert rows["lookup[guard-on]"]["lost"] == 0
        assert rows["lookup[guard-off]"]["lost"] > 0
        assert rows["lookup[guard-on]"]["masked_losses"] > 0

    def test_breaker_is_blind_to_scattered_corruption(self, rows):
        for row in rows.values():
            if row["variant"] == "breaker-only":
                assert row["breaker_opens"] == 0
                # ...and therefore pays exactly the guard-off price.

    def test_pktbuf_drain_pays_for_transport_recovery(self, rows):
        # Guard-off, the transport's go-back-N recovers every corrupted
        # frame (nothing lost); guard-on, it is never called on.
        lossless = rows["pktbuf[lossless]"]["goodput_per_ms"]
        assert rows["pktbuf[guard-on]"]["goodput_per_ms"] >= 0.95 * lossless
        off, on = rows["pktbuf[guard-off]"], rows["pktbuf[guard-on]"]
        assert off["lost"] == 0 and off["transport_naks"] + off["transport_timeouts"] > 0
        assert on["transport_naks"] + on["transport_timeouts"] == 0
