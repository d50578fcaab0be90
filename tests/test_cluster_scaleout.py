"""Acceptance tests for the cluster scale-out experiment.

The two headline claims, asserted end to end at reduced scale:

* 4 pooled servers sustain >= 3x the single-server aggregate lookup miss
  throughput at equal per-server region size (each configuration driven
  at its own maximum lossless rate);
* killing one server mid-run under K=2 replication loses not a single
  state-store counter update.
"""

from repro.experiments.scaleout import (
    mega_per_sec,
    run_failover_counters,
    run_scaleout,
    run_scaleout_point,
)
from repro.obs import Observability


def _mlookups_per_sec(row):
    """The row's miss throughput before the record rounds it."""
    return mega_per_sec(row["lookups_completed"], row["duration_ms"])


class TestLookupScaleout:
    def test_four_servers_at_least_3x_single_server(self):
        rows = run_scaleout(server_counts=(1, 4), lookups_per_host=400)
        single, pooled = rows["scaleout_1_servers"], rows["scaleout_4_servers"]
        assert single["servers"] == 1 and pooled["servers"] == 4
        # Equal per-server region size, every configuration lossless.
        assert single["lookups_lost"] == 0
        assert pooled["lookups_lost"] == 0
        assert single["lookups_completed"] == single["lookups_sent"]
        assert pooled["lookups_completed"] == pooled["lookups_sent"]
        speedup = _mlookups_per_sec(pooled) / _mlookups_per_sec(single)
        assert speedup >= 3.0

    def test_sweep_is_lossless_and_monotone(self):
        rows = run_scaleout(server_counts=(1, 2, 4), lookups_per_host=300)
        rates = [_mlookups_per_sec(row) for row in rows.values()]
        assert all(row["lookups_lost"] == 0 for row in rows.values())
        assert rates == sorted(rates)

    def test_single_server_saturates_at_rnic_pipeline(self):
        # Overdriving one server at the 4-server offered rate pins its
        # throughput at the RNIC message pipeline (~1.67 M misses/s) —
        # the ceiling sharding exists to escape.
        row = run_scaleout_point(
            1, lookups_per_host=400, offered_per_server_mlps=5.0
        )
        assert _mlookups_per_sec(row) < 2.0

    def test_placement_is_deterministic(self):
        def run():
            obs = Observability()
            with obs.activate():
                row = run_scaleout_point(4, lookups_per_host=200)
            # The pool-health counters: cluster.member[<name>].*.
            return row, obs.registry.snapshot()

        (a, a_metrics), (b, b_metrics) = run(), run()
        assert a["duration_ms"] == b["duration_ms"]
        assert a["lookups_completed"] == b["lookups_completed"]
        assert any(name.startswith("cluster.member[") for name in a_metrics)
        assert a_metrics == b_metrics


class TestCounterFailover:
    def test_killing_a_replica_loses_no_updates(self):
        result = run_failover_counters(packets=1500, kill_at_ns=600_000.0)
        assert result["detected"], "health monitor must notice the death"
        assert result["members_failed"] == 1
        assert result["lost_updates"] == 0
        assert result["all_counters_exact"]
        assert result["recovered_total"] == result["packets_sent"]

    def test_updates_after_the_death_keep_landing(self):
        result = run_failover_counters(packets=1500, kill_at_ns=300_000.0)
        # The kill lands ~1/4 through the run: most updates arrive after
        # the member is already gone, and still nothing is lost.
        assert result["lost_updates"] == 0
        assert result["all_counters_exact"]
