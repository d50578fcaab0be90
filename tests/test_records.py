"""The committed ``benchmarks/BENCH_*.json`` records hold their bars.

No simulation runs here: ``repro-experiments verify`` re-derives every
check from a record alone, and each check is shown to read the field it
names by pushing that field past its bound in a copy of the record.  The
printed table is a function of the record alone, and shows every field a
check reads.
"""

import copy
import json
import re
from pathlib import Path

import pytest

from repro.analysis.reporting import format_record
from repro.cli import main
from repro.experiments import load

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"

#: record file -> {check: (entry, field, value past the check's bound)}.
MUTATIONS = {
    "BENCH_chaos.json": {
        "zero lost updates at every loss rate": ("loss[0.05]", "lost_updates", 1),
        "every counter exact at every loss rate": ("loss[0.05]", "counters_wrong", 1),
        "1% loss actually drops frames": ("loss[0.01]", "link_drops", 0),
        "goodput at 1% loss within 10% of lossless": (
            "loss[0.01]", "goodput_updates_per_ms", 0.0
        ),
        "recovery: no lost update": ("recovery", "lost_updates", 1),
        "recovery: every counter exact": ("recovery", "counters_wrong", 1),
        "recovery: no buffered packet lost": ("recovery", "lost_buffered", 1),
        "recovery: buffer drains in order": ("recovery", "out_of_order", 1),
        "recovery: buffered packets drained": ("recovery", "delivered_packets", 0),
        "recovery: both breakers open": ("recovery", "buffer_breaker_opens", 0),
        "recovery: both breakers re-close": ("recovery", "store_breaker_closes", 0),
        "recovery: the blackout outlives the first probe": (
            "recovery", "store_probe_failures", 0
        ),
    },
    "BENCH_cluster.json": {
        "lossless at every pool size": ("scaleout_2_servers", "lookups_lost", 1),
        "every lookup completes": ("scaleout_2_servers", "lookups_completed", 0),
        ">= 3x miss throughput at 4 servers": (
            "scaleout_4_servers", "speedup_vs_1_server", 2.9
        ),
        "the killed replica is declared dead": (
            "failover_replicated_counters", "detected", False
        ),
        "exactly one member failed": ("failover_replicated_counters", "members_failed", 2),
        "no counter update lost": ("failover_replicated_counters", "lost_updates", 1),
        "every counter exact": (
            "failover_replicated_counters", "all_counters_exact", False
        ),
    },
    "BENCH_l4lb.json": {
        check: ("l4lb_soak", field, value)
        for check, field, value in [
            ("no lost counter update", "lost_updates", 1),
            ("every counter exact", "all_counters_exact", False),
            ("no affinity break", "affinity_breaks", 1),
            ("no migration off a healthy backend", "unsanctioned_migrations", 1),
            ("no cached connection on a superseded backend", "stale_cached", 1),
            ("the killed backend is declared dead", "kill_detected", False),
            ("the victim's breaker trips", "breaker_opens", 0),
            ("self-healing tries a reconnect", "reconnect_attempts", 0),
            ("the kill escalates to one failed member", "members_failed", 2),
            ("the drain completes", "drains_completed", 0),
            ("the drain quiesces, never forced", "drains_forced", 1),
            ("the corruption fires and is masked", "masked_losses", 0),
            ("no lookup lost", "lookups_lost", 1),
            ("no loss on healthy backend links", "other_wire_loss", 1),
            ("new connections land on active backends", "new_on_inactive", 1),
            ("traffic delivered", "delivered_total", 0),
            ("connections migrated", "connections_migrated", 0),
        ]
    },
    "BENCH_linkguard.json": {
        "lossless baselines lose nothing": ("lookup[lossless]", "lost", 1),
        "guard-on loses nothing, in order": ("lookup[guard-on]", "out_of_order", 1),
        "guard-on within 5% of lossless goodput": (
            "lookup[guard-on]", "goodput_vs_lossless", 0.94
        ),
        "guard-on masks the corruption": ("pktbuf[guard-on]", "masked_losses", 0),
        "guard-on hides every loss from the transport": (
            "lookup[guard-on]", "transport_naks", 1
        ),
        "pktbuf loses nothing, in order, in every variant": (
            "pktbuf[guard-off]", "lost", 1
        ),
        "pktbuf guard-off falls back on transport recovery": (
            "pktbuf[guard-off]", "transport_naks", 0
        ),
        "lookup guard-off loses bounced packets": ("lookup[guard-off]", "lost", 0),
        "no breaker opens on scattered corruption": (
            "lookup[breaker-only]", "breaker_opens", 1
        ),
    },
    "BENCH_lookup.json": {
        "one READ per miss in every run": ("policy_lru_1024", "one_read", False),
        "zero bounce-retry READs": ("scaleout_2_servers", "bounce_retries", 1),
        "LRU and LFU beat FIFO at every cache size": (
            "policy_lfu_4096", "hit_rate", 0.0
        ),
        "lossless at every pool size": ("scaleout_4_servers", "lookups_lost", 1),
        ">= 3x sustained misses at 4 servers": (
            "scaleout_4_servers", "speedup_vs_1_server", 2.9
        ),
    },
    "BENCH_tiering.json": {
        "zero lost updates under every policy": ("tiering_static", "lost_updates", 1),
        "fast occupancy never exceeds its budget": (
            "tiering_watermark", "fast_occupancy_peak", 1 << 30
        ),
        "all-DRAM never hits the fast tier": ("tiering_dram", "fast_hit_fraction", 0.01),
        "frequency >= 1.5x faster than all-DRAM": (
            "tiering_frequency", "speedup_vs_dram", 1.49
        ),
        "a blackout mid-promotion loses nothing": (
            "tiering_chaos_blackout", "updates_unreplicated", 1
        ),
        "promotions were underway at the blackout": (
            "tiering_chaos_blackout", "promotions", 0
        ),
    },
}


def _doc(name):
    return json.loads((BENCHMARKS / name).read_text())


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_committed_record_verifies(name, capsys):
    assert main(["verify", str(BENCHMARKS / name)]) == 0
    assert "FAILED" not in capsys.readouterr().err


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_each_check_reads_its_field(name):
    doc = _doc(name)
    experiment = load(doc["experiment"])
    assert doc["scale"] == "full"
    assert set(experiment.checks(doc["results"])) == set(MUTATIONS[name])
    for check, (entry, field, value) in MUTATIONS[name].items():
        results = copy.deepcopy(doc["results"])
        assert field in results[entry], (check, entry, field)
        results[entry][field] = value
        assert experiment.failures(results) == [check]


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_table_depends_only_on_the_record(name):
    results = _doc(name)["results"]
    text = format_record(results)
    assert text == format_record(json.loads(json.dumps(results)))
    for check, (entry, field, _) in MUTATIONS[name].items():
        for word in (entry, field):
            assert re.search(rf"(^|\s){re.escape(word)}(\s|$)", text, re.M), (check, word)
