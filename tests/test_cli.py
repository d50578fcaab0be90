"""Tests for the repro-experiments command-line interface."""

import dataclasses
import inspect
import json
import re
from pathlib import Path

import pytest

from repro import cli
from repro.analysis.reporting import format_record
from repro.cli import build_parser, main
from repro.experiments import REGISTRY, load

ROOT = Path(__file__).resolve().parent.parent


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_subcommand_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["warp-drive"])

    @pytest.mark.parametrize(
        "argv",
        [[name] for name in REGISTRY]
        + [
            ["all", "--quick"],
            ["l4lb", "--quick", "--record", "r.json"],
            ["--metrics", "m.json", "--trace", "t.jsonl", "chaos"],
            ["verify", "r.json"],
        ],
    )
    def test_valid_invocations_parse(self, argv):
        assert build_parser().parse_args(argv).command in argv

    def test_ablation_choices_enforced(self):
        # Experiments take no options of their own: scale is --quick.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["ablations", "--which", "nonsense"])

    @pytest.mark.parametrize(
        "argv", [["verify"], ["fig3a", "r.json"], ["verify", "r.json", "--quick"]]
    )
    def test_record_argument_only_with_verify(self, argv):
        with pytest.raises(SystemExit):
            main(argv)


class TestRegistry:
    @pytest.mark.parametrize("name", list(REGISTRY))
    def test_every_name_loads_with_runnable_scales(self, name):
        experiment = load(name)
        assert experiment.name == name
        for scale in (experiment.quick, experiment.full):
            inspect.signature(experiment.run).bind(**scale)

    def test_ci_matrix_has_one_leg_per_experiment(self):
        ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
        legs = re.findall(r"- \{experiment: ([\w-]+), args: ", ci)
        assert legs == list(REGISTRY)

    def test_ci_legs_cmp_every_committed_record(self):
        """Each committed record but the micro-benchmark's is named by
        exactly one leg, and that leg runs the experiment the record holds."""
        ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
        legs = re.findall(
            r"- \{experiment: ([\w-]+), args: [^,}]*(?:, record: ([^,}]+))?\}", ci
        )
        assert len(legs) == ci.count("- {experiment: ")
        named = [(record, experiment) for experiment, record in legs if record]
        committed = sorted(
            path.name
            for path in (ROOT / "benchmarks").glob("BENCH_*.json")
            if path.name != "BENCH_micro.json"
        )
        assert sorted(record for record, _ in named) == committed
        for record, experiment in named:
            doc = json.loads((ROOT / "benchmarks" / record).read_text())
            assert doc["experiment"] == experiment, record


def _tiny(monkeypatch, name, **quick):
    """Make ``name --quick`` run at *quick*, below its registered scale."""
    experiment = dataclasses.replace(load(name), quick=quick)
    monkeypatch.setattr(cli, "load", lambda _: experiment)


class TestExecution:
    def test_overhead_prints_table(self, capsys):
        assert main(["overhead"]) == 0
        out = capsys.readouterr().out
        assert "RDMA WRITE" in out
        assert "56" in out

    def test_fig3a_small(self, capsys):
        assert main(["fig3a", "--quick"]) == 0
        out = capsys.readouterr().out
        assert re.search(r"^packet_size +baseline_us +lookup_us +delta_us$", out, re.M)
        assert re.search(r"^64 +\d", out, re.M)

    def test_incast_tiny(self, capsys, monkeypatch):
        _tiny(monkeypatch, "incast", scale=0.02)
        assert main(["incast", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "droptail" in out
        assert "remote_buffer" in out
        assert "pfc" in out

    def test_ablations_single(self):
        ablations = load("ablations")
        text = format_record(ablations.run(batching={"packets": 1000}))
        # One row per batch size, with its Fetch-and-Add operation count.
        assert text.startswith("batching\nbatch_size  packets  operations")
        assert re.search(r"^32 +1000 +\d+", text, re.M)

    def test_l4lb_tiny_passes_check(self, capsys, monkeypatch):
        _tiny(
            monkeypatch, "l4lb",
            connections=1500, packets=3000, new_connections=150, new_packets=400,
            backends=3, corrupt_rate=0.003,
        )
        assert main(["l4lb", "--quick"]) == 0
        captured = capsys.readouterr()
        assert re.search(r"^  expected_total +(\d+)\n  recovered_total +\1$", captured.out, re.M)
        assert re.search(r"^  lost_updates +0$", captured.out, re.M)
        assert re.search(r"^  affinity_breaks +0$", captured.out, re.M)
        assert "[check] l4lb: 17/17 passed" in captured.err

    def test_record_round_trips_through_verify(self, tmp_path, capsys):
        path = tmp_path / "fig3a.json"
        assert main(["fig3a", "--quick", "--record", str(path)]) == 0
        table = capsys.readouterr().out
        doc = json.loads(path.read_text())
        assert (doc["experiment"], doc["scale"]) == ("fig3a", "quick")
        assert doc["results"]["64"]["delta_us"] > 0
        assert main(["verify", str(path)]) == 0
        assert capsys.readouterr().out == table

    def test_record_directory_checked_before_the_run(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "load", lambda name: pytest.fail("ran anyway"))
        with pytest.raises(SystemExit):
            main(["tiering", "--quick", "--record", str(tmp_path / "no" / "x.json")])

    def test_directory_as_output_rejected_before_the_run(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(cli, "load", lambda name: pytest.fail("ran anyway"))
        for flag in ("--record", "--metrics", "--trace"):
            with pytest.raises(SystemExit) as exc:
                main(["overhead", flag, str(tmp_path)])
            assert exc.value.code == 2
            assert "is a directory" in capsys.readouterr().err

    def test_one_path_for_two_outputs_rejected_before_the_run(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(cli, "load", lambda name: pytest.fail("ran anyway"))
        path = str(tmp_path / "x.json")
        with pytest.raises(SystemExit) as exc:
            main(["overhead", "--record", path, "--metrics", path])
        assert exc.value.code == 2
        assert "both write" in capsys.readouterr().err

    def test_failed_check_exits_nonzero(self, monkeypatch, capsys):
        failing = dataclasses.replace(load("overhead"), checks=lambda r: {"bar": False})
        monkeypatch.setattr(cli, "load", lambda name: failing)
        assert main(["overhead"]) == 1
        assert "FAILED bar" in capsys.readouterr().err


class TestVerify:
    def _verify(self, tmp_path, capsys, doc):
        path = tmp_path / "record.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        with pytest.raises(SystemExit) as exc:
            main(["verify", str(path)])
        assert exc.value.code != 0
        return capsys.readouterr().err

    def test_unknown_experiment_rejected(self, tmp_path, capsys):
        doc = {"experiment": "warp-drive", "results": {"x": 1}}
        assert "unknown experiment 'warp-drive'" in self._verify(tmp_path, capsys, doc)

    def test_missing_field_rejected(self, tmp_path, capsys):
        doc = json.loads((ROOT / "benchmarks" / "BENCH_l4lb.json").read_text())
        del doc["results"]["l4lb_soak"]["lost_updates"]
        err = self._verify(tmp_path, capsys, doc)
        assert "missing or malformed field 'lost_updates'" in err
        err = self._verify(tmp_path, capsys, {"results": {}})
        assert "missing or malformed field 'experiment'" in err

    def test_record_with_no_checks_rejected(self, tmp_path, capsys):
        err = self._verify(tmp_path, capsys, {"experiment": "chaos", "results": {}})
        assert "no results to check" in err
        err = self._verify(tmp_path, capsys, {"experiment": "all", "results": {}})
        assert "no results to check" in err

    def test_unreadable_record_rejected(self, tmp_path, capsys):
        assert "cannot read" in self._verify(tmp_path, capsys, "{not json")
