"""Smoke test of the benchmark itself: ``python -m pytest bench_e2e -q``.

Outside tier-1 ``testpaths`` on purpose: it runs every workload once at
1/20 scale (~15 s), which is a benchmark check, not a unit test.
"""

from __future__ import annotations

import ast
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402

#: Facade names the benchmark must not lean on: the legacy snapshot
#: classes and the kernel-selection machinery ROADMAP plans to delete.
FORBIDDEN = {"kernel_mode", "set_default_kernel", "default_kernel", "KERNELS",
             "BatchSimulator", "PacketPool"}


def test_benchmark_json_matches_the_catalogue():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert declared == metrics.benchmark_json(
        command=["python3", "bench_e2e/run.py"], paths=["bench_e2e"], run_seconds=6
    )
    names = [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    assert len(names) == len(set(names))
    assert len(declared["per_layer"]) <= 128


def test_imports_are_facade_only():
    sys.path.insert(0, str(ROOT / "src"))
    import repro.api

    for path in HERE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
                imported = []
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
                imported = [alias.name for alias in node.names]
            else:
                continue
            for module in modules:
                if module == "repro" or module.startswith("repro."):
                    assert module == "repro.api", f"{path.name} imports {module}"
                    for name in imported:
                        assert name in repro.api.__all__, f"{name} is not a facade export"
                        assert name not in FORBIDDEN and not name.endswith("Stats"), name


def test_every_source_file_has_a_layer():
    outside = {"__init__.py", "api.py", "cli.py", "testbed.py", "_deprecation.py"}
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        relative = path.relative_to(ROOT / "src" / "repro").as_posix()
        if metrics.layer_of(relative) != metrics.OTHER:
            continue
        assert (
            relative in outside
            or path.name == "__init__.py"
            or relative.startswith(("experiments/", "baselines/"))
        ), f"{relative} belongs to no layer: extend metrics.LAYER_PREFIXES"


def test_quick_run_passes_and_prints_every_metric_once(tmp_path):
    output = tmp_path / "quick.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--output", str(output)],
        stdout=subprocess.PIPE,
        text=True,
        timeout=170,
    )
    assert done.returncode == 0, done.stdout[-2000:]
    results = json.loads(output.read_text())
    assert [r["workload"] for r in results] == [name for name, _ in metrics.WORKLOADS]
    expected = [name for name, *_ in metrics.END_TO_END] + [m.name for m in metrics.PER_LAYER]
    sections = done.stdout.split("\n== ")[1:]
    assert len(sections) == len(results)
    for result, section in zip(results, sections):
        assert not result["problems"], result["problems"]
        assert result["failed"] == 0 and all(result["checks"].values())
        assert set(result["per_layer"]) == {m.name for m in metrics.PER_LAYER}
        shares = [result["per_layer"][f"{layer}.self_share"] for layer in metrics.LAYERS]
        assert abs(sum(shares) - 1.0) < 0.01
        printed = [line.split()[0] for line in section.splitlines() if line.startswith("   ")]
        for name in expected:
            assert printed.count(name) == 1, f"{result['workload']}: {name}"
