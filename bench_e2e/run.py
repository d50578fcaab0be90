"""bench_e2e: six whole-system workloads, host-time end to end, per layer.

    python bench_e2e/run.py [--workload NAME] [--seed 42] [--reps 3] [--quick]
    python bench_e2e/run.py --workload NAME --seed N --seconds 6 --trace 0|1

Without ``--trace`` every workload (or the one named) runs ``--reps``
untraced repetitions plus one traced run, every metric is printed by name
with its unit, the outputs are checked, and the exit code is non-zero on
a failed check.  With ``--trace`` (the form ``BENCHMARK.json`` names) one
workload runs once and the last stdout line is one JSON object holding
the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).

Every repetition is a fresh child process (``child.py``), one at a time,
with ``PYTHONHASHSEED=0``.  ``--seconds`` sizes the fixed work: the
committed geometry is ``--seconds 6`` (a run phase of 6-8.5 s per workload
at the seed commit on the reference container) and every op count scales
with it, so the work depends on ``(seconds, seed)`` only, never on how
fast the host is.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, LAYERS, PER_LAYER, SIMULATED, WORKLOADS  # noqa: E402

#: ``--seconds`` at which ``scale`` is 1.0: the committed geometry, and
#: ``run_seconds`` in ``BENCHMARK.json``.
NOMINAL_SECONDS = 6
#: Set-up samples per ``--trace 0`` invocation (one full run + set-up-only
#: children); ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: The traced run does a quarter of the ops (cProfile costs ~3x per op).
TRACED_FRACTION = 0.25
CHILD_TIMEOUT_S = 150
WORKLOAD_NAMES = [name for name, _ in WORKLOADS]


class ChildCrashed(RuntimeError):
    """A child exited non-zero or printed no result."""


def spawn(workload: str, scale: float, seed: int, *flags: str) -> dict:
    """Run one child to completion and return the JSON it printed."""
    command = [
        sys.executable,
        "-W",
        "error::DeprecationWarning",
        str(HERE / "child.py"),
        "--workload",
        workload,
        "--scale",
        repr(scale),
        "--seed",
        str(seed),
        "--t0",
        repr(time.monotonic()),
        *flags,
    ]
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(
        command, env=env, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise ChildCrashed(f"{workload}: child exited {done.returncode}")
    return json.loads(lines[-1])


def quartiles(values):
    """(median, q1, q3); the quartiles are None below two samples."""
    if len(values) < 2:
        return values[0], None, None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def measure(workload: str, seed: int, seconds: float, reps: int, setup_samples: int, traced: bool) -> dict:
    """All child runs of one workload, reduced to named metrics.

    End-to-end metrics come from the untraced repetitions only; the
    traced run gives ``L.self_share`` / ``L.calls_per_op`` and, against
    the untraced median, ``trace.overhead_ratio``.
    """
    scale = seconds / NOMINAL_SECONDS
    runs = [spawn(workload, scale, seed) for _ in range(reps)]
    setups = runs + [
        spawn(workload, scale, seed, "--setup-only") for _ in range(setup_samples - reps)
    ]
    trace = spawn(workload, scale * TRACED_FRACTION, seed, "--profile") if traced else None

    problems = []
    first = runs[0]
    for run in runs:
        for name, ok in run["checks"].items():
            if not ok:
                problems.append(f"check failed: {name}")
        if run["failed"]:
            problems.append(f"{run['failed']} of {run['ops']} operations failed")
        if run["counted"]["core.lookup.remote_lookups"] and run["counted"]["core.lookup.reads_per_miss"] != 1.0:
            problems.append(f"reads_per_miss = {run['counted']['core.lookup.reads_per_miss']!r}, not 1.0")
        if run["sim_digest"] != first["sim_digest"]:
            problems.append("non-determinism: sim_digest differs between repetitions")
        for name, value in run["counted"].items():
            if value != first["counted"][name]:
                problems.append(f"non-determinism: {name} differs between repetitions")
    if trace is not None:
        problems += [f"traced run: check failed: {n}" for n, ok in trace["checks"].items() if not ok]
        if trace["failed"]:
            problems.append(f"traced run: {trace['failed']} operations failed")

    # Host seconds are counted at reference speed: see child.reference_spin.
    raw_rates = [run["ops"] / run["run_wall_s"] for run in runs]
    end_to_end = {
        "ops_per_s": [raw * run["run_slowdown"] for raw, run in zip(raw_rates, runs)],
        "setup_s": [child["raw_setup_s"] / child["setup_slowdown"] for child in setups],
        "peak_rss_mb": [run["peak_rss_mb"] for run in runs],
    }

    def median_of(key):
        return statistics.median(key(run) for run in runs)

    per_layer = dict(first["counted"])
    per_layer["sim.host_us_per_event"] = median_of(
        lambda run: run["run_wall_s"] / run["counted"]["sim.events"] * 1e6
    )
    per_layer["setup.import_s"] = median_of(lambda run: run["import_s"])
    per_layer["setup.build_s"] = median_of(lambda run: run["phases"]["build"])
    per_layer["setup.install_s"] = median_of(lambda run: run["phases"]["install"])
    per_layer["host.verify_s"] = median_of(lambda run: run["phases"]["verify"])
    per_layer["host.ref_loop_s"] = median_of(lambda run: run["ref_loop_s"])
    cpu_shares = [run["run_cpu_s"] / run["run_wall_s"] for run in runs]
    per_layer["host.cpu_share"] = statistics.median(cpu_shares)
    per_layer["host.raw_ops_per_s"] = statistics.median(raw_rates)
    per_layer["host.raw_setup_s"] = statistics.median(child["raw_setup_s"] for child in setups)
    per_layer["host.slowdown"] = median_of(lambda run: run["run_slowdown"])
    if trace is not None:
        total_self = sum(layer["self_s"] for layer in trace["layers"].values())
        for layer in LAYERS:
            slot = trace["layers"].get(layer, {"self_s": 0.0, "calls": 0})
            per_layer[f"{layer}.self_share"] = slot["self_s"] / total_self
            per_layer[f"{layer}.calls_per_op"] = slot["calls"] / trace["ops"]
        untraced_s_per_op = median_of(lambda run: run["run_wall_s"] / run["ops"])
        per_layer["trace.overhead_ratio"] = (
            trace["run_wall_s"] / trace["ops"] / untraced_s_per_op
        )
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "ops": first["ops"],
        "failed": max(run["failed"] for run in runs),
        "traced_ops": trace["ops"] if trace else 0,
        "traced_failed": trace["failed"] if trace else 0,
        "run_wall_s": [run["run_wall_s"] for run in runs],
        "cpu_shares": cpu_shares,
        "sim_digest": first["sim_digest"],
        "traced_sim_digest": trace["sim_digest"] if trace else None,
        "checks": first["checks"],
        "notes": first["notes"],
        "problems": problems,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }


# -- reporting -----------------------------------------------------------------------


def fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def report(result: dict, recorded: dict) -> None:
    """Every metric by name with its unit, checks and notices."""
    name = result["workload"]
    runs = len(result["run_wall_s"])
    print(f"\n== {name}  seed={result['seed']} seconds={result['seconds']:g} "
          f"ops={result['ops']} reps={runs}")
    print(f"   run phase (host s): {', '.join(f'{s:.2f}' for s in result['run_wall_s'])}")
    print(f"   notes: {json.dumps(result['notes'])}")
    print("-- end to end (host time, untraced)")
    for metric, unit, better, bound in END_TO_END:
        values = result["end_to_end"][metric]
        median, q1, q3 = quartiles(values)
        spread = f"q1={q1:.6g} q3={q3:.6g}" if q1 is not None else "quartiles n/a"
        print(f"   {metric:<14}{median:>14.6g} {unit:<5} {spread}  n={len(values)}  "
              f"({better} is better, bound {bound:.2f})")
    print(f"   ops_attempted {result['ops']}   ops_failed {result['failed']}")
    print("-- per layer")
    for metric in PER_LAYER:
        if metric.name not in result["per_layer"]:
            continue  # traced-only metrics of an untraced invocation
        label = "  time_base=simulated" if metric.name in SIMULATED else ""
        print(f"   {metric.name:<40}{fmt(result['per_layer'][metric.name]):>16} {metric.unit}{label}")
    print("-- checks")
    for check, ok in result["checks"].items():
        print(f"   {'PASS' if ok else 'FAIL'}  {check}")
    print(f"   sim_digest {result['sim_digest']}")
    for share in result["cpu_shares"]:
        if share < 0.9:
            print(f"   NOTICE noisy host: a repetition had host.cpu_share {share:.2f} < 0.9")
    known = recorded.get(name, {})
    if (known.get("seed"), known.get("seconds")) == (result["seed"], result["seconds"]):
        if known["sim_digest"] != result["sim_digest"]:
            print("   NOTICE sim_digest differs from the one recorded in BASELINE.json: "
                  "simulated statistics changed since the baseline")
    for problem in result["problems"]:
        print(f"   PROBLEM {problem}")


def contract_line(result: dict, traced: bool) -> str:
    """The one-line JSON result ``BENCHMARK.json``'s driver reads."""
    if traced:
        units = {metric.name: metric.unit for metric in PER_LAYER}
        values = result["per_layer"]
    else:
        units = {name: unit for name, unit, _, _ in END_TO_END}
        values = {name: quartiles(samples)[0] for name, samples in result["end_to_end"].items()}
    return json.dumps(
        {
            "correct": not result["problems"],
            "attempted": result["ops"] + result["traced_ops"],
            "failed": result["failed"] + result["traced_failed"],
            "metrics": {
                name: {"value": values[name], "unit": unit} for name, unit in units.items()
            },
        }
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, help="default: all six")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=NOMINAL_SECONDS,
                        help="sizes the fixed work; 6 is the committed geometry")
    parser.add_argument("--reps", type=int, help="untraced repetitions (default 3; 1 with --trace/--quick)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="one workload, one JSON line: 0 = end-to-end, 1 = per-layer")
    parser.add_argument("--quick", action="store_true", help="1/20 scale, one repetition")
    parser.add_argument("--output", type=Path, help="also write every result as JSON here")
    args = parser.parse_args()
    if args.trace is not None and args.workload is None:
        parser.error("--trace needs --workload")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    seconds = NOMINAL_SECONDS / 20 if args.quick else args.seconds
    single = args.trace is not None or args.quick
    reps = args.reps or (1 if single else 3)
    setup_samples = SETUP_SAMPLES if args.trace == 0 else 0
    traced = args.trace != 0

    # The seed-commit record (``--reps 5 --output``) later runs compare against.
    recorded = {}
    baseline = HERE / "BASELINE.json"
    if baseline.exists():
        recorded = {r["workload"]: r for r in json.loads(baseline.read_text())}

    results = []
    for workload in [args.workload] if args.workload else WORKLOAD_NAMES:
        try:
            result = measure(workload, args.seed, seconds, reps, setup_samples, traced)
        except (ChildCrashed, subprocess.TimeoutExpired) as error:
            print(f"bench_e2e: {error}", file=sys.stderr)
            return 2
        report(result, recorded)
        results.append(result)
    if args.output:
        args.output.write_text(json.dumps(results, indent=1) + "\n")
    failed = [r["workload"] for r in results if r["problems"]]
    print(f"\nbench_e2e: {'FAILED ' + ', '.join(failed) if failed else 'all checks passed'}")
    if args.trace is not None:
        print(contract_line(results[0], traced=bool(args.trace)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
