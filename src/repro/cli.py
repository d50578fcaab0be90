"""Command-line interface: run any paper experiment from the shell.

Installed as ``repro-experiments`` (see pyproject.toml).  Examples::

    repro-experiments fig3a
    repro-experiments lookup-scale --quick --record lookup.json
    repro-experiments verify lookup.json
    repro-experiments all --quick

Every run prints its experiment's record as a table, checks its bars and
exits 1 if one fails; ``verify`` prints and re-checks a written record
without running anything.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List

from .analysis.reporting import format_record, write_metrics_json
from .experiments import REGISTRY, load
from .obs import Observability
from .obs.trace import WireTrace


def build_parser() -> argparse.ArgumentParser:
    listing = "\n".join(f"  {name:<22} {help}" for name, (_, help) in REGISTRY.items())
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Regenerate the tables and figures of 'Generic External Memory "
            "for Switch Data Planes' (HotNets 2018)."
        ),
        epilog=f"experiments:\n{listing}\n  {'all':<22} every experiment above\n"
        f"  {'verify RECORD':<22} re-check a record written by --record",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=[*REGISTRY, "all", "verify"], metavar="EXPERIMENT")
    parser.add_argument("path", nargs="?", metavar="RECORD", help=argparse.SUPPRESS)
    parser.add_argument("--quick", action="store_true", help="reduced scales")
    parser.add_argument(
        "--record", metavar="PATH", help="write the results record to PATH as JSON"
    )
    parser.add_argument(
        "--metrics",
        metavar="PATH",
        help=(
            "collect every simulation's metric registry into one session "
            "registry and write it to PATH as repro-metrics/v1 JSON"
        ),
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        help=(
            "record the RDMA wire timeline (per-QP WRITE/READ/ATOMIC/ACK/"
            "NAK events with PSNs) and write JSONL to PATH"
        ),
    )
    return parser


def _table(name: str, record: Dict, first: bool) -> None:
    """Print *name*'s record as its table, after a blank line unless *first*."""
    print(("" if first else "\n") + format_record(record, REGISTRY[name][1]), flush=True)


def _report(name: str, checks: Dict[str, bool]) -> int:
    """Print *name*'s check verdicts to stderr; returns how many failed."""
    failed = [f"[check] {name}: FAILED {check}" for check, ok in checks.items() if not ok]
    passed = f"[check] {name}: {len(checks) - len(failed)}/{len(checks)} passed"
    print(*failed, passed, sep="\n", file=sys.stderr)
    return len(failed)


def _verify(path: str, error) -> int:
    try:
        with open(path) as handle:
            doc = json.load(handle)
        experiment, results = doc["experiment"], doc["results"]
    except (OSError, ValueError) as exc:
        error(f"verify: cannot read {path}: {exc}")
    except (KeyError, TypeError) as exc:
        error(f"verify: {path}: missing or malformed field {exc}")
    if not results or not isinstance(results, dict):
        error(f"verify: {path}: the record has no results to check")
    records = results if experiment == "all" else {str(experiment): results}
    failed = 0
    for i, (name, record) in enumerate(records.items()):
        if name not in REGISTRY:
            error(f"verify: {path}: unknown experiment {name!r}")
        try:
            checks = load(name).checks(record)
        except (KeyError, TypeError, IndexError, ValueError, AttributeError) as exc:
            error(f"verify: {path}: {name} record: missing or malformed field {exc}")
        _table(name, record, first=not i)
        failed += _report(name, checks)
    return 1 if failed else 0


def main(argv: List[str] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    verify = args.command == "verify"
    if verify != (args.path is not None) or verify and (
        args.quick or args.record or args.metrics or args.trace
    ):
        parser.error("verify takes one RECORD and no options; nothing else takes a RECORD")
    if verify:
        return _verify(args.path, parser.error)

    # Fail before the (possibly long) run, not after it.
    outputs = {}
    for flag in ("record", "metrics", "trace"):
        path = getattr(args, flag)
        if path:
            out = os.path.abspath(path)
            if os.path.isdir(out):
                parser.error(f"--{flag}: {path} is a directory, not a file")
            if not os.path.isdir(os.path.dirname(out)):
                parser.error(f"--{flag}: directory does not exist: {os.path.dirname(out)}")
            if out in outputs:
                parser.error(f"--{flag} and --{outputs[out]} both write {path}")
            outputs[out] = flag

    names = list(REGISTRY) if args.command == "all" else [args.command]
    records, failed = {}, 0
    # One session-wide observability handle: every Simulator the run
    # builds inside the block emits into the same registry (and trace).
    obs = Observability(trace=WireTrace() if args.trace else None)
    with obs.activate():
        for i, name in enumerate(names):
            experiment = load(name)
            records[name] = experiment.run(
                **(experiment.quick if args.quick else experiment.full)
            )
            _table(name, records[name], first=not i)
            failed += _report(name, experiment.checks(records[name]))

    if args.record:
        doc = {
            "experiment": args.command,
            "scale": "quick" if args.quick else "full",
            "results": records if args.command == "all" else records[args.command],
        }
        with open(args.record, "w") as handle:
            json.dump(doc, handle, indent=2)
            handle.write("\n")
        print(f"[record] {args.record}", file=sys.stderr)
    if args.metrics:
        write_metrics_json(args.metrics, obs.registry, label=args.command)
        print(f"[metrics] {len(obs.registry)} metrics -> {args.metrics}", file=sys.stderr)
    if args.trace:
        obs.trace.write_jsonl(args.trace)
        events = f"{len(obs.trace)} events ({obs.trace.dropped} dropped)"
        print(f"[trace] {events} -> {args.trace}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
