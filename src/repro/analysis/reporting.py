"""Plain-text tables for experiment records (the "rows the paper reports"),
plus text/JSON renderers for the metric registry (``--metrics``)."""

from __future__ import annotations

import json
from typing import Any, Dict, List, Mapping, Optional, Sequence

from ..obs.registry import Histogram, MetricRegistry

#: Schema tag stamped on every metrics JSON dump.
METRICS_SCHEMA = "repro-metrics/v1"


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[Any]], title: str = ""
) -> str:
    """Render an aligned ASCII table."""
    cells = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip())
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


def _cell(value: Any) -> str:
    """A record value as text: the one number format every record shares."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.6g}"
    if isinstance(value, list):
        return "[" + ", ".join(map(_cell, value)) + "]"
    return str(value)


def _rows_table(rows: Sequence[Mapping[str, Any]], names: Sequence[str] = ()) -> str:
    """One table over *rows*: a column per field any row has, ``-`` where
    a row lacks it, led by a column of row *names* unless the first
    column already holds them."""
    columns = list(dict.fromkeys(field for row in rows for field in row))
    cells = [[_cell(row.get(field)) for field in columns] for row in rows]
    if any(name != str(next(iter(row.values()), None)) for name, row in zip(names, rows)):
        return format_table(["", *columns], [[n, *c] for n, c in zip(names, cells)])
    return format_table(columns, cells)


def format_record(record: Mapping[str, Any], title: str = "") -> str:
    """Render an experiment's results record as aligned text.

    Consecutive entries whose field sets nest, one inside the other,
    share a table; an entry alone prints as ``field  value`` lines under
    its name; a list of rows prints as a table of its own under its name.
    The record goes through JSON first, so a record and the copy
    ``--record`` wrote of it render byte for byte alike.
    """
    blocks = [title] if title else []
    group: Dict[str, Dict[str, Any]] = {}

    def close_group() -> None:
        if len(group) == 1:
            (name, fields), = group.items()
            width = max(map(len, fields), default=0)
            blocks.append("\n".join(
                [name] + [f"  {k.ljust(width)}  {_cell(v)}" for k, v in fields.items()]
            ))
        elif group:
            blocks.append(_rows_table(list(group.values()), list(group)))
        group.clear()

    for name, entry in json.loads(json.dumps(record)).items():
        if isinstance(entry, list) and entry and all(isinstance(r, dict) for r in entry):
            close_group()
            blocks.append(f"{name}\n{_rows_table(entry)}")
            continue
        fields = entry if isinstance(entry, dict) else {"value": entry}
        seen = {field for row in group.values() for field in row}
        if not (fields.keys() <= seen or fields.keys() >= seen):
            close_group()
        group[name] = fields
    close_group()
    return "\n\n".join(blocks)


def _metric_cell(metric: Any) -> str:
    """One table cell per metric; histograms compress to their summary."""
    if isinstance(metric, Histogram):
        if not metric.count:
            return "n=0"
        return (
            f"n={metric.count} mean={metric.mean:.1f} "
            f"min={metric.min:.0f} max={metric.max:.0f} "
            f"p99~{metric.percentile(0.99):.0f}"
        )
    value = metric.value
    if isinstance(value, float):
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)


def format_metrics(
    registry: MetricRegistry, prefix: str = "", title: str = "Metrics"
) -> str:
    """Render a registry (optionally prefix-filtered) as an aligned table."""
    rows = []
    for name in registry.names():
        if prefix and name != prefix and not name.startswith(prefix + "."):
            continue
        metric = registry.get(name)
        rows.append([name, metric.kind, _metric_cell(metric)])
    if not rows:
        return f"{title}\n(no metrics under prefix {prefix!r})"
    return format_table(["metric", "kind", "value"], rows, title=title)


def metrics_to_dict(
    registry: MetricRegistry,
    prefix: str = "",
    label: Optional[str] = None,
) -> Dict[str, Any]:
    """The ``repro-metrics/v1`` JSON document for *registry*.

    Deterministic for fixed-seed runs: metrics sort by name and nothing
    samples wall-clock time, so two identical runs produce byte-identical
    dumps.
    """
    doc: Dict[str, Any] = {
        "schema": METRICS_SCHEMA,
        "metrics": registry.to_dict(prefix),
    }
    if label is not None:
        doc["label"] = label
    return doc


def write_metrics_json(
    path: str,
    registry: MetricRegistry,
    prefix: str = "",
    label: Optional[str] = None,
) -> None:
    """Dump *registry* to *path* as a ``repro-metrics/v1`` document."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(metrics_to_dict(registry, prefix, label), fh, indent=2,
                  sort_keys=True)
        fh.write("\n")

