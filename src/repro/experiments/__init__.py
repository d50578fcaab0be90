"""Experiment harnesses regenerating the paper's tables and figures.

Every module here defines one :class:`Experiment`, ``EXPERIMENT``, next to
its ``run_*`` harnesses, which build their rows as plain dicts.  An
experiment's table is its record: :func:`repro.analysis.reporting.format_record`
prints any record, so no module renders its own.  :data:`REGISTRY` names the experiments for
``repro-experiments``; :func:`load` imports only the module a command
needs.  The library surface itself (primitives, testbed, observability)
lives in :mod:`repro.api`.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Tuple


@dataclass(frozen=True)
class Experiment:
    """One experiment: two scales, a run, its checks.

    ``run(**quick)`` or ``run(**full)`` returns the results record: the
    JSON-ready ``results`` dict, which is also the table the CLI prints.
    ``checks`` reads it and maps each named bar to whether the record
    holds it.  The checks read only the record, so a written record can be
    re-checked, and re-printed, without re-running anything.
    """

    name: str
    run: Callable[..., Dict[str, Any]]
    checks: Callable[[Dict[str, Any]], Dict[str, bool]]
    quick: Mapping[str, Any]
    full: Mapping[str, Any]

    def failures(self, record: Dict[str, Any]) -> List[str]:
        """Names of the checks *record* fails."""
        return [name for name, ok in self.checks(record).items() if not ok]


#: Command name -> (module, one-line help), in the order ``all`` runs them.
REGISTRY: Dict[str, Tuple[str, str]] = {
    "overhead": ("overhead", "§4 RoCE header overhead table"),
    "fig3a": ("fig3a", "Fig. 3a: latency overhead of the lookup primitive"),
    "fig3b": ("fig3b", "Fig. 3b: bandwidth overhead of the state store"),
    "packet-buffer": ("packet_buffer_rate", "§5 store/forward rate sweep"),
    "incast": ("incast", "§2.1 incast: drop-tail vs remote buffer vs PFC"),
    "baremetal": ("baremetal", "§2.2 bare-metal VIP→PIP translation"),
    "telemetry": ("telemetry", "§2.3 SRAM vs remote-memory sketch"),
    "kv-cache": ("kv_cache", "§6 in-network KV cache study"),
    "l4lb": ("l4lb", "L4LB soak: kill, drain and link corruption at once"),
    "lookup-scale": ("lookup_scale", "cuckoo lookup: cache policies, miss scale-out"),
    "sequencer": ("sequencer", "§6 in-network sequencer throughput"),
    "persistent-congestion": (
        "persistent_congestion", "§2.1 persistent overload: buffer vs buffer+ECN"
    ),
    "scaleout": ("scaleout", "sharded lookups over N servers; replica failover"),
    "chaos": ("chaos", "reliable counters over a lossy link; self-healing"),
    "linkguard": ("linkguard", "goodput over a corrupting link: guard vs breaker"),
    "tiering": ("tiering", "tiered-memory placement policies over Zipf FAA"),
    "ablations": ("ablations", "§7 design-choice ablations"),
}


def load(name: str) -> Experiment:
    """The registered experiment *name*, importing only its module."""
    return importlib.import_module(f"{__name__}.{REGISTRY[name][0]}").EXPERIMENT
