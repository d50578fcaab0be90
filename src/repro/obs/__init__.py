"""Unified observability: one metric registry + opt-in wire tracing.

Every component emits into a shared :class:`MetricRegistry` under
hierarchical names (read one back as ``component.metrics["leaf"]``), and
an optional :class:`WireTrace` records the per-QP wire timeline.  The
pair travels as one :class:`Observability` handle.

**Where the handle lives.**  Each :class:`~repro.sim.simulator.Simulator`
owns one (``sim.obs``), created at construction, so everything sharing a
simulation shares a registry and two simulations never alias metrics —
test isolation for free.  A CLI run that spans *many* simulations (every
experiment harness builds several testbeds) installs a session-wide
handle instead::

    with Observability(trace=WireTrace()).activate() as obs:
        run_fig3a()                 # every Simulator inside adopts obs
    obs.registry.snapshot()         # the whole run's metrics
    obs.trace.write_jsonl(path)     # the whole run's wire timeline

``Simulator`` adopts the active handle when one is installed and builds
a private one otherwise (:meth:`Observability.adopt`).

The metric types live in :mod:`.registry` and the trace in :mod:`.trace`;
import them from there (or from :mod:`repro.api`).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator, Optional

from .registry import MetricRegistry

if TYPE_CHECKING:
    from .trace import WireTrace


class Observability:
    """A metric registry plus an optional wire trace, as one handle."""

    #: The session-installed handle new Simulators adopt (None = private).
    _active: Optional["Observability"] = None

    def __init__(
        self,
        registry: Optional[MetricRegistry] = None,
        trace: Optional[WireTrace] = None,
    ) -> None:
        self.registry = registry if registry is not None else MetricRegistry()
        self.trace = trace

    # -- session installation ------------------------------------------------

    @classmethod
    def active(cls) -> Optional["Observability"]:
        return cls._active

    @classmethod
    def adopt(cls) -> "Observability":
        """The active session handle, or a fresh private one."""
        return cls._active if cls._active is not None else cls()

    @contextmanager
    def activate(self) -> Iterator["Observability"]:
        """Install this handle for every Simulator built in the block."""
        previous = Observability._active
        Observability._active = self
        try:
            yield self
        finally:
            Observability._active = previous
