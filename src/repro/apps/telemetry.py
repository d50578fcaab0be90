"""Network telemetry over the state store (§2.3 / Fig. 1c).

Two pieces:

* :class:`SketchTelemetryProgram` — a data-plane program that forwards
  traffic while feeding every packet into a sketch (local-SRAM or remote
  backend), the paper's "running multiple sketching algorithms" scenario.
* :class:`HeavyHitterDetector` — the control-plane estimation pass (§4:
  "network operators can run any estimation algorithms, e.g. heavy-hitter
  detection, on the remote counter").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..net.packet import Packet
from ..switches.hashing import FiveTuple
from ..switches.pipeline import PipelineContext
from .programs import StaticL2Program
from .sketch import CountMinSketch


class SketchTelemetryProgram(StaticL2Program):
    """Static L2 forwarding + per-packet sketch updates.

    A sketch with a remote backend gets its state store's atomic
    acknowledgements through the switch's response table.
    """

    def __init__(self, mac_to_port=None) -> None:
        super().__init__(mac_to_port)
        self.sketch: Optional[CountMinSketch] = None

    def use_sketch(self, sketch: CountMinSketch) -> None:
        self.sketch = sketch

    def on_ingress(self, ctx: PipelineContext, packet: Packet) -> None:
        self.forward_by_mac(ctx, packet)
        if self.sketch is not None and not ctx.dropped:
            self.sketch.add(FiveTuple.of(packet).pack())


@dataclass
class HeavyHitterReport:
    """Detection quality against ground truth."""

    threshold: int
    detected: Set[int]
    truth: Set[int]

    @property
    def true_positives(self) -> int:
        return len(self.detected & self.truth)

    @property
    def precision(self) -> float:
        return self.true_positives / len(self.detected) if self.detected else 1.0

    @property
    def recall(self) -> float:
        return self.true_positives / len(self.truth) if self.truth else 1.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if (p + r) else 0.0


class HeavyHitterDetector:
    """Control-plane heavy-hitter detection over a sketch."""

    def __init__(self, sketch: CountMinSketch) -> None:
        self.sketch = sketch

    def detect(
        self,
        candidate_flows: Dict[int, bytes],
        threshold: int,
        truth_counts: Dict[int, int],
    ) -> HeavyHitterReport:
        """Classify each candidate flow by its sketch estimate.

        ``candidate_flows`` maps a flow id to its packed key;
        ``truth_counts`` maps flow ids to true packet counts.
        """
        detected = {
            flow_id
            for flow_id, key in candidate_flows.items()
            if self.sketch.estimate(key) >= threshold
        }
        truth = {
            flow_id
            for flow_id, count in truth_counts.items()
            if count >= threshold
        }
        return HeavyHitterReport(threshold=threshold, detected=detected, truth=truth)


def mean_relative_error(
    estimates: Iterable[Tuple[int, int]]
) -> float:
    """Mean relative error over (estimate, truth) pairs with truth > 0."""
    errors: List[float] = []
    for estimate, truth in estimates:
        if truth > 0:
            errors.append(abs(estimate - truth) / truth)
    if not errors:
        raise ValueError("no flows with positive truth count")
    return sum(errors) / len(errors)
