"""Opt-in wire tracing: a per-QP timeline of RDMA verbs on the wire.

Queue depths and NAK/resync storms are invisible in aggregate counters;
diagnosing them needs the *sequence* — which WRITE left at t, which NAK
named which PSN, how long a READ response took.  :class:`WireTrace`
records exactly that: every request a
:class:`~repro.core.rocegen.RoceRequestGenerator` transmits, every
response it classifies, and every NAK an RNIC sends, each stamped with
the simulated time, the queue pair, the PSN and the wire size.

Tracing is **opt-in**: the default :class:`~repro.obs.Observability` has
``trace=None`` and the emitting code pays one ``is None`` test per
packet.  Enable it per run (CLI ``--trace out.jsonl``) or per test
(``Observability(trace=WireTrace())``).

The export shape is JSONL — one event per line, the format trace
tooling diffs and greps (:meth:`WireTrace.write_jsonl`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

#: Event kinds, requester view unless noted.
KIND_WRITE = "WRITE"
KIND_READ = "READ"
KIND_ATOMIC = "ATOMIC"
KIND_ACK = "ACK"
KIND_NAK = "NAK"
KIND_READ_RESP = "READ_RESP"
KIND_ATOMIC_ACK = "ATOMIC_ACK"
#: A go-back-N retransmission leaving the requester (see DESIGN.md §10).
KIND_RETX = "RETX"
#: An injected fault or integrity drop; ``channel`` names the effect.
KIND_FAULT = "FAULT"
#: A circuit-breaker state transition (see DESIGN.md §11); ``channel``
#: carries ``"<old>-><new>"`` (e.g. ``"closed->open"``).
KIND_BREAKER = "BREAKER"
#: A control-plane QP reconnect on a live channel; ``channel`` names the
#: channel and ``psn`` carries the fresh switch-side QPN.
KIND_RECONNECT = "RECONNECT"
#: A tier placement move (promotion/demotion, DESIGN.md §13); ``channel``
#: carries ``"<object>:<direction>"`` (e.g. ``"counters:promote"``),
#: ``psn`` the block index, and ``wire_bytes`` the block size copied.
KIND_TIER_MOVE = "TIER_MOVE"
#: A link-guard protocol action (DESIGN.md §14); ``node`` is
#: ``"guard:<link>:<direction>"``, ``psn`` the guard sequence number,
#: and ``channel`` the action (``"nak"``, ``"resend"``, ``"masked"``,
#: ``"corrupt_dropped"``, ``"tail_timeout"``, ``"resync"``, ...).
KIND_GUARD = "GUARD"


@dataclass
class TraceEvent:
    """One wire event on one queue pair."""

    #: Simulated time the event was observed, nanoseconds.
    t_ns: float
    #: Observing component ("switch:tor", "rnic:memserver-rnic", ...).
    node: str
    #: The observer's local queue pair number.
    qpn: int
    #: WRITE / READ / ATOMIC / ACK / NAK / READ_RESP / ATOMIC_ACK /
    #: RETX (go-back-N retransmission) / FAULT (injected fault, ICRC drop).
    kind: str
    #: Packet sequence number carried in the BTH (None if absent).
    psn: Optional[int] = None
    #: Bytes the packet occupies on the wire.
    wire_bytes: int = 0
    #: Channel name for requester-side events.
    channel: Optional[str] = None
    #: AETH syndrome for NAKs.
    syndrome: Optional[int] = None

    def to_dict(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "t_ns": self.t_ns,
            "node": self.node,
            "qpn": self.qpn,
            "kind": self.kind,
            "psn": self.psn,
            "wire_bytes": self.wire_bytes,
        }
        if self.channel is not None:
            record["channel"] = self.channel
        if self.syndrome is not None:
            record["syndrome"] = self.syndrome
        return record


class WireTrace:
    """An append-only event stream with per-QP views and two exporters.

    ``limit`` bounds memory on long runs: beyond it the oldest events
    are NOT evicted (that would silently corrupt timelines) — instead
    new events are dropped and counted in :attr:`dropped`, which both
    exporters surface.
    """

    def __init__(self, limit: Optional[int] = None) -> None:
        self.events: List[TraceEvent] = []
        self.limit = limit
        self.dropped = 0

    # -- intake --------------------------------------------------------------

    def emit(
        self,
        t_ns: float,
        node: str,
        qpn: int,
        kind: str,
        psn: Optional[int] = None,
        wire_bytes: int = 0,
        channel: Optional[str] = None,
        syndrome: Optional[int] = None,
    ) -> None:
        if self.limit is not None and len(self.events) >= self.limit:
            self.dropped += 1
            return
        self.events.append(
            TraceEvent(
                t_ns=t_ns,
                node=node,
                qpn=qpn,
                kind=kind,
                psn=psn,
                wire_bytes=wire_bytes,
                channel=channel,
                syndrome=syndrome,
            )
        )

    # -- views ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def per_qp(self) -> Dict[int, List[TraceEvent]]:
        """Events grouped by QPN, each list in emission (= time) order."""
        timelines: Dict[int, List[TraceEvent]] = {}
        for event in self.events:
            timelines.setdefault(event.qpn, []).append(event)
        return timelines

    def kinds(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

    # -- exporters -----------------------------------------------------------

    def to_jsonl(self) -> str:
        """One JSON object per line; a final meta line when events dropped."""
        lines = [
            json.dumps(event.to_dict(), sort_keys=True)
            for event in self.events
        ]
        if self.dropped:
            lines.append(json.dumps({"meta": "truncated", "dropped": self.dropped}))
        return "\n".join(lines) + ("\n" if lines else "")

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_jsonl())
