"""Live measurement instruments: link bandwidth.

A monitor attaches non-intrusively (an interface tap), so experiments
measure what actually crossed the wire rather than what the sender
intended.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..net.link import Link
from ..net.node import Interface
from ..net.packet import Packet
from ..sim.simulator import Simulator
from ..sim.units import SEC


class LinkBandwidthMonitor:
    """Counts wire bytes per direction on a link, with a filter option.

    Direction "a2b" is traffic transmitted by ``link.a``; "b2a" by
    ``link.b``.  ``rate_bps`` uses the window between the first and last
    observed packet of that direction.
    """

    def __init__(
        self,
        sim: Simulator,
        link: Link,
        accept: Optional[Callable[[Packet], bool]] = None,
    ) -> None:
        self.sim = sim
        self.link = link
        self.accept = accept
        self.bytes = {"a2b": 0, "b2a": 0}
        self.packets = {"a2b": 0, "b2a": 0}
        self._first_ns = {"a2b": None, "b2a": None}
        self._last_ns = {"a2b": 0.0, "b2a": 0.0}
        link.taps.append(self._tap)

    def _tap(self, src: Interface, packet: Packet) -> None:
        if self.accept is not None and not self.accept(packet):
            return
        direction = "a2b" if src is self.link.a else "b2a"
        self.bytes[direction] += packet.wire_len
        self.packets[direction] += 1
        if self._first_ns[direction] is None:
            self._first_ns[direction] = self.sim.now
        self._last_ns[direction] = self.sim.now

    def rate_bps(self, direction: str) -> float:
        first = self._first_ns[direction]
        if first is None:
            return 0.0
        window = self._last_ns[direction] - first
        if window <= 0:
            return 0.0
        return self.bytes[direction] * 8 * SEC / window

    def total_bytes(self) -> int:
        return self.bytes["a2b"] + self.bytes["b2a"]

