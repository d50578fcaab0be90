"""Transmit-queue policies used by interfaces and switch ports.

A queue decides whether an offered packet is admitted (drop-tail on byte
capacity by default) and hands packets back to the transmitting interface in
FIFO order.  Switch traffic managers build richer policies (shared buffer
pools, PFC pause) on top of the same interface.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from .packet import Packet


class TxQueue:
    """FIFO drop-tail queue bounded by bytes (and optionally packets).

    ``capacity_bytes=None`` means unbounded, which is what host NICs use in
    the simulation (the host paces itself); switch ports always bound it.
    """

    def __init__(
        self,
        capacity_bytes: Optional[int] = None,
        capacity_packets: Optional[int] = None,
    ) -> None:
        self.capacity_bytes = capacity_bytes
        self.capacity_packets = capacity_packets
        self._queue: Deque[Packet] = deque()
        #: Bytes held; a plain attribute, as the serializer reads it at
        #: every frame start.
        self.depth_bytes = 0
        self.enqueued_packets = 0
        self.dropped_packets = 0
        self.dropped_bytes = 0

    # -- admission ---------------------------------------------------------------

    def admits(self, packet: Packet) -> bool:
        """Would *packet* be admitted right now?  (No side effects.)"""
        if (
            self.capacity_packets is not None
            and len(self._queue) + 1 > self.capacity_packets
        ):
            return False
        if (
            self.capacity_bytes is not None
            and self.depth_bytes + packet.buffer_len > self.capacity_bytes
        ):
            return False
        return True

    def offer(self, packet: Packet) -> bool:
        """Enqueue *packet*; returns False (and counts a drop) if full."""
        size = packet.buffer_len
        packet_cap = self.capacity_packets
        byte_cap = self.capacity_bytes
        # admits(), inlined: this runs once per packet per host hop.
        if (packet_cap is not None and len(self._queue) + 1 > packet_cap) or (
            byte_cap is not None and self.depth_bytes + size > byte_cap
        ):
            self.dropped_packets += 1
            self.dropped_bytes += size
            return False
        self._queue.append(packet)
        self.depth_bytes += size
        self.enqueued_packets += 1
        return True

    def poll(self) -> Optional[Packet]:
        """Dequeue the next packet, or None if empty."""
        if not self._queue:
            return None
        packet = self._queue.popleft()
        self.depth_bytes -= packet.buffer_len
        return packet

    def peek(self) -> Optional[Packet]:
        return self._queue[0] if self._queue else None

    # -- introspection -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._queue)

    def __bool__(self) -> bool:
        # A queue object is truthy even when empty; use len() for emptiness.
        return True

    def __repr__(self) -> str:
        cap = "inf" if self.capacity_bytes is None else str(self.capacity_bytes)
        return (
            f"<TxQueue {len(self._queue)}p/{self.depth_bytes}B cap={cap}B "
            f"drops={self.dropped_packets}>"
        )
