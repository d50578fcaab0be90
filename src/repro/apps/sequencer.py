"""An in-network sequencer over remote memory (§6).

The paper's related work points at switch-based sequencers ("Just Say No
to Paxos Overhead" [22]): a switch that stamps a gap-free, totally-ordered
sequence number onto designated packets.  On-switch sequencers keep the
counter in a register — fast, but lost on switch failure and bounded by
one switch.  With remote memory the counter lives in server DRAM and is
advanced by RDMA Fetch-and-Add, whose *atomic acknowledgement carries the
pre-add value* — exactly the sequence number to stamp.

Data-plane flow per eligible packet:

1. park the packet in a FIFO (order = arrival order),
2. issue ``Fetch-and-Add(counter, 1)`` (bounded outstanding window),
3. on the atomic ACK, take the packet its PSN carried, prepend a
   :class:`SeqHeader` with the returned value, and forward.

RC executes atomics in PSN order, so issue-order parking yields
arrival-ordered stamping, gap-free while nothing is lost.  A packet whose
Fetch-and-Add draws no ACK of its own is dropped rather than stamped with
a guess: a sequencer must never emit a duplicate.

The sequencing rate is capped by the RNIC atomic engine (2.4 Mops/s in
this model) — the honest cost of moving the counter off-switch, measured
by :mod:`repro.experiments.sequencer`.
"""

from __future__ import annotations

import struct
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, List, Optional, Tuple

from ..core.channel import RemoteMemoryChannel
from ..core.rocegen import RoceRequestGenerator
from ..net.headers import HeaderError, UdpHeader
from ..net.packet import Packet
from ..rdma.constants import Opcode
from ..switches.pipeline import PipelineContext
from .programs import StaticL2Program

#: UDP destination port whose packets get sequenced.
SEQUENCER_PORT = 5900


@dataclass
class SeqHeader:
    """The stamped sequence header (prepended to the UDP payload)."""

    sequence: int

    LENGTH = 8

    def pack(self) -> bytes:
        return struct.pack("!Q", self.sequence)

    @classmethod
    def unpack(cls, data: bytes) -> "SeqHeader":
        if len(data) < cls.LENGTH:
            raise HeaderError(f"short sequence header: {len(data)} bytes")
        (sequence,) = struct.unpack("!Q", data[: cls.LENGTH])
        return cls(sequence=sequence)

    @property
    def byte_len(self) -> int:
        return self.LENGTH


@dataclass
class SequencerStats:
    sequenced: int = 0
    parked_peak: int = 0
    dropped_window_full: int = 0
    naks: int = 0
    #: Packets dropped because their Fetch-and-Add drew no ACK of its own.
    lost: int = 0


class SequencerProgram(StaticL2Program):
    """Static L2 forwarding; packets to SEQUENCER_PORT get sequenced."""

    def __init__(
        self,
        mac_to_port=None,
        max_outstanding: int = 16,
        max_parked: int = 4096,
        port: int = SEQUENCER_PORT,
    ) -> None:
        super().__init__(mac_to_port)
        self.max_outstanding = max_outstanding
        self.max_parked = max_parked
        self.port = port
        self.stats = SequencerStats()
        self.rocegen: Optional[RoceRequestGenerator] = None
        self.counter_address: Optional[int] = None
        # Packets awaiting their sequence numbers ride the requester's
        # window (psn -> packet); these wait for room in it, arrival order.
        self._unissued: Deque[Packet] = deque()

    def use_channel(self, switch, channel: RemoteMemoryChannel) -> None:
        """Bind the remote counter (first 8 bytes of the region)."""
        self.rocegen = RoceRequestGenerator(
            switch, channel, self._on_loss, on_response=self._handle_atomic_ack
        )
        self.counter_address = channel.base_address

    @property
    def parked(self) -> int:
        """Packets held: awaiting an ACK or room to issue."""
        return len(self._unissued) + (len(self.rocegen.window) if self.rocegen else 0)

    # -- data plane -----------------------------------------------------------

    def on_ingress(self, ctx: PipelineContext, packet: Packet) -> None:
        udp = packet.find(UdpHeader)
        if (
            self.rocegen is None
            or udp is None
            or udp.dst_port != self.port
        ):
            self.forward_by_mac(ctx, packet)
            return
        if self.parked >= self.max_parked:
            self.stats.dropped_window_full += 1
            ctx.drop()
            return
        ctx.drop()  # the packet resumes once its sequence number returns
        self._unissued.append(packet)
        self.stats.parked_peak = max(self.stats.parked_peak, self.parked)
        self._issue()

    def _issue(self) -> None:
        """Issue waiting packets while the outstanding window has room."""
        window, unissued = self.rocegen.window, self._unissued
        while unissued and len(window) < self.max_outstanding:
            self.rocegen.fetch_add(self.counter_address, 1, context=unissued.popleft())

    def _on_loss(self, gen: RoceRequestGenerator, lost: List[Tuple[int, Any]], cause: str) -> None:
        self.stats.lost += len(lost)

    def _handle_atomic_ack(
        self,
        ctx: PipelineContext,
        packet: Packet,
        opcode: Optional[Opcode],
        is_nak: bool,
        original: Any,
    ) -> None:
        if is_nak:
            self.stats.naks += 1
        if opcode is not Opcode.ATOMIC_ACKNOWLEDGE:
            original = None
        if original is not None:
            sequence = self.rocegen.atomic_result(packet)
            original.payload = SeqHeader(sequence).pack() + original.payload
            original.fixup_lengths()
            self.stats.sequenced += 1
        self._issue()
        if original is not None:
            port = self.mac_to_port.get(original.eth.dst.value)
            if port is not None:
                ctx.emit(original, port)
