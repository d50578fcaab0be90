"""Traffic generation and the action codec before the lookup path was
budgeted (PR 24), as they stood."""

from __future__ import annotations

import struct
from typing import Dict, Tuple

from repro.core.lookup_table import ACTION_BYTES, RemoteAction
from repro.net.headers import HeaderError
from repro.net.packet import Packet
from repro.workloads.zipf import OpenLoopZipfTraffic

_ACTION_FORMAT = "!BBII6x"


def reference_unpack(data: bytes) -> Tuple[bool, RemoteAction, int]:
    """``RemoteAction.unpack`` as it stood: slice, then parse the format."""
    valid, action_id, param, fingerprint = struct.unpack(_ACTION_FORMAT, data[:ACTION_BYTES])
    return bool(valid), RemoteAction(action_id=action_id, param=param), fingerprint


def reference_stamp_ports(template: Packet, src_port: int, dst_port: int) -> Packet:
    """``stamp_ports`` as it stood: a generic clone, then two field stores."""
    if not (0 <= src_port <= 0xFFFF and 0 <= dst_port <= 0xFFFF):
        raise HeaderError(f"UDP port out of range: {src_port}, {dst_port}")
    packet = template.clone()
    udp = packet.udp
    udp.src_port = src_port
    udp.dst_port = dst_port
    return packet


class ReferenceZipfTraffic(OpenLoopZipfTraffic):
    """A ``FlowKey`` and a clone per packet, a per-rank ledger kept by the
    tick, the tick re-armed with a cancellable event."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._sent_by_rank: Dict[int, int] = {}
        self._packets_sent = 0

    def packet_for(self, rank: int) -> Packet:
        key = self.flow_key(rank)
        packet = reference_stamp_ports(self._template, key.src_port, key.dst_port)
        packet.meta["flow_rank"] = rank
        packet.meta["sent_at"] = self.sim.now
        return packet

    def _gap_ns(self) -> float:
        if self.arrival == "poisson":
            return self._arrival_rng.expovariate(1.0) * self._mean_gap_ns
        return self._mean_gap_ns

    def _tick(self) -> None:
        if self._cursor >= self.count:
            if self.on_done is not None:
                self.on_done()
            return
        rank = self.schedule[self._cursor]
        self._cursor += 1
        self.src.send(self.packet_for(rank))
        self._sent_by_rank[rank] = self._sent_by_rank.get(rank, 0) + 1
        self._packets_sent += 1
        self.sim.schedule(self._gap_ns(), self._tick)
