"""Queue pairs and work requests (RC transport).

A :class:`QueuePair` holds the connection state both endpoints of an RDMA
channel need: queue-pair numbers, packet sequence numbers, and the network
identity of the peer.  The same class serves three users:

* the RNIC responder (tracks the expected PSN / message sequence number),
* the RNIC requester used by the native host-to-host RDMA baseline,
* the *switch-side soft queue pair* of the paper's primitives, whose fields
  live in data-plane register arrays on real hardware.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from ..net.addresses import Ipv4Address, MacAddress
from ..net.headers import HeaderError
from .constants import PSN_MODULO, Opcode


class QpState(enum.Enum):
    """The subset of the IB QP state machine the simulation needs."""

    RESET = "RESET"
    INIT = "INIT"
    RTR = "RTR"      # ready to receive
    RTS = "RTS"      # ready to send
    ERROR = "ERROR"


_wr_ids = itertools.count(1)


@dataclass
class WorkRequest:
    """A one-sided RDMA operation posted by a requester."""

    opcode: Opcode
    remote_address: int
    rkey: int
    #: Payload for WRITE; ignored for READ/atomics.
    data: bytes = b""
    #: Bytes to read for READ; operand for FETCH_ADD; ignored for WRITE.
    length: int = 0
    compare: int = 0
    #: Completion callback, called as ``callback(completion)``.
    callback: Optional[Callable[["Completion"], None]] = None
    wr_id: int = field(default_factory=lambda: next(_wr_ids))
    #: Assigned when the request is transmitted.
    psn: Optional[int] = None
    post_time_ns: Optional[float] = None
    #: Free-form requester context (e.g. the original packet being bounced).
    context: Any = None


@dataclass
class Completion:
    """Completion record delivered to a work request's callback."""

    wr_id: int
    opcode: Opcode
    success: bool
    #: READ response payload (empty otherwise).
    data: bytes = b""
    #: Pre-operation value for atomics.
    original_value: int = 0
    #: NAK syndrome when success is False (None for local errors).
    syndrome: Optional[int] = None
    completion_time_ns: float = 0.0
    context: Any = None


class QueuePair:
    """Reliable-connection queue pair state."""

    def __init__(
        self,
        qpn: int,
        local_ip: Ipv4Address,
        local_mac: MacAddress,
        initial_psn: int = 0,
    ) -> None:
        if not 0 < qpn < (1 << 24):
            raise ValueError(f"QPN out of range: {qpn}")
        self.qpn = qpn
        self.local_ip = Ipv4Address(local_ip)
        self.local_mac = MacAddress(local_mac)
        self.state = QpState.INIT
        # Peer identity, filled in by connect().
        self.dest_qpn: Optional[int] = None
        self.dest_ip: Optional[Ipv4Address] = None
        self.dest_mac: Optional[MacAddress] = None
        # Requester-side sequencing.
        self.next_psn = initial_psn % (1 << 24)
        # Responder-side sequencing.
        self.expected_psn = 0
        self.msn = 0
        # Statistics.
        self.requests_received = 0
        self.responses_sent = 0
        self.naks_sent = 0

    def connect(
        self,
        dest_qpn: int,
        dest_ip: Ipv4Address,
        dest_mac: MacAddress,
        dest_initial_psn: int = 0,
    ) -> None:
        """Transition INIT → RTR → RTS with the peer's identity installed."""
        if self.state not in (QpState.INIT, QpState.RESET):
            raise RuntimeError(f"QP {self.qpn} cannot connect from {self.state}")
        # Checked once here: every BTH this QP stamps carries it unchecked.
        if not 0 <= dest_qpn < (1 << 24):
            raise HeaderError(f"BTH dest_qp out of range: {dest_qpn}")
        self.dest_qpn = dest_qpn
        self.dest_ip = Ipv4Address(dest_ip)
        self.dest_mac = MacAddress(dest_mac)
        self.expected_psn = dest_initial_psn % (1 << 24)
        self.state = QpState.RTS

    @property
    def is_connected(self) -> bool:
        return self.state == QpState.RTS and self.dest_qpn is not None

    def allocate_psn(self) -> int:
        """Take the next requester PSN (one packet per request here)."""
        psn = self.next_psn
        self.next_psn = (psn + 1) % PSN_MODULO
        return psn

    def to_error(self) -> None:
        self.state = QpState.ERROR

    def __repr__(self) -> str:
        return (
            f"<QP {self.qpn} {self.state.value} -> {self.dest_qpn} "
            f"nPSN={self.next_psn} ePSN={self.expected_psn}>"
        )
