"""The match-action pipeline programming model.

A :class:`SwitchProgram` is the Python analogue of a P4 program: it gets a
:class:`PipelineContext` per packet and decides forwarding by calling
context actions (forward / drop / emit).  The
*primitive actions* of the paper are ordinary methods invoked from a
program's ``on_ingress`` — exactly how the paper packages them ("we design
the primitives as data plane actions so that switch data plane programs can
easily adopt the primitives", §3).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from ..net.packet import Packet

if TYPE_CHECKING:
    from .switch import ProgrammableSwitch


class PipelineContext:
    """Per-packet forwarding decisions collected during pipeline execution.

    The model's packet metadata struct: a fixed set of slots, built once
    per pipeline pass.  It refers to its switch and to nothing that refers
    back, so it is freed by reference count the moment the pass ends.
    """

    __slots__ = ("switch", "in_port", "egress_port", "dropped", "emitted")

    def __init__(self, switch: "ProgrammableSwitch", in_port: Optional[int]) -> None:
        self.switch = switch
        self.in_port = in_port
        self.egress_port: Optional[int] = None
        self.dropped = False
        #: Additional packets to transmit: (packet, egress port); None
        #: until the first ``emit``, as most passes emit nothing.
        self.emitted: Optional[List[Tuple[Packet, int]]] = None

    def forward(self, port: int) -> None:
        """Send the packet out of *port* (unicast)."""
        self.egress_port = port
        self.dropped = False

    def drop(self) -> None:
        """Discard the packet."""
        self.dropped = True
        self.egress_port = None

    def emit(self, packet: Packet, port: int) -> None:
        """Transmit an additional, program-generated packet out of *port*.

        This is how primitives issue RDMA requests: the crafted RoCE packet
        is emitted toward the memory server's port while the original
        packet follows its own verdict.
        """
        if self.emitted is None:
            self.emitted = [(packet, port)]
        else:
            self.emitted.append((packet, port))


class SwitchProgram:
    """Base class for data-plane programs.

    Subclasses implement :meth:`on_ingress`.  ``attach`` is called once
    when the program is bound to a switch; programs allocate their tables
    and register arrays there, mirroring P4 resource declaration.
    """

    def attach(self, switch: "ProgrammableSwitch") -> None:
        self.switch = switch

    def on_ingress(self, ctx: PipelineContext, packet: Packet) -> None:
        raise NotImplementedError

