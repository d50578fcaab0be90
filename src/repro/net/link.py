"""Point-to-point duplex links.

Serialization happens at the transmitting :class:`~repro.net.node.Interface`
(one packet on the wire at a time per direction); the link adds propagation
delay and delivers to the peer.  Links may also inject loss or corruption
for the §7 drop-sensitivity experiments.

Fast-path note: an idle link (no taps, zero loss, no fault injector, no
LinkGuard shadowing ``carry``) is by far the common case.  The link keeps
one ``_fast`` flag and refreshes it whenever any of those change —
``taps`` is an observed list (:class:`_TapList`), ``loss_probability`` /
``fault_injector`` are properties, and a guard calls
:meth:`Link._refresh_fast_path` after it shadows ``carry`` and after it
detaches.  On the fast path the transmitting interface posts the peer's
``deliver`` (or a switch port's pipeline pass) itself when a frame
starts, and ``carry`` never runs; off it, the interface calls ``carry``
as the frame ends.  A refresh that takes the link off its fast path
revokes the fused delivery or pass of a frame still serializing at
either end, so that frame meets the taps, the loss, the
injector or the guard at its end, as it would have had the link been
slow when it started.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional

from ..sim.simulator import Simulator
from .node import Interface
from .packet import Packet


class _TapList(list):
    """A tap list that tells its owning link when it changes."""

    __slots__ = ("_owner",)

    def __init__(self, owner: "Link") -> None:
        super().__init__()
        self._owner = owner

    def _changed(self) -> None:
        self._owner._refresh_fast_path()

    def append(self, tap):  # type: ignore[override]
        super().append(tap)
        self._changed()

    def extend(self, taps):  # type: ignore[override]
        super().extend(taps)
        self._changed()

    def insert(self, index, tap):  # type: ignore[override]
        super().insert(index, tap)
        self._changed()

    def remove(self, tap):  # type: ignore[override]
        super().remove(tap)
        self._changed()

    def pop(self, index=-1):  # type: ignore[override]
        tap = super().pop(index)
        self._changed()
        return tap

    def clear(self):  # type: ignore[override]
        super().clear()
        self._changed()

    def __setitem__(self, index, value):  # type: ignore[override]
        super().__setitem__(index, value)
        self._changed()

    def __delitem__(self, index):  # type: ignore[override]
        super().__delitem__(index)
        self._changed()

    def __iadd__(self, taps):  # type: ignore[override]
        super().extend(taps)
        self._changed()
        return self


class Link:
    """A full-duplex point-to-point link between two interfaces."""

    def __init__(
        self,
        sim: Simulator,
        a: Interface,
        b: Interface,
        rate_bps: float,
        propagation_ns: float = 250.0,
        loss_probability: float = 0.0,
        loss_rng: Optional[random.Random] = None,
    ) -> None:
        if rate_bps <= 0:
            raise ValueError(f"link rate must be positive, got {rate_bps}")
        if not 0.0 <= loss_probability <= 1.0:
            raise ValueError(f"loss probability out of range: {loss_probability}")
        self.sim = sim
        self.a = a
        self.b = b
        self.rate_bps = rate_bps
        self.propagation_ns = propagation_ns
        self._loss_probability = loss_probability
        self._loss_rng = loss_rng if loss_rng is not None else random.Random(0)
        self.lost_packets = 0
        #: Taps fired as tap(src_interface, packet) when a packet enters the
        #: wire.  Mutations (append/remove/...) refresh the fast-path flag.
        self.taps: List[Callable[[Interface, Packet], None]] = _TapList(self)
        self._fault_injector = None
        self._fast = loss_probability == 0.0
        a.attach(self)
        b.attach(self)

    # -- fast-path bookkeeping -------------------------------------------------

    def _refresh_fast_path(self) -> None:
        fast = (
            not self.taps
            and self._loss_probability == 0.0
            and self._fault_injector is None
            and "carry" not in vars(self)
        )
        if self._fast and not fast:
            self.a._revoke()
            self.b._revoke()
        self._fast = fast

    @property
    def loss_probability(self) -> float:
        return self._loss_probability

    @loss_probability.setter
    def loss_probability(self, probability: float) -> None:
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"loss probability out of range: {probability}")
        self._loss_probability = probability
        self._refresh_fast_path()

    @property
    def fault_injector(self):
        """Optional :class:`~repro.faults.injectors.LinkFaultInjector`; when
        set it takes over delivery scheduling, applying its armed fault
        models (loss, reorder, duplicate, jitter, corrupt) to each carry."""
        return self._fault_injector

    @fault_injector.setter
    def fault_injector(self, injector) -> None:
        self._fault_injector = injector
        self._refresh_fast_path()

    # -- data path -------------------------------------------------------------

    def peer_of(self, interface: Interface) -> Interface:
        if interface is self.a:
            return self.b
        if interface is self.b:
            return self.a
        raise ValueError(f"{interface} is not attached to {self}")

    def carry(self, src: Interface, packet: Packet) -> None:
        """Propagate *packet* from *src* to the opposite interface: the
        taps, the loss knob or the fault injector, then the peer's
        ``deliver`` one propagation delay later."""
        dst = self.peer_of(src)
        for tap in self.taps:
            tap(src, packet)
        if (
            self._loss_probability > 0.0
            and self._loss_rng.random() < self._loss_probability
        ):
            self.lost_packets += 1
            return
        if self._fault_injector is not None:
            self._fault_injector.carry(self, src, packet)
            return
        self.sim.post(self.propagation_ns, dst.deliver, packet)

    def __repr__(self) -> str:
        return (
            f"<Link {self.a.node.name}:{self.a.name} <-> "
            f"{self.b.node.name}:{self.b.name} {self.rate_bps / 1e9:.0f}Gbps>"
        )


def connect(
    sim: Simulator,
    a: Interface,
    b: Interface,
    rate_bps: float,
    propagation_ns: float = 250.0,
    **kwargs: object,
) -> Link:
    """Convenience wrapper: build a :class:`Link` joining *a* and *b*."""
    return Link(sim, a, b, rate_bps, propagation_ns=propagation_ns, **kwargs)
