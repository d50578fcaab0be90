"""Event objects for the discrete-event simulator.

An :class:`Event` is a callback scheduled at an absolute simulated time.
Events are totally ordered by ``(time, sequence)`` where the sequence number
is assigned at scheduling time, so two events scheduled for the same instant
fire in FIFO order.  This makes runs deterministic, an invariant the test
suite checks explicitly.

Events are *slot-light*: an :class:`Event` subclasses ``list`` and is the
heap entry itself, laid out as ``[time, seq, callback, args]``.  The heap
therefore compares entries with the C implementation of list comparison
(time first, then the unique sequence number — the comparison never
reaches the callback), and scheduling allocates exactly one object.
Cancellation nulls the callback slot in place — a single store, no
simulator bookkeeping on the hot path — and the simulator purges cancelled
entries lazily when they surface at the top of the near heap.  An event due
far ahead waits in the far heap until the far tier's sentinel moves it over.
"""

from __future__ import annotations

from typing import Any, Callable, Tuple

#: Indices into the event layout, shared with the simulator's hot loop.
TIME = 0
SEQ = 1
CALLBACK = 2
ARGS = 3


class Event(list):
    """A scheduled callback; also its entry in the simulator's near or far heap.

    Instances are created by :meth:`repro.sim.simulator.Simulator.schedule`;
    user code normally only keeps a reference in order to :meth:`cancel`.
    """

    __slots__ = ()

    @property
    def time(self) -> float:
        """Absolute simulated firing time in nanoseconds."""
        return self[TIME]

    @property
    def seq(self) -> int:
        """Scheduling sequence number (FIFO tie-break at equal times)."""
        return self[SEQ]

    @property
    def callback(self) -> Callable[..., Any]:
        return self[CALLBACK]

    @property
    def args(self) -> Tuple[Any, ...]:
        return self[ARGS]

    @property
    def cancelled(self) -> bool:
        return self[CALLBACK] is None

    def cancel(self) -> None:
        """Mark the event so the simulator skips it when it is popped.

        Cancelling is O(1) — a single in-place store; the entry stays in
        its heap until its time comes (lazy deletion) but is excluded from
        :attr:`~repro.sim.simulator.Simulator.active_events`, which counts
        live callbacks.  Cancelling an already-cancelled event is a no-op;
        cancelling an already-fired event has no effect on the simulation
        (its callback has already run).
        """
        self[CALLBACK] = None

    def __repr__(self) -> str:
        callback = self[CALLBACK]
        if callback is None:
            return f"<Event t={self[TIME]:.1f}ns #{self[SEQ]} cancelled>"
        name = getattr(callback, "__qualname__", repr(callback))
        return f"<Event t={self[TIME]:.1f}ns #{self[SEQ]} {name}>"
