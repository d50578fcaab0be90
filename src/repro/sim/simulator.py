"""The discrete-event simulator driving every experiment in this library.

The simulator is a classic calendar loop: a binary heap of scheduled
callbacks, a monotonically advancing clock in nanoseconds, and ``run``
variants that drain the heap up to a deadline or an event budget.  All
network elements (links, switches, RNICs, hosts) interact only through
scheduled events, so a simulation is fully reproducible given its seed.

Fast-path notes — this loop is the hottest code in the repository (every
simulated packet costs an event per hop, the hop into a switch being
its pipeline pass):

* Heap entries are lists laid out as ``[time, seq, callback, args]``:
  bare ones for fire-and-forget posts, :class:`~repro.sim.events.Event`
  (a slot-light ``list`` subclass) where the caller gets a cancellation
  handle.  ``heapq`` compares either kind with C list comparison (time,
  then the unique sequence number) instead of a Python ``__lt__`` per
  sift step, and scheduling allocates one object.
* ``run()`` drains the heap inline — no per-event method call — with
  the heap and ``heappop`` hoisted into locals, a dedicated tightest loop
  for the common "no deadline, no budget" case, and a no-unpack call for
  argument-less callbacks.
* Cancellation nulls the event's callback slot in place (see
  :meth:`Event.cancel`); cancelled entries are skipped and purged when
  they surface at the top of the heap — including at a ``run(until_ns=…)``
  deadline boundary, where they are purged rather than left pending.
  :attr:`active_events` counts only live callbacks, so cancelled events
  never inflate it; the count is computed on demand (a cold-path scan)
  to keep scheduling and dispatch free of bookkeeping.
* A pre-scheduled backlog stays out of the hot heap: ``schedule`` and
  ``schedule_at`` put an event due more than ``_FAR_NS`` ahead into a
  second heap, ``_far``, all of it due at or after ``_bound``, where one
  sentinel ``[bound, -1, _promote, ()]`` waits in the near heap.  Its seq
  of -1 fires it before every event of that instant; it moves the next
  ``_BATCH`` far events over and re-arms at the new far head.  So every
  far event is in the near heap before it is due, and the firing order is
  one heap's ``(time, seq)``.  The sentinel is not an event: it takes no
  seq, sets no clock and is not counted.
* A far event keeps only its own bytes (185 B for ``schedule(t,
  obj.method, i, 1)`` on CPython 3.11, was 273): a bound-method callback
  is swapped for the equal one the far tier already holds (a dict keyed
  by the method, which hashes and compares its ``__self__`` by identity;
  emptied when ``_far`` drains), and a float delay scheduled at
  ``now == 0.0`` is itself the due time, as ``x + 0.0 == x``.  Seqs,
  args and firing order are the caller's; ``event.callback`` is equal to
  the callback passed.
* One caller takes seqs ahead: a frame's start (``net/node.py``) takes two,
  pushes the frame's delivery (or, into a switch port, its pipeline pass)
  with the second and keeps the first for a wake it may :meth:`push`
  later, the tx-complete event it no longer posts; a wake at that seq
  sorts where that event would have.
"""

from __future__ import annotations

import heapq
from types import MethodType
from typing import Any, Callable, Dict, List, Optional, Tuple

from .events import ARGS, CALLBACK, SEQ, TIME, Event
from ..obs import Observability

_heappush = heapq.heappush
_heappop = heapq.heappop
_INF = float("inf")


class SimulationError(RuntimeError):
    """Raised for misuse of the simulator (e.g. scheduling in the past)."""


class Simulator:
    """A discrete-event simulation kernel.

    Example::

        sim = Simulator()
        sim.schedule(100.0, print, "hello at t=100ns")
        sim.run()
    """

    __slots__ = (
        "_heap", "_far", "_bound", "_bound_methods", "now", "_seq", "_events_processed",
        "_running", "obs",
    )

    #: An event due more than this ahead is far: longer than any hop, DMA or
    #: pipeline delay, shorter than the 15 µs tier tick and 50 µs retry timers.
    _FAR_NS = 5_000.0
    #: Far events one firing of the sentinel moves into the near heap.
    _BATCH = 16

    def __init__(self) -> None:
        self._heap: List[Event] = []
        self._far: List[Event] = []
        self._bound: float = 0.0
        #: The far tier's bound methods, each its own key: one copy shared
        #: by every far event scheduled with an equal one.
        self._bound_methods: Dict[MethodType, MethodType] = {}
        #: Current simulated time in nanoseconds: a plain slot, written by
        #: the kernel as each event fires and at a ``run`` deadline.
        self.now: float = 0.0
        self._seq: int = 0
        #: Observability handle shared by everything in this simulation
        #: (the session-wide one when a CLI/benchmark run installed it).
        self.obs: Observability = Observability.adopt()
        self._events_processed: int = 0
        self._running: bool = False

    # -- clock ---------------------------------------------------------------

    @property
    def events_processed(self) -> int:
        """Number of events fired so far (cancelled events excluded).

        Updated when :meth:`run` returns, not per event.
        """
        return self._events_processed

    @property
    def active_events(self) -> int:
        """Number of scheduled events that are neither fired nor cancelled.

        Cancelled entries stay in the heap until their time comes (lazy
        deletion) but are excluded here, so this is the true amount of
        outstanding work; the far tier's sentinel is left out.  Computed by
        scanning both heaps: introspection is the cold path.
        """
        entries = self._heap + self._far
        return sum(1 for event in entries if event[CALLBACK] is not None and event[SEQ] >= 0)

    # -- scheduling ------------------------------------------------------------
    #
    # Every entry point builds the same heap entry, ``[time, seq, callback,
    # args]``, and makes one chained comparison on the way in.  It is
    # written ``not lo <= x < inf`` so that it rejects NaN and infinity
    # along with the past: a NaN time sorts before everything and an
    # infinite one would become ``sim.now`` once the heap drains to it.
    # The lower bound is the float ``0.0``: against a float delay CPython
    # specialises a float-float compare, while an int ``0`` takes the
    # generic path (3 % of ``l2_forward``'s run phase).
    # ``schedule``/``schedule_at`` wrap the entry in an :class:`Event` (a
    # list subclass) and hand it back for cancellation.  The hot paths
    # (link delivery, serializer completion, pipeline passes, RNIC engines)
    # never cancel, so ``post`` pushes the bare list: a display instead of
    # a class call, and the heap still compares entries of either kind in
    # C.  Firing order is the same for all three.  A callback is resolved
    # when its entry is pushed: a frame's start pushes the peer's
    # ``deliver`` or a switch's pass, so a LinkGuard attached mid-flight
    # governs a frame still serializing only because the link revokes that
    # entry (DESIGN.md §5.2).  ``schedule``/``schedule_at`` hand a far
    # event to ``_far_event``, the one place one is built: set-up
    # schedules whole workloads through them, one extra call per event.

    def schedule(
        self, delay_ns: float, callback: Callable[..., Any], *args: Any
    ) -> Event:
        """Schedule *callback(*args)* to fire ``delay_ns`` from now.

        Returns the :class:`Event`, which the caller may :meth:`~Event.cancel`.
        A negative, NaN or infinite delay is an error; a zero delay fires
        after all events already scheduled for the current instant (FIFO).
        """
        if not 0.0 <= delay_ns < _INF:
            raise SimulationError(
                f"delay must be finite and >= 0, got {delay_ns}ns"
            )
        seq = self._seq
        self._seq = seq + 1
        now = self.now
        time_ns = now + delay_ns
        if delay_ns > self._FAR_NS and time_ns >= self._bound:
            if not now and type(delay_ns) is float:
                time_ns = delay_ns  # the caller's float: x + 0.0 == x
            return self._far_event(time_ns, seq, callback, args)
        event = Event((time_ns, seq, callback, args))
        _heappush(self._heap, event)
        return event

    def schedule_at(
        self, time_ns: float, callback: Callable[..., Any], *args: Any
    ) -> Event:
        """Schedule *callback(*args)* at absolute time ``time_ns``."""
        if not self.now <= time_ns < _INF:
            raise SimulationError(
                f"cannot schedule at t={time_ns}ns, now is t={self.now}ns"
            )
        seq = self._seq
        self._seq = seq + 1
        if time_ns - self.now > self._FAR_NS and time_ns >= self._bound:
            return self._far_event(time_ns, seq, callback, args)
        event = Event((time_ns, seq, callback, args))
        _heappush(self._heap, event)
        return event

    def post(self, delay_ns: float, callback: Callable[..., Any], *args: Any) -> None:
        """Schedule *callback(*args)* with no cancellation handle."""
        if not 0.0 <= delay_ns < _INF:
            raise SimulationError(
                f"delay must be finite and >= 0, got {delay_ns}ns"
            )
        seq = self._seq
        self._seq = seq + 1
        _heappush(self._heap, [self.now + delay_ns, seq, callback, args])

    def push(
        self, time_ns: float, seq: int, callback: Callable[..., Any], args: Tuple[Any, ...]
    ) -> List[Any]:
        """Push *callback(*args)* at ``(time_ns, seq)`` and return its bare
        heap entry.

        *seq* is one taken from the kernel's counter earlier and not pushed
        since: it sorts after every event posted before it was taken and
        before every one posted after.  The one user is the serializer
        (``net/node.py``), which takes two seqs as a frame starts, pushes
        the frame's delivery with the second and keeps the first for the
        wake, the tx-complete event it no longer posts (DESIGN.md §5.1).
        """
        if not self.now <= time_ns < _INF:
            raise SimulationError(
                f"cannot push at t={time_ns}ns, now is t={self.now}ns"
            )
        entry = [time_ns, seq, callback, args]
        _heappush(self._heap, entry)
        return entry

    def _far_event(
        self, time_ns: float, seq: int, callback: Callable[..., Any], args: Tuple[Any, ...]
    ) -> Event:
        """Build a far event and push it onto the far heap, arming the
        sentinel if the far heap was empty.  A bound method is swapped for
        the equal one an earlier far event already holds."""
        if type(callback) is MethodType:
            callback = self._bound_methods.setdefault(callback, callback)
        event = Event((time_ns, seq, callback, args))
        far = self._far
        if not far:
            self._bound = time_ns
            _heappush(self._heap, [time_ns, -1, self._promote, ()])
        _heappush(far, event)
        return event

    def _promote(self) -> None:
        """The sentinel: move the next ``_BATCH`` far events into the near
        heap and re-arm at the new far head, if any is left."""
        far, heap = self._far, self._heap
        for _ in range(self._BATCH):
            _heappush(heap, _heappop(far))
            if not far:
                self._bound_methods.clear()
                return
        self._bound = bound = far[0][TIME]
        _heappush(heap, [bound, -1, self._promote, ()])

    # -- execution -------------------------------------------------------------

    def run(
        self,
        until_ns: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> None:
        """Run until the heap is empty, a deadline, or an event budget.

        :param until_ns: finite stop time; events scheduled strictly after
            it remain pending and the clock is advanced to ``until_ns``.
            Cancelled events surfacing at the deadline boundary are purged,
            never left pending.
        :param max_events: stop after firing this many (>= 0) events (a
            safety valve for runaway feedback loops in experiments).
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        if until_ns is not None and not until_ns < _INF:
            raise SimulationError(f"the deadline must be finite, got {until_ns}ns")
        if max_events is not None and max_events < 0:
            raise SimulationError(f"the event budget must be >= 0, got {max_events}")
        self._running = True
        heap = self._heap
        heappop = _heappop
        fired = 0
        try:
            if until_ns is None and max_events is None:
                # Tightest drain loop: pop unconditionally (IndexError is
                # the empty-heap exit), no peeking, no deadline checks.
                # Event layout indices are inlined: 0=TIME 1=SEQ 2=CALLBACK
                # 3=ARGS.  The except guards only the pop, so a callback
                # raising IndexError still propagates.  The sentinel has no
                # args, so only argument-less entries test for it.
                while True:
                    try:
                        event = heappop(heap)
                    except IndexError:
                        break
                    callback = event[2]
                    if callback is None:
                        continue
                    args = event[3]
                    if args:
                        self.now = event[0]
                        fired += 1
                        callback(*args)
                    elif event[1] < 0:
                        callback()
                    else:
                        self.now = event[0]
                        fired += 1
                        callback()
            else:
                while heap:
                    head = heap[0]
                    if head[2] is None:
                        # Purge lazily-deleted entries wherever they
                        # surface, including at/beyond the deadline.
                        heappop(heap)
                        continue
                    if until_ns is not None and head[0] > until_ns:
                        break
                    if max_events is not None and fired >= max_events:
                        break
                    heappop(heap)
                    if head[1] < 0:
                        head[2]()
                        continue
                    self.now = head[0]
                    fired += 1
                    head[2](*head[3])
        finally:
            self._running = False
            self._events_processed += fired
        if until_ns is not None and self.now < until_ns:
            self.now = until_ns

    def run_for(self, duration_ns: float, **kwargs: Any) -> None:
        """Run for ``duration_ns`` of simulated time from the current clock."""
        self.run(until_ns=self.now + duration_ns, **kwargs)

    def __repr__(self) -> str:
        return (
            f"<Simulator t={self.now:.1f}ns pending={self.active_events} "
            f"fired={self._events_processed}>"
        )
