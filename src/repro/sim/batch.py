"""The columnar batch kernel: a bucketed calendar with cohort draining.

:class:`BatchSimulator` is the opt-in high-throughput twin of the scalar
:class:`~repro.sim.simulator.Simulator`.  It fires events in exactly the
same ``(time, scheduling-order)`` sequence — fixed-seed experiments
produce byte-identical wire traces in either kernel — but stores and
drains them columnar instead of one heap entry at a time:

* **Time lane** — a binary heap of *bare floats*, one per **distinct**
  pending timestamp.  ``heapq`` compares unboxed C doubles; the Python
  ordering protocol is never entered, and a cohort of N same-time events
  costs one sift instead of N.  (An ``array('d')`` snapshot of the lane
  is exported by :meth:`BatchSimulator.times_lane` for introspection.)
* **Cohort lanes** — a hashed timer wheel keyed by exact timestamp:
  ``{time: [entry, ...]}``.  Events land in their bucket by one dict
  probe + one list append; within a bucket, append order *is* scheduling
  order, so the FIFO tie-break needs no sequence comparisons at all.
  This is what makes the dominant fixed-delay classes (link propagation,
  serialization completion, pipeline latency, retransmit watchdogs)
  cheap: every event of a cohort born at the same instant with the same
  delay lands in the same bucket.
* **Vectorised expiry** — ``run()`` pops one timestamp, takes the whole
  bucket, and fires it in a tight loop: no per-event heap traffic, no
  per-event deadline checks on the common path.

Cohort entries come in four shapes, cheapest first:

==================  ========================================================
``callable``        a no-argument fire-and-forget :meth:`Simulator.post`
``tuple``           ``(interface, packet)`` — a link delivery posted via
                    :meth:`Simulator.post_delivery`; **adjacent** deliveries
                    to the same interface are coalesced into one
                    ``interface.deliver_batch([...])`` call
``list``            ``[callback, args]`` — a fire-and-forget post with args
:class:`Event`      a cancellable ``schedule()`` entry (list subclass),
                    exactly as in the scalar kernel
==================  ========================================================

Delivery coalescing is *adjacency-based by construction*: only an
unbroken run of same-interface deliveries inside one cohort merges, so
no other event — not even one at the same timestamp — is ever reordered
across a delivery.  That invariant is what keeps batch mode bit-exact;
see DESIGN.md §5.2 for the full argument.
"""

from __future__ import annotations

from array import array
from heapq import heappop as _heappop, heappush as _heappush
from typing import Any, Callable, Dict, List, Optional

from .events import Event
from .simulator import SimulationError, Simulator

_INF = float("inf")


class BatchSimulator(Simulator):
    """Bucketed-calendar simulation kernel (see module docstring).

    Construct directly, or select process-wide with
    :func:`~repro.sim.simulator.set_default_kernel` /
    :func:`~repro.sim.simulator.kernel_mode` so that every
    ``Simulator()`` in a testbed builds one.
    """

    __slots__ = ("_buckets", "_times", "_cache_time", "_cache_bucket")

    kernel = "batch"

    def __init__(self, kernel: Optional[str] = None) -> None:
        super().__init__()
        #: Hashed timer wheel: exact timestamp -> append-ordered cohort.
        self._buckets: Dict[float, List[Any]] = {}
        #: Time lane: heap of bare floats, one per distinct timestamp.
        #: May briefly hold duplicates (bucket drained then recreated at
        #: the same instant); the drain loop skips stale entries.
        self._times: List[float] = []
        # One-slot bucket cache: the dominant fixed-delay classes hit the
        # same target timestamp many times in a row (a whole cohort
        # rescheduling with the same delay), so the dict probe is skipped.
        self._cache_time: float = -1.0
        self._cache_bucket: Optional[List[Any]] = None

    # -- scheduling ------------------------------------------------------------

    def _bucket_at(self, t: float) -> List[Any]:
        if t == self._cache_time:
            bucket = self._cache_bucket
            assert bucket is not None
            return bucket
        bucket = self._buckets.get(t)
        if bucket is None:
            self._buckets[t] = bucket = []
            _heappush(self._times, t)
        self._cache_time = t
        self._cache_bucket = bucket
        return bucket

    def schedule(
        self, delay_ns: float, callback: Callable[..., Any], *args: Any
    ) -> Event:
        if not 0.0 <= delay_ns < _INF:
            raise SimulationError(
                f"delay must be finite and >= 0, got {delay_ns}ns"
            )
        t = self._now + delay_ns
        seq = self._seq
        self._seq = seq + 1
        event = Event((t, seq, callback, args))
        self._bucket_at(t).append(event)
        return event

    def schedule_at(
        self, time_ns: float, callback: Callable[..., Any], *args: Any
    ) -> Event:
        if not self._now <= time_ns < _INF:
            raise SimulationError(
                f"cannot schedule at t={time_ns}ns, now is t={self._now}ns"
            )
        seq = self._seq
        self._seq = seq + 1
        event = Event((time_ns, seq, callback, args))
        self._bucket_at(time_ns).append(event)
        return event

    def post(self, delay_ns: float, callback: Callable[..., Any], *args: Any) -> None:
        if not 0.0 <= delay_ns < _INF:
            raise SimulationError(
                f"delay must be finite and >= 0, got {delay_ns}ns"
            )
        t = self._now + delay_ns
        if t == self._cache_time:
            bucket = self._cache_bucket
        else:
            bucket = self._buckets.get(t)
            if bucket is None:
                self._buckets[t] = bucket = []
                _heappush(self._times, t)
            self._cache_time = t
            self._cache_bucket = bucket
        if args:
            bucket.append([callback, args])
        else:
            bucket.append(callback)

    def post_delivery(self, delay_ns: float, interface: Any, packet: Any) -> None:
        if not 0.0 <= delay_ns < _INF:
            raise SimulationError(
                f"delay must be finite and >= 0, got {delay_ns}ns"
            )
        t = self._now + delay_ns
        if t == self._cache_time:
            bucket = self._cache_bucket
        else:
            bucket = self._buckets.get(t)
            if bucket is None:
                self._buckets[t] = bucket = []
                _heappush(self._times, t)
            self._cache_time = t
            self._cache_bucket = bucket
        bucket.append((interface, packet))

    # -- introspection ---------------------------------------------------------

    @property
    def active_events(self) -> int:
        count = 0
        for bucket in self._buckets.values():
            for entry in bucket:
                if entry.__class__ is Event:
                    if entry[2] is not None:
                        count += 1
                else:
                    # Posted entries have no cancellation handle: live.
                    count += 1
        return count

    def times_lane(self) -> array:
        """Snapshot of the time lane as a typed ``array('d')`` (sorted).

        One entry per pending distinct timestamp — the wheel's bucket
        keys, not per-event times.  Introspection only.
        """
        return array("d", sorted(t for t in set(self._times) if t in self._buckets))

    # -- execution -------------------------------------------------------------

    def step(self) -> bool:
        """Fire the next pending event (cancelled entries purged silently)."""
        if self._running:
            raise SimulationError("simulator is not reentrant")
        buckets = self._buckets
        times = self._times
        while times:
            t = times[0]
            bucket = buckets.get(t)
            if bucket is None:
                _heappop(times)  # stale duplicate
                continue
            for i, entry in enumerate(bucket):
                if entry.__class__ is Event and entry[2] is None:
                    continue
                # Found the next live entry: detach everything up to and
                # including it, keep the rest in place.
                del bucket[: i + 1]
                if not bucket:
                    del buckets[t]
                    _heappop(times)
                if t == self._cache_time:
                    self._cache_time = -1.0
                    self._cache_bucket = None
                self._now = t
                self._events_processed += 1
                self._running = True
                try:
                    self._fire(entry)
                finally:
                    self._running = False
                return True
            # Bucket held only cancelled entries: purge it.
            del buckets[t]
            _heappop(times)
            if t == self._cache_time:
                self._cache_time = -1.0
                self._cache_bucket = None
        return False

    @staticmethod
    def _fire(entry: Any) -> None:
        cls = entry.__class__
        if cls is tuple:
            entry[0].deliver(entry[1])
        elif cls is list:
            entry[0](*entry[1])
        elif cls is Event:
            args = entry[3]
            if args:
                entry[2](*args)
            else:
                entry[2]()
        else:
            entry()

    def run(
        self,
        until_ns: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> None:
        if self._running:
            raise SimulationError("simulator is not reentrant")
        if until_ns is not None and until_ns != until_ns:
            raise SimulationError("the deadline is NaN")
        self._running = True
        fired = 0
        try:
            if until_ns is None and max_events is None:
                fired = self._run_tight()
            else:
                fired = self._run_bounded(until_ns, max_events)
        finally:
            self._running = False
            self._events_processed += fired
        if until_ns is not None and self._now < until_ns:
            self._now = until_ns

    def _run_tight(self) -> int:
        """Drain everything: the hottest loop in batch mode.

        Pops one timestamp per cohort and fires the whole bucket inline.
        Adjacent ``post_delivery`` entries for the same interface are
        accumulated and flushed as one ``deliver_batch`` call; the
        accumulator is flushed before any other entry kind fires, so
        firing order is exactly scheduling order.
        """
        buckets = self._buckets
        times = self._times
        pop = _heappop
        _event = Event
        _tuple = tuple
        _list = list
        fired = 0
        run_iface = None  # current delivery-run interface (None = no run)
        run_packets: List[Any] = []
        while times:
            t = pop(times)
            bucket = buckets.pop(t, None)
            if bucket is None:
                continue  # stale duplicate timestamp
            if t == self._cache_time:
                # New same-instant work must land in a *fresh* bucket
                # (drained on the next spin) — never in this cohort,
                # which is being iterated.
                self._cache_time = -1.0
                self._cache_bucket = None
            self._now = t
            for entry in bucket:
                cls = entry.__class__
                if cls is _tuple:
                    iface = entry[0]
                    if run_iface is iface:
                        run_packets.append(entry[1])
                    else:
                        if run_iface is not None:
                            fired += len(run_packets)
                            if len(run_packets) == 1:
                                run_iface.deliver(run_packets[0])
                            else:
                                run_iface.deliver_batch(run_packets)
                        run_iface = iface
                        run_packets = [entry[1]]
                    continue
                if run_iface is not None:
                    fired += len(run_packets)
                    if len(run_packets) == 1:
                        run_iface.deliver(run_packets[0])
                    else:
                        run_iface.deliver_batch(run_packets)
                    run_iface = None
                if cls is _event:
                    callback = entry[2]
                    if callback is not None:
                        fired += 1
                        args = entry[3]
                        if args:
                            callback(*args)
                        else:
                            callback()
                elif cls is _list:
                    fired += 1
                    entry[0](*entry[1])
                else:
                    fired += 1
                    entry()
            if run_iface is not None:
                fired += len(run_packets)
                if len(run_packets) == 1:
                    run_iface.deliver(run_packets[0])
                else:
                    run_iface.deliver_batch(run_packets)
                run_iface = None
        return fired

    def _run_bounded(
        self, until_ns: Optional[float], max_events: Optional[int]
    ) -> int:
        """Deadline/budget drain: same order, per-event bookkeeping.

        No delivery coalescing here — a budget may stop between two
        deliveries, and slice-by-slice runs must match a straight run
        event for event (the determinism suite checks exactly that).
        """
        buckets = self._buckets
        times = self._times
        fired = 0
        while times:
            t = times[0]
            bucket = buckets.get(t)
            if bucket is None:
                _heappop(times)  # stale duplicate
                continue
            if until_ns is not None and t > until_ns:
                break
            if max_events is not None and fired >= max_events:
                break
            _heappop(times)
            del buckets[t]
            if t == self._cache_time:
                self._cache_time = -1.0
                self._cache_bucket = None
            self._now = t
            n = len(bucket)
            i = 0
            while i < n:
                entry = bucket[i]
                if entry.__class__ is Event and entry[2] is None:
                    i += 1  # lazily-deleted: purged with its cohort
                    continue
                if max_events is not None and fired >= max_events:
                    # Reinsert the unfired tail *ahead of* any bucket
                    # recreated at t by the events just fired (the tail
                    # was scheduled first).
                    tail = bucket[i:]
                    recreated = buckets.get(t)
                    buckets[t] = tail if recreated is None else tail + recreated
                    _heappush(times, t)
                    self._cache_time = -1.0
                    self._cache_bucket = None
                    return fired
                i += 1
                fired += 1
                self._fire(entry)
        return fired
