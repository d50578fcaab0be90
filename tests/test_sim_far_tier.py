"""The kernel's far tier against a semantic oracle, its boundary cases, and
the count guard that keeps a pre-scheduled backlog out of the hot heap.

The oracle states what the simulator promises and nothing of how: a plain
list of pending events, and each firing takes the least ``(time, seq)``
from it, seq being the order of the scheduling calls.  A cancelled event
leaves the list.  ``run()`` fires until the list is empty;
``run(until_ns=t)`` fires what is due at or before ``t`` and then moves the
clock up to ``t``; ``run(max_events=k)`` fires at most ``k``.  The clock is the time of the last event fired, or a deadline.
There is no heap, no far tier and no lazy deletion in it.

The scripts schedule bound methods of several objects that share one
function next to a plain function, so a far event fired on the wrong
object, or with the wrong arguments, shows in the log; the far tier keeps
one copy of each equal bound method, and that copy must be the caller's
object's.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.simulator import Simulator

from .budgets import FAR_EVENT_BYTES, NEAR_HEAP_PEAK, byte_budget, retained
from .conftest import examples
from .test_core_state_store import build

FAR = Simulator._FAR_NS
BATCH = Simulator._BATCH

#: Zero, short, either side of the far threshold, far and huge, and one far
#: int; equal times come from drawing one delay twice.
DELAYS = (0.0, 1.0, 250.0, FAR - 1e-3, FAR, FAR + 1e-3, 2 * FAR, 3 * FAR + 7.0, 1e12, 4 * int(FAR))
#: Objects whose ``fire`` methods a script schedules; ``who == RECEIVERS``
#: schedules the plain function :func:`_plain` instead.
RECEIVERS = 3


class _Pending:
    __slots__ = ("oracle", "time", "seq", "callback", "args")

    def __init__(self, oracle, time_ns, seq, callback, args):
        self.oracle, self.time, self.seq = oracle, time_ns, seq
        self.callback, self.args = callback, args

    def cancel(self) -> None:
        if self in self.oracle.pending:
            self.oracle.pending.remove(self)


class Oracle:
    """The simulator's scheduling API over a plain, unordered list."""

    def __init__(self) -> None:
        self.now = 0.0
        self.events_processed = 0
        self.pending = []
        self._seq = 0

    def _add(self, time_ns, callback, args) -> _Pending:
        entry = _Pending(self, time_ns, self._seq, callback, args)
        self._seq += 1
        self.pending.append(entry)
        return entry

    def post(self, delay_ns, callback, *args) -> None:
        self._add(self.now + delay_ns, callback, args)

    def schedule(self, delay_ns, callback, *args) -> _Pending:
        return self._add(self.now + delay_ns, callback, args)

    def schedule_at(self, time_ns, callback, *args) -> _Pending:
        return self._add(time_ns, callback, args)

    @property
    def active_events(self) -> int:
        return len(self.pending)

    def _next(self) -> _Pending:
        return min(self.pending, key=lambda entry: (entry.time, entry.seq))

    def _fire(self, entry) -> None:
        self.pending.remove(entry)
        self.now = entry.time
        self.events_processed += 1
        entry.callback(*entry.args)

    def run(self, until_ns=None, max_events=None) -> None:
        fired = 0
        while self.pending and (max_events is None or fired < max_events):
            entry = self._next()
            if until_ns is not None and entry.time > until_ns:
                break
            self._fire(entry)
            fired += 1
        if until_ns is not None and self.now < until_ns:
            self.now = until_ns


class _Receiver:
    """One of a script's objects: each one's ``fire`` is a bound method of
    the same function, equal only to another bound to the same object."""

    __slots__ = ("program", "index")

    def __init__(self, program, index) -> None:
        self.program, self.index = program, index

    def fire(self, tag, nested) -> None:
        self.program.fired(self.index, tag, nested)


def _plain(program, tag, nested) -> None:
    program.fired(RECEIVERS, tag, nested)


class Program:
    """One script played against a target: every scheduled event gets the
    next tag, logs ``(now, tag, who)`` when it fires — ``who`` the index of
    the object whose method fired, or ``RECEIVERS`` for the plain function
    — and then plays its own nested operations against the same target."""

    def __init__(self, target) -> None:
        self.target = target
        self.log = []
        self.handles = []
        self.receivers = [_Receiver(self, index) for index in range(RECEIVERS)]
        self._tags = 0

    def _callback(self, who):
        """A fresh callback for *who* (a new bound method object each time)
        and the arguments it leads with."""
        if who < RECEIVERS:
            return self.receivers[who].fire, ()
        return _plain, (self,)

    def scheduled(self, handle, kind, now, delay, callback) -> None:
        """Called with every handle ``schedule``/``schedule_at`` return."""

    def play(self, op) -> None:
        kind = op[0]
        target = self.target
        if kind == "cancel":
            if self.handles:
                self.handles[op[1] % len(self.handles)].cancel()
            return
        if kind == "burst":  # every callback in turn, each one several times
            for n in range(op[3]):
                self.play((op[1], op[2], (), n % (RECEIVERS + 1)))
            return
        if kind == "chain":  # in flight: each hop posts the next
            if op[2]:
                self.play(("post", op[1], (("chain", op[1], op[2] - 1),), op[2] % (RECEIVERS + 1)))
            return
        tag = self._tags
        self._tags += 1
        delay, nested = op[1], op[2]
        callback, lead = self._callback(op[3])
        now = target.now
        if kind == "post":
            target.post(delay, callback, *lead, tag, nested)
            return
        if kind == "schedule":
            handle = target.schedule(delay, callback, *lead, tag, nested)
        else:
            handle = target.schedule_at(now + delay, callback, *lead, tag, nested)
        self.handles.append(handle)
        self.scheduled(handle, kind, now, delay, callback)

    def fired(self, who, tag, nested) -> None:
        self.log.append((self.target.now, tag, who))
        for op in nested:
            self.play(op)


class SimProgram(Program):
    """A script against the simulator, checking each handle as it is made:
    its callback equals the one passed, and its time is the caller's float
    delay itself for a far ``schedule`` at ``now == 0.0``, else ``now +
    delay``, a float either way."""

    def scheduled(self, handle, kind, now, delay, callback) -> None:
        assert handle.callback == callback
        assert type(handle.time) is float
        far = any(event is handle for event in self.target._far)
        if kind == "schedule" and far and now == 0.0 and type(delay) is float:
            assert handle.time is delay
        else:
            assert handle.time == now + delay


delays = st.sampled_from(DELAYS)
scheduling = st.sampled_from(["post", "schedule", "schedule_at"])
who = st.integers(0, RECEIVERS)
cancel = st.tuples(st.just("cancel"), st.integers(0, 10_000))
inner = st.one_of(st.tuples(scheduling, delays, st.just(()), who), cancel)
chain = st.tuples(st.just("chain"), st.sampled_from([250.0, FAR / 2, FAR]), st.integers(0, 30))
calls = st.one_of(
    st.tuples(scheduling, delays, st.lists(inner, max_size=3), who),
    cancel,
    chain,
    st.tuples(st.just("burst"), scheduling, delays, st.integers(BATCH + 1, 3 * BATCH)),
)
drivers = st.one_of(
    st.tuples(st.just("run")),
    st.tuples(st.just("run_until"), st.sampled_from(DELAYS + (FAR / 2, 4 * FAR))),
    st.tuples(st.just("run_until_pending"), st.integers(0, 10_000)),
    st.tuples(st.just("run_max"), st.integers(0, 3 * BATCH)),
    st.tuples(st.just("run_max"), st.just(1)),
)
#: A phase starts a chain in flight across the far range, so that a far
#: event fired out of place shows against it, makes some calls and drives.
phase = st.tuples(chain, st.lists(calls, max_size=4), drivers)


def _drive(program: Program, op, until) -> None:
    kind, target = op[0], program.target
    if kind == "run":
        target.run()
    elif kind in ("run_until", "run_until_pending"):
        target.run(until_ns=until)
    elif kind == "run_max":
        target.run(max_events=op[1])
    else:
        program.play(op)


def _assert_same(sim: Simulator, oracle: Oracle, real: Program, model: Program) -> None:
    assert real.log == model.log
    assert sim.now == oracle.now
    assert sim.events_processed == oracle.events_processed
    assert sim.active_events == oracle.active_events
    if not sim._far:
        assert not sim._bound_methods  # a drained far tier holds no callback


@settings(max_examples=examples(150), deadline=None)
@given(phases=st.lists(phase, max_size=6))
def test_kernel_fires_in_the_oracles_order(phases):
    sim, oracle = Simulator(), Oracle()
    real, model = SimProgram(sim), Program(oracle)
    script = [op for ticker, made, driver in phases for op in (ticker, *made, driver)]
    for op in script + [("run",)]:
        until = None
        if op[0] == "run_until":
            until = oracle.now + op[1]
        elif op[0] == "run_until_pending":
            # Cut exactly on a pending event's time: a far head's, often.
            times = sorted(entry.time for entry in oracle.pending)
            until = times[op[1] % len(times)] if times else oracle.now
        _drive(real, op, until)
        _drive(model, op, until)
        _assert_same(sim, oracle, real, model)


# -- boundary cases, spelled out ---------------------------------------------------------


def test_more_far_events_at_one_instant_than_a_batch_fire_in_seq_order():
    sim, fired = Simulator(), []
    for n in range(3 * BATCH + 1):
        sim.schedule(2 * FAR, fired.append, n)
        sim.schedule_at(2 * FAR, fired.append, -n - 1)
    assert len(sim._far) == 2 * (3 * BATCH + 1)
    sim.run()
    assert fired == [tag for n in range(3 * BATCH + 1) for tag in (n, -n - 1)]
    assert sim.events_processed == len(fired) and sim.now == 2 * FAR


def test_a_cancelled_far_tail_leaves_the_clock_at_the_last_event_fired():
    # The sentinel fires at the cancelled event's time; the clock must not.
    for budget in (None, 1):
        sim = Simulator()
        sim.schedule(10.0, lambda: None)
        timers = [sim.schedule(FAR * 10 + n, lambda: None) for n in range(2 * BATCH)]
        for timer in timers:
            timer.cancel()
        assert sim.active_events == 1
        sim.run(max_events=budget)  # the live event
        sim.run(max_events=budget)  # the sentinel and the cancelled tail
        assert not sim._heap and not sim._far
        assert sim.now == 10.0 and sim.events_processed == 1 and sim.active_events == 0


def test_a_far_event_scheduled_while_the_sentinel_is_pending_joins_in_order():
    sim, fired = Simulator(), []
    sim.schedule(4 * FAR, fired.append, "late")
    sim.schedule_at(3 * FAR, fired.append, "earlier")  # before the bound: near heap
    sim.schedule(2 * FAR, fired.append, "earliest")  # so is this one
    sim.schedule_at(5 * FAR, fired.append, "later")  # after it: far heap
    assert len(sim._far) == 2
    sim.run(until_ns=2 * FAR)
    sim.post(FAR, fired.append, "posted")  # due at 3 * FAR, after "earlier"
    sim.run(until_ns=4 * FAR)  # exactly on the far head
    assert fired == ["earliest", "earlier", "posted", "late"] and sim.now == 4 * FAR
    sim.schedule(2 * FAR, fired.append, "last")
    sim.run()
    assert fired[4:] == ["later", "last"] and sim.now == 6 * FAR


def test_the_sentinel_is_not_an_event():
    sim, fired = Simulator(), []
    for n in range(2 * BATCH):
        sim.schedule(2 * FAR + n, fired.append, n)
    assert sim.active_events == 2 * BATCH
    sim.run(max_events=3)
    assert fired == [0, 1, 2] and sim.events_processed == 3
    assert sim.active_events == 2 * BATCH - 3
    sim.run(max_events=1)
    assert fired[-1] == 3 and sim.events_processed == 4
    sim.run(max_events=0)
    assert sim.events_processed == 4 and sim.now == 2 * FAR + 3


def test_far_events_share_one_copy_of_an_equal_bound_method():
    sim = Simulator()
    program = Program(sim)
    first, second = program.receivers[:2]
    events = [
        sim.schedule(2 * FAR + n, receiver.fire, n, ())
        for n, receiver in enumerate((first, first, second))
    ]
    assert events[0].callback is events[1].callback  # one copy, bound to the same object
    assert events[2].callback == second.fire and events[2].callback.__self__ is second
    assert len(sim._bound_methods) == 2
    sim.run()
    assert program.log == [(2 * FAR, 0, 0), (2 * FAR + 1, 1, 0), (2 * FAR + 2, 2, 1)]
    assert not sim._far and not sim._bound_methods


def test_a_far_delay_at_time_zero_is_its_own_due_time():
    sim = Simulator()
    delay = 2 * FAR + 0.5
    assert sim.schedule(delay, _plain, None, 0, ()).time is delay
    whole = sim.schedule(4 * int(FAR), _plain, None, 1, ())  # an int delay: a float time
    assert type(whole.time) is float and whole.time == 4 * FAR
    sim.run(until_ns=1.0)
    later = sim.schedule(delay, _plain, None, 2, ())
    assert later.time == 1.0 + delay and later.time is not delay


# -- count guard ------------------------------------------------------------------------


def _near_heap_peak(backlog: int) -> int:
    """Peak near-heap length while *backlog* pre-scheduled far events drain
    beside eight in-flight chains re-posting every 100 ns."""
    sim = Simulator()
    peak = [0]
    end = 20_000.0 + backlog * 10.0

    def sample() -> None:
        peak[0] = max(peak[0], len(sim._heap))

    def chain() -> None:
        sample()
        if sim.now < end:
            sim.post(100.0, chain)

    for n in range(backlog):
        sim.schedule(20_000.0 + n * 10.0, sample)
    for n in range(8):
        sim.post(float(n), chain)
    sim.run()
    return peak[0]


def test_a_far_backlog_stays_out_of_the_near_heap():
    assert _near_heap_peak(20_000) <= NEAR_HEAP_PEAK
    assert _near_heap_peak(2_000) <= NEAR_HEAP_PEAK


# -- byte guard -------------------------------------------------------------------------


def _far_event_bytes(events: int) -> int:
    """Bytes *events* pre-scheduled counter updates keep, ``t`` and ``i``
    built outside the trace, as a workload's schedule holds them."""
    tb, _, store, _ = build()
    work = [(10_000.0 + 10.0 * n, n) for n in range(events)]

    def schedule_all() -> None:
        for t_ns, index in work:
            tb.sim.schedule(t_ns, store.update, index, 1)

    return retained(schedule_all)[1]


@byte_budget
def test_a_pre_scheduled_event_keeps_only_its_own_bytes():
    measured = (_far_event_bytes(20_000) - _far_event_bytes(4_000)) / 16_000
    assert 0 < measured <= FAR_EVENT_BYTES, f"{measured:.0f} B per pre-scheduled event"
