"""Tests for the discrete-event simulator kernel: ordering, cancellation,
deadlines, budgets, reentrancy, and fire-and-forget ``post`` entries."""

import random

import pytest

from repro.sim.simulator import SimulationError, Simulator


@pytest.fixture(params=["scalar"])
def sim() -> Simulator:
    """The one event kernel; the ``scalar`` id keeps these test ids stable."""
    return Simulator()


def test_clock_starts_at_zero(sim):
    assert sim.now == 0.0


def test_events_fire_in_time_order(sim):
    fired = []
    sim.schedule(30.0, fired.append, "c")
    sim.schedule(10.0, fired.append, "a")
    sim.schedule(20.0, fired.append, "b")
    sim.run()
    assert fired == ["a", "b", "c"]
    assert sim.now == 30.0


def test_same_time_events_fire_fifo(sim):
    fired = []
    for label in ("first", "second", "third"):
        sim.schedule(5.0, fired.append, label)
    sim.run()
    assert fired == ["first", "second", "third"]


def test_zero_delay_event_fires_after_current(sim):
    fired = []

    def outer():
        fired.append("outer")
        sim.schedule(0.0, fired.append, "inner")

    sim.schedule(1.0, outer)
    sim.run()
    assert fired == ["outer", "inner"]


def test_negative_delay_rejected(sim):
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_schedule_at_in_past_rejected(sim):
    sim.schedule(10.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(5.0, lambda: None)


def test_cancelled_event_does_not_fire(sim):
    fired = []
    event = sim.schedule(10.0, fired.append, "x")
    event.cancel()
    sim.run()
    assert fired == []
    assert sim.events_processed == 0


def test_cancel_is_idempotent(sim):
    event = sim.schedule(10.0, lambda: None)
    event.cancel()
    event.cancel()
    sim.run()


def test_run_until_deadline_leaves_later_events_pending(sim):
    fired = []
    sim.schedule(10.0, fired.append, "early")
    sim.schedule(100.0, fired.append, "late")
    sim.run(until_ns=50.0)
    assert fired == ["early"]
    assert sim.now == 50.0
    assert sim.active_events == 1
    sim.run()
    assert fired == ["early", "late"]


def test_run_for_advances_relative(sim):
    sim.schedule(10.0, lambda: None)
    sim.run(until_ns=20.0)
    sim.schedule(15.0, lambda: None)
    sim.run_for(10.0)
    assert sim.now == 30.0
    assert sim.active_events == 1


def test_max_events_budget(sim):
    fired = []
    for i in range(10):
        sim.schedule(float(i + 1), fired.append, i)
    sim.run(max_events=3)
    assert fired == [0, 1, 2]


def test_step_returns_false_when_empty(sim):
    """A step, ``run(max_events=1)``, on an empty calendar fires nothing."""
    sim.run(max_events=1)
    assert sim.events_processed == 0 and sim.now == 0.0


def test_events_processed_counts_only_fired(sim):
    keep = sim.schedule(1.0, lambda: None)
    drop = sim.schedule(2.0, lambda: None)
    drop.cancel()
    sim.run()
    assert sim.events_processed == 1


def test_deterministic_interleaving():
    """Two identical schedules must produce identical traces."""

    def trace():
        sim = Simulator()
        out = []
        sim.schedule(5.0, out.append, "a")
        sim.schedule(5.0, lambda: sim.schedule(0.0, out.append, "nested"))
        sim.schedule(5.0, out.append, "b")
        sim.run()
        return out

    assert trace() == trace()


def test_reentrant_run_rejected(sim):
    def recurse():
        sim.run()

    sim.schedule(1.0, recurse)
    with pytest.raises(SimulationError):
        sim.run()


def test_cancelled_events_excluded_from_pending(sim):
    live = sim.schedule(5.0, lambda: None)
    doomed = [sim.schedule(1.0, lambda: None) for _ in range(10)]
    assert sim.active_events == 11
    for event in doomed:
        event.cancel()
    # Lazily-deleted entries are still in the heap, but active_events
    # does not count them.
    assert sim.active_events == 1
    live.cancel()
    assert sim.active_events == 0


def test_cancelled_head_purged_at_deadline(sim):
    """A cancelled event sitting at the deadline boundary is purged, not
    left pending forever."""
    doomed = sim.schedule(10.0, lambda: None)
    sim.schedule(20.0, lambda: None)
    doomed.cancel()
    sim.run(until_ns=15.0)
    assert sim.now == 15.0
    assert sim.active_events == 1  # only the t=20 event remains
    sim.run()
    assert sim.active_events == 0


def test_cancelled_event_beyond_deadline_not_counted(sim):
    doomed = sim.schedule(30.0, lambda: None)
    doomed.cancel()
    sim.schedule(1.0, lambda: None)
    sim.run(until_ns=5.0)
    assert sim.active_events == 0


def test_cancel_after_fire_is_harmless(sim):
    fired = []
    event = sim.schedule(1.0, fired.append, "x")
    sim.schedule(2.0, lambda: None)
    sim.run()
    assert fired == ["x"]
    event.cancel()  # late cancel of an already-fired event: no effect
    assert sim.events_processed == 2


def test_event_exposes_schedule_metadata(sim):
    def callback():
        pass

    event = sim.schedule(3.0, callback)
    assert event.time == 3.0
    assert event.seq == 0
    assert event.callback is callback
    assert event.args == ()
    assert not event.cancelled
    event.cancel()
    assert event.cancelled
    assert "cancelled" in repr(event)


def test_callback_index_error_propagates(sim):
    """The drain loop's empty-heap detection must not swallow a callback's
    own IndexError."""

    def boom():
        [].pop()

    sim.schedule(1.0, boom)
    with pytest.raises(IndexError):
        sim.run()


def test_run_with_budget_purges_cancelled_before_counting(sim):
    out = []
    for i in range(4):
        sim.schedule(1.0 + i, out.append, i)
    doomed = sim.schedule(0.5, out.append, "doomed")
    doomed.cancel()
    sim.run(max_events=2)
    assert out == [0, 1]
    assert sim.events_processed == 2


def test_nan_deadline_rejected(sim):
    # A NaN deadline compares false against every event time, so the run
    # would drain the whole heap and leave the clock at the last event.
    fired = []
    sim.schedule(10.0, fired.append, 1)
    sim.schedule(1e9, fired.append, 2)
    with pytest.raises(SimulationError):
        sim.run(until_ns=float("nan"))
    with pytest.raises(SimulationError):
        sim.run_for(float("nan"))
    assert fired == [] and sim.now == 0.0


def test_infinite_deadline_rejected(sim):
    # An infinite deadline would set ``sim.now`` to infinity, after which
    # ``schedule(1.0, ...)`` puts an event at t = inf.
    fired = []
    sim.schedule(10.0, fired.append, 1)
    with pytest.raises(SimulationError):
        sim.run(until_ns=float("inf"))
    with pytest.raises(SimulationError):
        sim.run_for(float("inf"))
    assert fired == [] and sim.now == 0.0
    sim.run()
    assert fired == [1] and sim.now == 10.0


def test_negative_event_budget_rejected(sim):
    # A negative budget would return having fired nothing, silently.
    fired = []
    sim.schedule(10.0, fired.append, 1)
    with pytest.raises(SimulationError):
        sim.run(max_events=-1)
    assert fired == [] and sim.now == 0.0 and sim.active_events == 1


def test_past_deadline_is_a_no_op(sim):
    fired = []
    sim.schedule(10.0, fired.append, 1)
    sim.schedule(20.0, fired.append, 2)
    sim.run(until_ns=10.0)
    sim.run(until_ns=5.0)
    sim.run(until_ns=float("-inf"))
    assert fired == [1] and sim.now == 10.0 and sim.active_events == 1
    assert sim.events_processed == 1


def test_infinite_times_rejected(sim):
    # An event at +inf would become ``sim.now`` once the heap drained to it.
    inf = float("inf")
    with pytest.raises(SimulationError):
        sim.post(inf, lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule(inf, lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule_at(inf, lambda: None)
    sim.run()
    assert sim.now == 0.0 and sim.events_processed == 0


def test_step_inside_a_callback_rejected(sim):
    fired = []

    def peek_ahead():
        sim.run(max_events=1)

    sim.schedule(1.0, peek_ahead)
    sim.schedule(5.0, fired.append, "later")
    with pytest.raises(SimulationError):
        sim.run()
    assert fired == [] and sim.now == 1.0


# -- post: fire-and-forget entries ----------------------------------------------


def test_post_orders_with_scheduled_events(sim):
    out = []
    sim.schedule(5.0, out.append, "sched-1")
    sim.post(5.0, out.append, "post")
    sim.schedule(5.0, out.append, "sched-2")
    sim.post(5.0, lambda: out.append("post-noargs"))
    sim.run()
    assert out == ["sched-1", "post", "sched-2", "post-noargs"]


def test_posted_events_count_as_active(sim):
    sim.post(5.0, lambda: None)
    sim.post(5.0, lambda _arg: None, "arg")
    assert sim.active_events == 2
    sim.run()
    assert sim.active_events == 0
    assert sim.events_processed == 2


def test_post_negative_delay_rejected(sim):
    # An infinite one is rejected in test_infinite_times_rejected.
    with pytest.raises(SimulationError):
        sim.post(-1.0, lambda: None)
    with pytest.raises(SimulationError):
        sim.post(float("nan"), lambda: None)
    assert sim.active_events == 0


def test_zero_delay_post_fires_after_the_events_already_due(sim):
    out = []

    def first():
        out.append("first")
        sim.post(0.0, out.append, "reposted")

    sim.post(5.0, first)
    sim.post(5.0, out.append, "second")
    sim.run()
    assert out == ["first", "second", "reposted"]


def test_step_fires_one_posted_event_at_a_time(sim):
    """One step is a one-event run, ``run(max_events=1)``."""
    out = []
    for n in range(3):
        sim.post(5.0, out.append, n)
    sim.run(max_events=1)
    assert out == [0]
    assert sim.active_events == 2
    while sim.active_events:
        sim.run(max_events=1)
    assert out == [0, 1, 2] and sim.events_processed == 3
    sim.run(max_events=1)
    assert sim.events_processed == 3


def _prime(sim, seed):
    """Thirty posts that re-post at random; returns the (time, tag) log."""
    rng = random.Random(seed)
    out = []

    def fire(tag):
        out.append((sim.now, tag))
        if rng.random() < 0.4:
            sim.post(rng.choice([0.0, 1.5, 3.0]), fire, tag + "'")

    for n in range(30):
        sim.post(rng.choice([0.0, 1.0, 4.0]), fire, str(n))
    return out


@pytest.mark.parametrize("seed", [3, 99])
def test_deadline_sliced_run_matches_a_straight_run(seed):
    sliced = Simulator()
    sliced_log = _prime(sliced, seed)
    while sliced.active_events:
        sliced.run(until_ns=sliced.now + 2.0)
    straight = Simulator()
    straight_log = _prime(straight, seed)
    straight.run()
    assert sliced_log == straight_log
    assert len(straight_log) > 30
    assert sliced.events_processed == straight.events_processed


@pytest.mark.parametrize("drive", ["run", "deadline", "step"])
def test_the_clock_is_each_entrys_time_inside_its_callback(drive):
    """``sim.now`` is a plain slot that the kernel writes as an entry fires:
    inside a callback fired through ``post``, ``push``, ``schedule_at`` or
    the far tier it reads that entry's time, in either drain loop and one
    event at a time (``step``: ``run(max_events=1)``); after ``run(until_ns=...)`` it reads the deadline."""
    sim = Simulator()
    seen = []

    def note(kind, time_ns):
        seen.append((kind, time_ns, sim.now))
        if kind == "post":  # one posted from inside a callback, at now + delay
            sim.post(2.5, note, "nested", time_ns + 2.5)

    far_ns = 3 * Simulator._FAR_NS
    sim.post(10.0, note, "post", 10.0)
    seq = sim._seq  # a seq taken ahead, as a frame's start takes one
    sim._seq = seq + 1
    sim.push(25.5, seq, note, ("push", 25.5))
    sim.schedule_at(40.0, note, "schedule_at", 40.0)
    sim.schedule(far_ns, note, "far", far_ns)
    assert len(sim._far) == 1  # the last one waits in the far tier
    if drive == "run":
        sim.run()
    elif drive == "deadline":
        sim.run(until_ns=30.0)
        assert sim.now == 30.0  # between two entries
        sim.run(until_ns=far_ns + 100.0)
        assert sim.now == far_ns + 100.0  # past the last one
    else:
        while sim.active_events:
            sim.run(max_events=1)
    assert [kind for kind, _, _ in seen] == ["post", "nested", "push", "schedule_at", "far"]
    assert all(now == time_ns for _, time_ns, now in seen), seen
