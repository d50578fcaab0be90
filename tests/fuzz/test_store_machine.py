"""A state machine over one reliable ``RemoteStateStore``: pre-scheduled
update bursts and link faults on the server link, run to quiescence.

One testbed, one memory server, ICRC drawn on or off.  Each update burst
is scheduled through ``sim.schedule`` before the run, so it waits in the
kernel's far tier, as a workload's backlog does.  A fault step is a window
on the server link (loss, duplication, reordering, a blackout, and bit
corruption only with ICRC on, where the receivers can detect it); the
round's windows go into one :class:`FaultPlan`, installed when the round
runs.  Quiescence is ``flush_all`` and ``sim.run()`` until nothing is
outstanding or accumulated.

The model is a dict ledger counter → updates scheduled.  At every
quiescence:

* every counter read through the control plane equals the ledger, so no
  Fetch-and-Add was lost or applied twice;
* nothing raised out of ``sim.run()`` and the round left no cyclic garbage;
* the round sent at most one Fetch-and-Add per operation issued plus
  ``WINDOW`` per loss event (a fresh NAK's go-back-N; the requester's
  ``strikes``) and per fruitless timer round (at most the whole window
  re-sent; its ``timeouts``): the NAK burst one lost request draws re-sends
  nothing more;
* the round ended within :data:`RECOVERY_NS` of its last update or fault
  window: a lost tail is re-sent whole by the timer round that reports it,
  not one operation per round.

After the last step, the drawn schedule replayed on a fresh testbed must
leave the same registry snapshot.
"""

from __future__ import annotations

import gc

from hypothesis import currently_in_test_context, event, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

from repro.api import (
    Blackout,
    CountingProgram,
    Corrupt,
    FaultPlan,
    IidLoss,
    RemoteStateStore,
    StateStoreConfig,
    build_testbed,
    integrity_protected,
)
from repro.core.rocegen import RETRY_BACKOFF_CAP
from repro.faults.models import Duplicate, Reorder
from repro.rdma.constants import ATOMIC_OPERAND_BYTES

from ..conftest import examples

COUNTERS = 32
WINDOW = 16
RETRY_NS = 30_000.0
#: Longest a round may run past its last update or fault window: 140 µs.
#: A tail the fault swallowed draws no NAK (no later request follows it),
#: so the retry timer re-sends it.  The timer's rounds come one period
#: apart.  The round that re-sends a stuck window comes at most
#: ``RETRY_BACKOFF_CAP`` rounds past the horizon (the wait may have just
#: doubled), or two when the first finds progress and the wait drops back
#: to one; the next round finds the window empty and the timer stops:
#: max(CAP, 2) + 1 periods.  50 µs covers the round trips and NAK-driven
#: go-back-Ns settling.  A timer that re-sent only the stalled head would
#: spend a round per further operation of the tail, and overruns this.
RECOVERY_NS = (max(RETRY_BACKOFF_CAP, 2) + 1) * RETRY_NS + 50_000.0

#: Each fault model by name, built from the drawn probability.
_FAULTS = {
    "loss": IidLoss,
    "duplicate": Duplicate,
    "reorder": Reorder,
    "blackout": lambda probability: Blackout(),
    "corrupt": Corrupt,
}
#: Registry counters whose being non-zero says what a round exercised.
_EFFECTS = ("naks_received", "retransmissions", "duplicates")


class World:
    """The testbed a drawn schedule plays against; two worlds fed the same
    steps end in the same state."""

    def __init__(self, icrc: bool, seed: int) -> None:
        self.icrc = icrc
        self.tb = tb = build_testbed(n_hosts=2, seed=seed)
        program = tb.bind(CountingProgram())
        config = StateStoreConfig(
            counters=COUNTERS, max_outstanding=WINDOW, reliable=True, retry_timeout_ns=RETRY_NS
        )
        channel = tb.controller.open_channel(
            tb.memory_server, tb.server_port, COUNTERS * ATOMIC_OPERAND_BYTES
        )
        self.store = RemoteStateStore(tb.switch, channel, config=config)
        program.use_state_store(self.store)
        self.seed = seed
        self.rounds = 0
        self.plan = None
        self.horizon = 0.0  # the round's last update or fault window end

    def apply(self, step) -> None:
        kind, sim = step[0], self.tb.sim
        if kind == "burst":
            _, start_ns, gap_ns, indices = step
            for n, index in enumerate(indices):
                sim.schedule(start_ns + n * gap_ns, self.store.update, index, 1)
            self.horizon = max(self.horizon, sim.now + start_ns + len(indices) * gap_ns)
        elif kind == "fault":
            _, name, start_ns, duration_ns, probability = step
            if self.plan is None:
                self.plan = FaultPlan(seed=self.seed + self.rounds)
            wire = self.plan.on_link(self.tb.server_link, name="server-link")
            self.plan.at(sim.now + start_ns, wire, _FAULTS[name](probability), duration_ns)
            self.horizon = max(self.horizon, sim.now + start_ns + duration_ns)
        else:
            self.quiesce()

    def sent(self):
        """(Fetch-and-Adds sent, operations issued, loss events, timer rounds)."""
        roce, ops = self.store.rocegen.metrics, self.store.metrics
        return (roce["fetch_adds_issued"], ops["operations_issued"], roce["strikes"], roce["timeouts"])

    def quiesce(self) -> None:
        sim, store = self.tb.sim, self.store
        before = self.sent()
        with integrity_protected(self.icrc):
            if self.plan is not None:
                self.plan.install(sim)
            for _ in range(8):
                store.flush_all()
                sim.run()
                if not store.outstanding and not store._accumulators:
                    break
            else:
                raise AssertionError("the store never drained")
        self.rounds += 1
        self.plan = None
        self.round = [after - start for start, after in zip(before, self.sent())]

    def counters(self):
        return [self.store.read_counter_via_control_plane(index) for index in range(COUNTERS)]


#: A burst: its first update 6 µs or more ahead (so in the far tier), a gap
#: between updates, and the counters it adds one to.
_BURST = dict(
    start_ns=st.floats(6_000.0, 100_000.0),
    gap_ns=st.sampled_from([50.0, 400.0, 2_000.0]),
    indices=st.lists(st.integers(0, COUNTERS - 1), min_size=1, max_size=32),
)
#: A fault window on the server link, over the bursts' span.
_FAULT = dict(
    name=st.sampled_from(sorted(_FAULTS)),
    fault_start_ns=st.floats(0.0, 100_000.0),
    duration_ns=st.floats(1_000.0, 100_000.0),
    probability=st.sampled_from([0.1, 0.3, 0.5]),
)


class StoreMachine(RuleBasedStateMachine):
    # Every example opens with a burst under a fault window, so that each
    # one puts faults on the wire whichever rules it then draws.
    @initialize(
        icrc=st.booleans(),
        seed=st.integers(0, 2**16),
        burst=st.fixed_dictionaries(_BURST),
        fault=st.fixed_dictionaries(_FAULT),
    )
    def build(self, icrc, seed, burst, fault):
        self.world = World(icrc, seed)
        self.steps = []
        self.ledger = [0] * COUNTERS
        self.settled = True  # nothing scheduled since the last quiescence
        self.burst(**burst)
        self.fault(**fault)

    def _apply(self, step) -> None:
        self.steps.append(step)
        self.world.apply(step)

    @rule(**_BURST)
    def burst(self, start_ns, gap_ns, indices):
        self._apply(("burst", start_ns, gap_ns, tuple(indices)))
        for index in indices:
            self.ledger[index] += 1
        self.settled = False

    @rule(**_FAULT)
    def fault(self, name, fault_start_ns, duration_ns, probability):
        if name == "corrupt" and not self.world.icrc:
            return  # undetectable without ICRC: it would change the counts
        self._apply(("fault", name, fault_start_ns, duration_ns, probability))
        self.settled = False

    @rule()
    def quiesce(self):
        horizon = self.world.horizon
        gc.collect()
        gc.disable()
        try:
            self._apply(("quiesce",))
            garbage = gc.collect()
        finally:
            gc.enable()
        assert garbage == 0, f"the round left {garbage} objects of cyclic garbage"
        self.settled = True
        if currently_in_test_context():  # what the runs exercised, for the statistics
            for name, value in self.world.tb.sim.obs.registry.snapshot().items():
                effect = name.rsplit(".", 1)[1]
                if value and (name.startswith("faults.") or effect in _EFFECTS):
                    event(effect)
        assert self.world.counters() == self.ledger, "an update was lost or applied twice"
        fetch_adds, issued, losses, rounds = self.world.round
        assert fetch_adds <= issued + WINDOW * (losses + rounds), (
            f"{fetch_adds} Fetch-and-Adds for {issued} operations, "
            f"{losses} loss events and {rounds} timer rounds"
        )
        late = self.world.tb.sim.now - horizon
        assert late <= RECOVERY_NS, f"the round ran {late:.0f} ns past its last step"

    def teardown(self):
        if not hasattr(self, "world"):
            return
        if not self.settled:
            self.quiesce()
        replay = World(self.world.icrc, self.world.seed)
        for step in self.steps:
            replay.apply(step)
        registry = self.world.tb.sim.obs.registry
        assert replay.tb.sim.obs.registry.snapshot() == registry.snapshot()


TestStoreMachine = StoreMachine.TestCase
TestStoreMachine.settings = settings(
    max_examples=examples(15), stateful_step_count=12, deadline=None
)


def test_a_reorder_after_a_blackout_loses_no_update():
    """A blackout round then a reorder window on the server link: a response
    reordered behind a later one must not move the acknowledged PSN back,
    or a delayed sequence-error NAK naming an executed PSN passes as fresh,
    the resync rewinds the switch QP onto it and the RNIC answers the next
    Fetch-and-Add from its replay cache unapplied.  Kept in tier-1, which
    draws this schedule in only some runs."""
    machine = StoreMachine()
    machine.build(
        icrc=False,
        seed=31624,
        burst={"start_ns": 68326.55486669924, "indices": [0] * 6, "gap_ns": 50.0},
        fault={
            "name": "blackout",
            "duration_ns": 62394.44097697245,
            "fault_start_ns": 35784.52166750437,
            "probability": 0.1,
        },
    )
    machine.burst(gap_ns=50.0, indices=[0] * 6, start_ns=100000.0)
    machine.fault(duration_ns=50000.0, fault_start_ns=57713.0, name="reorder", probability=0.5)
    machine.quiesce()
    machine.burst(gap_ns=50.0, indices=[0], start_ns=6000.0)
    machine.quiesce()
    machine.teardown()
