"""A state machine over one cuckoo ``RemoteLookupTable``: install, re-install
and overload it at geometries small enough to kick, cascade and fail.

The model is a dict flow → action.  After every install:

* ``directory.check_invariant()`` is empty (EMOMA invariant, slot/location
  bijection, the T0 index);
* ``remote_slots_agree(table)`` is empty (no stale or missing remote slot);

and after every step, also: every installed flow sits in the pair
``dataplane.read_index`` names (EMOMA's one READ), and resolving that one
pair as the data plane does yields the model's action.

An install the table refuses (``CuckooFullError``) must leave the directory
and the remote bytes exactly as they were.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import currently_in_test_context, event, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.api import (
    ACTION_SET_DSCP,
    FiveTuple,
    LookupTableConfig,
    RemoteAction,
    RemoteLookupTable,
    build_testbed,
)
from repro.core.lookup_table import fingerprint_of
from repro.cuckoo.layout import CuckooDirectory, CuckooFullError

from ..conftest import examples
from ..test_install_path import remote_slots_agree

_ACTIONS = st.integers(0, 63).map(lambda dscp: RemoteAction(ACTION_SET_DSCP, dscp))


def _flow(n: int) -> FiveTuple:
    return FiveTuple(0x0A000001, 0x0A000002, 17, 1024 + n % 60_000, 2_000 + n // 60_000)


def _tally(what: str) -> None:
    """Count *what* in ``--hypothesis-show-statistics`` (a replayed case runs
    outside Hypothesis, where there is nothing to count it in)."""
    if currently_in_test_context():
        event(what)


class DirectoryMachine(RuleBasedStateMachine):
    @initialize(
        pairs=st.integers(4, 16),
        slots=st.integers(1, 4),
        cells_per_slot=st.sampled_from([1, 2]),
        hashes=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        max_kicks=st.sampled_from([8, 64]),
    )
    def build(self, pairs, slots, cells_per_slot, hashes, seed, max_kicks):
        tb = build_testbed(n_hosts=2, seed=1)
        config = LookupTableConfig(
            entries=2 * pairs * slots, slots_per_bucket=slots, packet_slot_bytes=64,
            cache_entries=0, layout="cuckoo", hash_seed=seed, max_kicks=max_kicks,
        )
        channel = tb.controller.open_channel(tb.memory_server, tb.server_port, config.region_bytes)
        table = RemoteLookupTable(tb.switch, channel, config=config)
        # A filter of one or two cells per slot, not the default four: more
        # false positives, so more relocation cascades (a slot an insert
        # writes and a cascade then vacates comes up in ~5 % of fills).
        directory = table.directory
        table.directory = CuckooDirectory(
            replace(directory.config, cbf_cells=cells_per_slot * config.entries, cbf_hashes=hashes),
            packer=directory.packer,
        )
        table.dataplane = table.directory.dataplane
        self.table = table
        self.model = {}
        self.fresh = 0  # flows 0 .. fresh - 1 have been offered
        self.refused = False  # then only re-installs: a refused insert is costly

    def _state(self):
        """Everything a refused install must leave untouched."""
        table, directory = self.table, self.table.directory
        region = table.channel.region
        return (
            list(directory.location.items()), list(directory._slots),
            {cell: set(slots) for cell, slots in directory._t0_listed().items()},
            [directory.filter.cell_value(cell) for cell in range(directory.filter.cells)],
            list(directory.kick_log), directory.kicks, directory.relocations,
            directory._rng.getstate(),
            region.read(table.entry_address(0), table.config.region_bytes),
        )

    def _install(self, flow, action) -> bool:
        directory = self.table.directory
        before = self._state()
        kicks, relocations = directory.kicks, directory.relocations
        try:
            self.table.install(flow, action)
        except CuckooFullError:
            assert flow not in self.model, "a re-install never fails"
            assert self._state() == before, "the refused install left a trace"
            _tally("refused")
            self.refused = True
            return False
        self.model[flow] = action
        if directory.kicks > kicks:
            _tally("kicked")
        if directory.relocations > relocations:
            _tally("cascaded")
        return True

    def _fill(self, count: int, action) -> bool:
        """Install up to *count* fresh flows; False once the table refuses
        one.  Checked after each: a later install may rewrite a slot an
        earlier one left stale."""
        if self.refused:
            return False
        for _ in range(count):
            self.fresh += 1
            if not self._install(_flow(self.fresh - 1), action):
                return False
            self.directory_is_consistent()
            self.remote_bytes_match_the_directory()
        return True

    @rule(count=st.integers(1, 32), action=_ACTIONS)
    def install_new(self, count, action):
        self._fill(count, action)

    @rule(which=st.integers(min_value=0), action=_ACTIONS)
    def reinstall(self, which, action):
        if self.model:
            flow = list(self.model)[which % len(self.model)]
            assert self._install(flow, action)

    @rule(action=_ACTIONS)
    def overload(self, action):
        """Install fresh flows until the table refuses one."""
        assert not self._fill(2 * self.table.config.entries + 1, action), (
            "a table took more flows than it has slots"
        )

    @invariant()
    def directory_is_consistent(self):
        assert self.table.directory.check_invariant() == []

    @invariant()
    def remote_bytes_match_the_directory(self):
        assert remote_slots_agree(self.table) == []

    @invariant()
    def one_read_finds_the_models_action(self):
        table, directory = self.table, self.table.directory
        assert directory.location.keys() == self.model.keys()
        region, pair_bytes = table.channel.region, table.config.bucket_pair_bytes
        for flow, action in self.model.items():
            index = directory.dataplane.read_index(flow.pack())
            assert directory.slot_ref(directory.location[flow]).index == index
            pair = region.read(table.entry_address(index), pair_bytes)
            assert table._resolve_entry(pair, None, fingerprint_of(flow)) == action


TestDirectoryMachine = DirectoryMachine.TestCase
TestDirectoryMachine.settings = settings(
    max_examples=examples(60), stateful_step_count=20, deadline=None
)


def test_the_shrunk_stale_slot_case_replays():
    """What the long lane shrank the stale remote slot to (an insert's kick
    chain writes a T0 slot that its own cascade then vacates, and the
    table must zero it): kept in tier-1, which reaches that case in only
    some runs."""
    machine = DirectoryMachine()
    machine.build(pairs=12, slots=4, cells_per_slot=1, hashes=1, seed=74, max_kicks=64)
    machine.overload(RemoteAction(ACTION_SET_DSCP, 0))
    machine.one_read_finds_the_models_action()
    machine.teardown()
