"""Tests for the exact-match table."""

import pytest

from repro.switches.tables import ActionEntry, ExactMatchTable, TableFullError


class TestExactMatch:
    def test_insert_lookup(self):
        table = ExactMatchTable("t", capacity=4)
        table.insert("key", ActionEntry("fwd", {"port": 3}))
        entry = table.lookup("key")
        assert entry.action == "fwd"
        assert entry.params["port"] == 3

    def test_miss_returns_default(self):
        table = ExactMatchTable("t", capacity=4)
        table.default_action = ActionEntry("to_cpu")
        assert table.lookup("absent").action == "to_cpu"

    def test_miss_without_default_is_none(self):
        table = ExactMatchTable("t", capacity=4)
        assert table.lookup("absent") is None

    def test_capacity_enforced(self):
        table = ExactMatchTable("t", capacity=2)
        table.insert(1, ActionEntry("a"))
        table.insert(2, ActionEntry("b"))
        with pytest.raises(TableFullError):
            table.insert(3, ActionEntry("c"))

    def test_update_existing_when_full_allowed(self):
        table = ExactMatchTable("t", capacity=1)
        table.insert(1, ActionEntry("a"))
        table.insert(1, ActionEntry("b"))  # update, not a new entry
        assert table.lookup(1).action == "b"

    def test_delete(self):
        table = ExactMatchTable("t", capacity=2)
        table.insert(1, ActionEntry("a"))
        assert table.delete(1)
        assert not table.delete(1)
        assert table.lookup(1) is None

    def test_stats(self):
        table = ExactMatchTable("t", capacity=4)
        table.insert(1, ActionEntry("a"))
        table.lookup(1)
        table.lookup(2)
        assert table.stats.hits == 1
        assert table.stats.misses == 1
        assert table.stats.hit_rate == 0.5

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            ExactMatchTable("t", capacity=0)
