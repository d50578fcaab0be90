"""The exact-match table.

This models the SRAM tables of a programmable switch, including the
crucial property the paper is about: **bounded capacity**.  Inserting past
``capacity`` raises :class:`TableFullError`, which is what forces real
deployments onto CPU slow paths — and what the remote lookup-table
primitive eliminates.

A table maps a key to an :class:`ActionEntry` (an action name plus
parameters).  The pipeline program interprets the action; tables stay pure
data structures with hit/miss accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, Optional


class TableFullError(Exception):
    """The table has no free SRAM entries left."""


@dataclass
class ActionEntry:
    """An action name plus its parameters, as installed by the control plane."""

    action: str
    params: Dict[str, Any] = field(default_factory=dict)


@dataclass
class TableStats:
    hits: int = 0
    misses: int = 0
    inserts: int = 0
    deletes: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.lookups
        return self.hits / total if total else 0.0


class ExactMatchTable:
    """An exact-match table with bounded capacity (SRAM-backed)."""

    def __init__(self, name: str, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"table capacity must be positive: {capacity}")
        self.name = name
        self.capacity = capacity
        self.default_action: Optional[ActionEntry] = None
        self.stats = TableStats()
        self._entries: Dict[Hashable, ActionEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def is_full(self) -> bool:
        return len(self._entries) >= self.capacity

    def insert(self, key: Hashable, entry: ActionEntry) -> None:
        """Install *entry* under *key*; updating an existing key is free."""
        if key not in self._entries and self.is_full:
            raise TableFullError(
                f"table {self.name!r} full ({self.capacity} entries)"
            )
        self._entries[key] = entry
        self.stats.inserts += 1

    def delete(self, key: Hashable) -> bool:
        if key in self._entries:
            del self._entries[key]
            self.stats.deletes += 1
            return True
        return False

    def lookup(self, key: Hashable) -> Optional[ActionEntry]:
        """Match *key*: the entry on hit, else the default action (or None)."""
        entry = self._entries.get(key)
        if entry is not None:
            self.stats.hits += 1
            return entry
        self.stats.misses += 1
        return self.default_action

    def contains(self, key: Hashable) -> bool:
        return key in self._entries

    def peek(self, key: Hashable) -> Optional[ActionEntry]:
        """The entry under *key*, or ``None``: no hit/miss accounting."""
        return self._entries.get(key)

    def evict_oldest(self) -> Optional[Hashable]:
        """Remove and return the oldest-inserted key (FIFO eviction)."""
        if not self._entries:
            return None
        key = next(iter(self._entries))
        del self._entries[key]
        self.stats.deletes += 1
        return key

    def clear(self) -> None:
        self._entries.clear()

    def __repr__(self) -> str:
        return f"<ExactMatchTable {self.name} {len(self)}/{self.capacity}>"
