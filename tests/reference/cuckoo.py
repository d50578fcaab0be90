"""The cuckoo directory and choice filter before the install path was
budgeted (PR 20)."""

from __future__ import annotations

import random
import struct
from array import array
from collections import deque

from repro.cuckoo.layout import CuckooFullError, Move, SlotRef, T0, T1
from repro.switches.hashing import crc32


class ReferenceChoiceFilter:
    """Generator-based probes, one ``struct.pack`` + concatenation each."""

    def __init__(self, cells, hashes=2, seed=0):
        self.cells, self.hashes, self.seed = cells, hashes, seed
        self._cells = array("H", bytes(2 * cells))

    def indices(self, key):
        pivots = (probe % len(key) if key else 0 for probe in range(self.hashes))
        return tuple(
            crc32(struct.pack("!II", self.seed, probe) + key[pivot:] + key[:pivot])
            % self.cells
            for probe, pivot in enumerate(pivots)
        )

    def add(self, key):
        flipped = []
        for cell in self.indices(key):
            value = self._cells[cell]
            if value == 0:
                flipped.append(cell)
            if value < 0xFFFF:
                self._cells[cell] = value + 1
        return flipped

    def remove(self, key):
        for cell in self.indices(key):
            value = self._cells[cell]
            if value == 0:
                raise ValueError("choice filter underflow")
            if value < 0xFFFF:
                self._cells[cell] = value - 1

    def query(self, key):
        return all(self._cells[cell] for cell in self.indices(key))

    def cell_value(self, cell):
        return self._cells[cell]


class ReferenceDirectory:
    """``SlotRef``-keyed occupancy dict, set-valued T0 index, the key packed
    and hashed afresh at every step, ``getstate()`` on every insert."""

    def __init__(self, config, packer):
        self.config, self.packer = config, packer
        self.filter = ReferenceChoiceFilter(
            config.filter_cells, config.cbf_hashes, config.derived_seed("cuckoo-filter")
        )
        self.seed0 = config.derived_seed("cuckoo-h0")
        self.seed1 = config.derived_seed("cuckoo-h1")
        self._rng = random.Random(config.derived_seed("cuckoo-victim"))
        self.location, self._slot_key, self._t0_cells = {}, {}, {}
        self.kick_log = []
        self.kicks = self.relocations = self.failed_inserts = 0

    def h0(self, kb):
        return crc32(struct.pack("!I", self.seed0 & 0xFFFFFFFF) + kb) % self.config.pairs

    def h1(self, kb):
        return (
            crc32(struct.pack("!I", self.seed1 & 0xFFFFFFFF) + kb[::-1])
            % self.config.pairs
        )

    def read_index(self, kb):
        return self.h1(kb) if self.filter.query(kb) else self.h0(kb)

    def slot_key(self, ref):
        return self._slot_key.get(ref)

    def check_invariant(self):
        return [
            key
            for key, ref in self.location.items()
            if self.filter.query(self.packer(key)) != (ref.table == T1)
        ]

    def _register_t0(self, key, kb):
        for cell in self.filter.indices(kb):
            self._t0_cells.setdefault(cell, set()).add(key)

    def _unregister_t0(self, key, kb):
        for cell in self.filter.indices(kb):
            residents = self._t0_cells.get(cell)
            if residents is not None:
                residents.discard(key)

    def _set_slot(self, key, ref, journal):
        journal.append(("set", key, ref, self.location.get(key)))
        self._slot_key[ref] = key
        self.location[key] = ref
        if ref.table == T0:
            self._register_t0(key, self.packer(key))

    def _clear_slot(self, key, ref, journal):
        journal.append(("clear", key, ref))
        del self._slot_key[ref]
        if ref.table == T0:
            self._unregister_t0(key, self.packer(key))

    def _filter_add(self, kb, journal):
        journal.append(("fadd", kb))
        return self.filter.add(kb)

    def _filter_remove(self, kb, journal):
        journal.append(("fremove", kb))
        self.filter.remove(kb)

    def _rollback(self, journal):
        for op in reversed(journal):
            kind = op[0]
            if kind == "set":
                _, key, ref, prev = op
                if self._slot_key.get(ref) is key:
                    del self._slot_key[ref]
                if ref.table == T0:
                    self._unregister_t0(key, self.packer(key))
                if prev is None:
                    self.location.pop(key, None)
                else:
                    self.location[key] = prev
            elif kind == "clear":
                _, key, ref = op
                self._slot_key[ref] = key
                if ref.table == T0:
                    self._register_t0(key, self.packer(key))
            elif kind == "fadd":
                self.filter.remove(op[1])
            elif kind == "fremove":
                self.filter.add(op[1])

    def insert(self, key):
        if key in self.location:
            return []
        if len(self.location) >= self.config.capacity:
            self.failed_inserts += 1
            raise CuckooFullError("cuckoo table full")
        journal, moves = [], []
        log_mark = len(self.kick_log)
        rng_state = self._rng.getstate()
        counters = (self.kicks, self.relocations)
        pending = deque([(key, None)])
        kicks_left = self.config.max_kicks
        try:
            while pending:
                if len(moves) > self.config.max_relocations:
                    raise CuckooFullError("exceeded max_relocations")
                k, src = pending.popleft()
                kicks_left = self._place(k, src, moves, pending, journal, kicks_left)
        except CuckooFullError:
            self._rollback(journal)
            del self.kick_log[log_mark:]
            self._rng.setstate(rng_state)
            self.kicks, self.relocations = counters
            self.failed_inserts += 1
            raise
        return moves

    def _place(self, key, src, moves, pending, journal, kicks_left):
        kb = self.packer(key)
        h0, h1 = self.h0(kb), self.h1(kb)
        if not self.filter.query(kb):
            slot = self._free_slot(T0, h0)
            if slot is not None:
                ref = SlotRef(T0, h0, slot)
                self._set_slot(key, ref, journal)
                moves.append(Move(key, src, ref))
                return kicks_left
        slot = self._free_slot(T1, h1)
        if slot is not None:
            ref = SlotRef(T1, h1, slot)
            self._set_slot(key, ref, journal)
            flipped = self._filter_add(kb, journal)
            moves.append(Move(key, src, ref))
            self._cascade(flipped, pending, journal)
            return kicks_left
        if kicks_left <= 0:
            raise CuckooFullError("exceeded max_kicks")
        self.kicks += 1
        if not self.filter.query(kb):
            victim_slot = self._rng.randrange(self.config.slots_per_bucket)
            ref = SlotRef(T0, h0, victim_slot)
            victim = self._slot_key[ref]
            self.kick_log.append(("kick", victim, ref))
            self._clear_slot(victim, ref, journal)
            self._set_slot(key, ref, journal)
            moves.append(Move(key, src, ref))
            pending.append((victim, ref))
            return kicks_left - 1
        escapable = [
            slot
            for slot in range(self.config.slots_per_bucket)
            if self._can_escape_to_t0(self._slot_key[SlotRef(T1, h1, slot)])
        ]
        if escapable:
            victim_slot = escapable[self._rng.randrange(len(escapable))]
        else:
            victim_slot = self._rng.randrange(self.config.slots_per_bucket)
        ref = SlotRef(T1, h1, victim_slot)
        victim = self._slot_key[ref]
        self.kick_log.append(("kick", victim, ref))
        self._clear_slot(victim, ref, journal)
        self._filter_remove(self.packer(victim), journal)
        self._set_slot(key, ref, journal)
        flipped = self._filter_add(kb, journal)
        moves.append(Move(key, src, ref))
        self._cascade(flipped, pending, journal)
        pending.append((victim, ref))
        return kicks_left - 1

    def _can_escape_to_t0(self, key):
        kb = self.packer(key)
        cells = {}
        for cell in self.filter.indices(kb):
            cells[cell] = cells.get(cell, 0) + 1
        if all(self.filter.cell_value(c) - n > 0 for c, n in cells.items()):
            return False
        return self._free_slot(T0, self.h0(kb)) is not None

    def _cascade(self, flipped_cells, pending, journal):
        if not flipped_cells:
            return
        suspects = set()
        for cell in flipped_cells:
            suspects |= self._t0_cells.get(cell, set())
        for suspect in sorted(suspects, key=self.packer):
            ref = self.location.get(suspect)
            if ref is None or ref.table != T0:
                continue
            if not self.filter.query(self.packer(suspect)):
                continue
            self.relocations += 1
            self.kick_log.append(("relocate", suspect, ref))
            self._clear_slot(suspect, ref, journal)
            pending.append((suspect, ref))

    def _free_slot(self, table, index):
        for slot in range(self.config.slots_per_bucket):
            if SlotRef(table, index, slot) not in self._slot_key:
                return slot
        return None

    def remove(self, key):
        ref = self.location.pop(key, None)
        if ref is None:
            return None
        del self._slot_key[ref]
        kb = self.packer(key)
        if ref.table == T0:
            self._unregister_t0(key, kb)
        else:
            self.filter.remove(kb)
        return ref
