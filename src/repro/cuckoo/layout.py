"""Cuckoo bucket-pair layout: control-plane directory + data-plane view.

The remote table becomes two logical subtables T0 and T1, each with
``pairs`` buckets of ``slots_per_bucket`` action slots.  The two buckets
with the same index are stored **adjacent** in server memory (a *bucket
pair*), so one RDMA READ starting at the pair's base address covers all
``2 x slots_per_bucket`` candidate slots::

    pair i:  [ T0 bucket i | T1 bucket i | packet slot ]

A key hashes to pair ``h0(key)`` (its T0 home) and pair ``h1(key)`` (its
T1 home).  The data plane picks which pair to READ with the on-chip
:class:`~repro.cuckoo.filter.ChoiceFilter`: query negative → pair
``h0``, positive → pair ``h1``.  Because the control plane maintains the
EMOMA invariant — T1 residents are always in the filter, T0 residents
always query negative — the single READ deterministically lands on the
bucket pair holding the key, whatever collisions occurred at insert
time.  There is no bounce-retry path.

The control plane (:class:`CuckooDirectory`) owns placement: a seeded,
deterministic cuckoo insert with bounded kicks, plus the relocation
cascade that repairs the invariant when a filter add flips an unrelated
T0 resident positive.  Every slot change is reported as a
:class:`Move` so the owning table can mirror it into server memory.
Failed inserts are rolled back and raise :class:`CuckooFullError`
instead of looping.
"""

from __future__ import annotations

import random
import struct
from array import array
from collections import deque
from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple
from zlib import crc32

from .filter import ChoiceFilter

#: Subtable identifiers.
T0 = 0
T1 = 1

#: T0-column word flag: the cell has more T0 residents than the one the
#: word names (its flat slot + 1 in the low bits; zero is none), and the
#: overflow map holds the others.
_MORE = 0x80000000


class CuckooFullError(RuntimeError):
    """Raised when an insert exhausts its kick/relocation budget.

    The directory is rolled back to its pre-insert state first, so the
    table stays consistent and the caller can shed the flow (or grow the
    table) instead of spinning.
    """


class SlotRef(NamedTuple):
    """One action slot: ``(subtable, pair index, slot within bucket)``."""

    table: int
    index: int
    slot: int


class Move(NamedTuple):
    """A placement the remote table must mirror: write *key* at *dst*.

    ``src`` is the slot the key vacated (``None`` for a fresh insert).
    Moves from one :meth:`CuckooDirectory.insert` call apply atomically
    between packets — the simulator's control-plane writes do not
    interleave with data-plane reads, mirroring how a real control plane
    quiesces a pair before rewriting it.
    """

    key: Any
    src: Optional[SlotRef]
    dst: SlotRef


@dataclass
class CuckooConfig:
    """Geometry and determinism knobs for one cuckoo directory."""

    #: Bucket pairs per subtable (total slots = pairs * 2 * slots_per_bucket).
    pairs: int = 1 << 10
    slots_per_bucket: int = 4
    #: Master seed: bucket-hash seeds, filter probes, and victim choice
    #: all derive from it, so layout is a pure function of (seed, inserts).
    seed: int = 0
    #: Kick chain length bound for one insert.
    max_kicks: int = 64
    #: Total placements (kicks + invariant relocations) bound per insert.
    max_relocations: int = 256
    #: Choice-filter cells (0 → four cells per slot).
    cbf_cells: int = 0
    cbf_hashes: int = 2

    def __post_init__(self) -> None:
        if self.pairs <= 0:
            raise ValueError(f"need at least one pair, got {self.pairs}")
        if self.slots_per_bucket <= 0:
            raise ValueError(
                f"need at least one slot per bucket, got {self.slots_per_bucket}"
            )

    @property
    def capacity(self) -> int:
        return self.pairs * 2 * self.slots_per_bucket

    @property
    def filter_cells(self) -> int:
        return self.cbf_cells if self.cbf_cells > 0 else 4 * self.capacity

    def derived_seed(self, label: str) -> int:
        return crc32(label.encode() + struct.pack("!Q", self.seed & (2**64 - 1)))


def _default_packer(key: Any) -> bytes:
    if isinstance(key, bytes):
        return key
    return key.pack()


class CuckooDataPlane:
    """What the switch pipeline knows: two hash seeds and the filter.

    The control plane installs ``seed0``/``seed1`` (via
    ``RdmaChannelController.install_hash_seeds``); the filter lives in
    switch SRAM and is updated by control-plane writes.  The read path
    is two CRC32 invocations and one filter query — no directory state,
    no retries.
    """

    __slots__ = ("pairs", "seed0", "seed1", "filter", "_crc0", "_crc1")

    def __init__(
        self, pairs: int, seed0: int, seed1: int, choice_filter: ChoiceFilter
    ) -> None:
        self.pairs = pairs
        self.filter = choice_filter
        self.reseed(seed0, seed1)

    # CRC32 is affine, so two digests of same-length messages that differ
    # only in a seed prefix XOR to a key-independent constant — with a
    # power-of-two modulus that collapses h1 to h0 ^ const, i.e. a
    # single-hash table.  Hardware avoids this by wiring each hash to a
    # different polynomial; we get the same independence by feeding h1
    # the byte-reversed key (a different linear map of the key bits).

    def h0(self, key: bytes) -> int:
        return crc32(key, self._crc0) % self.pairs

    def h1(self, key: bytes) -> int:
        return crc32(key[::-1], self._crc1) % self.pairs

    def read_index(self, key: bytes) -> int:
        """The ONE pair index to READ for *key* (the EMOMA choice)."""
        if self.filter.query(key):
            return crc32(key[::-1], self._crc1) % self.pairs
        return crc32(key, self._crc0) % self.pairs

    def reseed(self, seed0: int, seed1: int) -> None:
        self.seed0 = seed0
        self.seed1 = seed1
        # Each seed prefix is hashed once, here; a bucket hash continues
        # the running CRC over the key bytes.
        self._crc0 = crc32(struct.pack("!I", seed0 & 0xFFFFFFFF))
        self._crc1 = crc32(struct.pack("!I", seed1 & 0xFFFFFFFF))


class CuckooDirectory:
    """Control-plane mirror of the remote cuckoo table.

    Tracks which key sits in which slot, runs the seeded insert/kick
    path, and maintains the choice-filter invariant:

    * key in T1  ⇒  the filter was :meth:`~ChoiceFilter.add`-ed for it
      (query positive, no false negatives);
    * key in T0  ⇒  the filter currently queries negative for it.

    A filter add (for some T1 placement) can flip unrelated T0 keys
    positive; those are detected through a cell → T0-residents index and
    relocated to T1 in the same insert call, bounded by
    ``max_relocations``.

    Each placement derives its key's *digest* — packed bytes and filter
    cells, then ``h0`` and (only when T0 is closed to it) ``h1`` — once,
    and hands it down to every step that needs it; nothing per key is
    kept between calls (a resident digest would outweigh the table).

    A placed key costs one ``location`` entry whose value is one int, its
    flat slot ``(table * pairs + index) * slots_per_bucket + slot``
    (:meth:`slot_ref` decodes it).  The cell → T0-residents index is a
    column of one ``array("I")`` word per filter cell plus an overflow
    map for the cells two or more T0 residents share (DESIGN.md §12.1).
    """

    def __init__(
        self,
        config: Optional[CuckooConfig] = None,
        packer: Callable[[Any], bytes] = _default_packer,
    ) -> None:
        self.config = config if config is not None else CuckooConfig()
        self.packer = packer
        self.filter = ChoiceFilter(
            self.config.filter_cells,
            hashes=self.config.cbf_hashes,
            seed=self.config.derived_seed("cuckoo-filter"),
        )
        self.dataplane = CuckooDataPlane(
            self.config.pairs,
            self.config.derived_seed("cuckoo-h0"),
            self.config.derived_seed("cuckoo-h1"),
            self.filter,
        )
        self._rng = random.Random(self.config.derived_seed("cuckoo-victim"))
        #: key → its current flat slot (insertion order: the order keys
        #: were first placed, kept through moves).
        self.location: Dict[Any, int] = {}
        # Geometry is fixed at construction (the data plane's is too).
        self._pairs = self.config.pairs
        self._bucket = self.config.slots_per_bucket
        #: Slot occupancy, one flat list: the key (or None) of slot
        #: ``(table * pairs + index) * slots_per_bucket + slot``.
        self._slots: List[Optional[Any]] = [None] * self.config.capacity
        #: filter cell → the T0 residents probing it (invariant index), by
        #: flat slot, each listed once: the column word names one (slot + 1,
        #: 0 for none) and, flagged ``_MORE``, ``_t0_more`` the others — one
        #: int, or a tuple of two or more.
        self._t0_column = array("I", [0]) * self.config.filter_cells
        self._t0_more: Dict[int, Any] = {}
        #: Every eviction/relocation, in order — the deterministic kick
        #: trace the property tests compare across same-seed runs.
        self.kick_log: List[Tuple[str, Any, SlotRef]] = []
        self.kicks = 0
        self.relocations = 0
        self.failed_inserts = 0

    # -- introspection ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.location)

    def __contains__(self, key: Any) -> bool:
        return key in self.location

    def slot_key(self, ref: SlotRef) -> Optional[Any]:
        table, index, slot = ref
        if table in (T0, T1) and 0 <= index < self._pairs and 0 <= slot < self._bucket:
            return self._slots[(table * self._pairs + index) * self._bucket + slot]
        return None

    def slot_ref(self, at: int) -> SlotRef:
        """The slot a flat index *at* (a ``location`` value) names."""
        pair = at // self._bucket  # operators, not divmod: no C call per re-install
        return SlotRef(pair // self._pairs, pair % self._pairs, at % self._bucket)

    @property
    def load(self) -> float:
        return len(self.location) / self.config.capacity

    def candidate_pairs(self, key: Any) -> Tuple[int, int]:
        kb = self.packer(key)
        return self.dataplane.h0(kb), self.dataplane.h1(kb)

    def check_invariant(self) -> List[Any]:
        """Everything wrong with the directory (must be empty).

        Keys violating the EMOMA invariant come first, as themselves;
        bookkeeping faults follow as ``(what, ...)`` tuples: the slot
        array and ``location`` must be a bijection, and the T0 index must
        list every T0 resident under each of its cells exactly once and
        nothing else (no stale slot, no overflow entry left for a cell
        with fewer than two residents).
        """
        bad: List[Any] = []
        faults: List[Any] = []
        expected: Dict[int, set] = {}
        t1_start = self._pairs * self._bucket
        slots = self._slots
        for key, at in self.location.items():
            cells = self.filter.indices(self.packer(key))
            if self.filter.query_cells(cells) != (at >= t1_start):
                bad.append(key)
            if not 0 <= at < len(slots) or slots[at] is not key:
                faults.append(("slot", key, at))
            if at < t1_start:
                for cell in cells:
                    expected.setdefault(cell, set()).add(at)
        occupied = len(slots) - slots.count(None)
        if occupied != len(self.location):
            faults.append(("occupancy", occupied, len(self.location)))
        column, more = self._t0_column, self._t0_more
        listed = self._t0_listed()
        faults += [
            ("t0-more", cell, more.get(cell))
            for cell in {cell for cell, word in enumerate(column) if word & _MORE} ^ more.keys()
        ] + [
            ("t0-more", cell, extra)
            for cell, extra in more.items()
            if type(extra) is tuple and len(extra) < 2
        ]
        have, want = (
            {cell: (len(residents), set(residents)) for cell, residents in listed.items()},
            {cell: (len(residents), residents) for cell, residents in expected.items()},
        )
        faults += [
            ("t0-index", cell, listed.get(cell))
            for cell in have.keys() | want.keys()
            if have.get(cell) != want.get(cell)
        ]
        return bad + faults

    def _t0_listed(self) -> Dict[int, Tuple[int, ...]]:
        """The T0 index as cell → flat slots listed, column word first.  Which
        resident the word names depends on arrival order (a rolled-back
        insert may leave another one there); the set listed does not."""
        more = self._t0_more
        listed: Dict[int, Tuple[int, ...]] = {}
        for cell, word in enumerate(self._t0_column):
            if word:
                extra = more.get(cell, ()) if word & _MORE else ()
                listed[cell] = ((word & ~_MORE) - 1,) + (
                    extra if type(extra) is tuple else (extra,)
                )
        return listed

    # -- journaled mutations (so a failed insert rolls back cleanly) ----------
    #
    # An insert that may fail changes the directory only through _set_slot and
    # _evict.  Each keeps the filter (T1) or the T0 index in step with the slot
    # it touches and journals what undoing it needs — flat slot index, cells —
    # so _rollback recomputes nothing and insert snapshots nothing on entry:
    # kick log, counters and victim RNG are restored from the journal too.

    def _arrive(self, at: int, table: int, cells: Sequence[int]) -> Sequence[int]:
        """A key now sits at flat slot *at* of *table*: add it to the filter
        (T1; returns the cells that flipped 0 → 1, the cascade's input) or
        index the slot under its cells (T0)."""
        if table == T1:
            return self.filter.add_cells(cells)
        column = self._t0_column
        word = at + 1
        for cell in cells:
            held = column[cell]
            if not held:
                column[cell] = word  # a lone resident
            elif held & ~_MORE != word:  # (both probes on one cell: listed once)
                more = self._t0_more
                extra = more.get(cell)
                if extra is None:  # a second resident: the common collision
                    column[cell] = held | _MORE
                    more[cell] = at
                elif type(extra) is int:
                    if extra != at:
                        more[cell] = (extra, at)
                elif at not in extra:
                    more[cell] = extra + (at,)
        return ()

    def _leave(self, at: int, table: int, cells: Sequence[int]) -> None:
        if table == T1:
            self.filter.remove_cells(cells)
            return
        column, more = self._t0_column, self._t0_more
        word = at + 1
        for cell in cells:
            held = column[cell]
            extra = more.get(cell) if held & _MORE else None
            if held & ~_MORE == word:  # the word's resident: promote an extra
                if extra is None:
                    column[cell] = 0
                elif type(extra) is int:
                    column[cell] = extra + 1
                    del more[cell]
                else:
                    column[cell] = (extra[0] + 1) | _MORE
                    more[cell] = extra[1:] if len(extra) > 2 else extra[1]
            elif extra is None:
                continue
            elif type(extra) is int:
                if extra == at:
                    column[cell] = held & ~_MORE
                    del more[cell]
            elif at in extra:
                rest = tuple(other for other in extra if other != at)
                more[cell] = rest if len(rest) > 1 else rest[0]

    def _set_slot(self, key, ref: SlotRef, at: int, cells, journal) -> Sequence[int]:
        """Seat *key* at *ref* (flat index *at*); returns the flipped cells."""
        location = self.location
        journal.append(("set", key, ref, at, cells, location.get(key)))
        self._slots[at] = key
        location[key] = at
        return self._arrive(at, ref.table, cells)

    def _evict(self, why: str, key, ref: SlotRef, at: int, cells, journal) -> None:
        """Vacate *ref* — a ``"kick"`` or a ``"relocate"`` — and log it."""
        journal.append(("evict", key, ref, at, cells, why))
        if why == "kick":
            self.kicks += 1
        else:
            self.relocations += 1
        self.kick_log.append((why, key, ref))
        self._slots[at] = None
        self._leave(at, ref.table, cells)

    def _rollback(self, journal: List[tuple]) -> None:
        slots = self._slots
        for op in reversed(journal):
            if op[0] == "rng":  # the victim stream as it stood before a draw
                self._rng.setstate(op[1])
                continue
            kind, key, ref, at, cells, extra = op
            if kind == "set":  # extra: the key's previous flat slot
                if slots[at] is key:
                    slots[at] = None
                self._leave(at, ref.table, cells)
                if extra is None:
                    self.location.pop(key, None)
                else:
                    self.location[key] = extra
            else:  # "evict"; extra: why
                slots[at] = key
                self._arrive(at, ref.table, cells)
                self.kick_log.pop()
                if extra == "kick":
                    self.kicks -= 1
                else:
                    self.relocations -= 1

    # -- the insert path -------------------------------------------------------

    def insert(self, key: Any, packed: Optional[bytes] = None) -> List[Move]:
        """Place *key*; returns the slot writes the table must mirror.

        Deterministic: same seed + same insert order ⇒ identical final
        layout, identical move lists, identical ``kick_log``.  Raises
        :class:`CuckooFullError` (after rolling back) when the kick or
        relocation budget is exhausted.  A caller that already holds the
        key's packed bytes passes them as *packed*.
        """
        location = self.location
        if key in location:
            return []  # re-install: same slot, caller rewrites the entry
        kb = self.packer(key) if packed is None else packed
        cells = self.filter.indices(kb)
        _, index, slot = self._t0_home(kb, cells)
        if slot is not None:  # the common insert: it cannot fail, so it journals nothing
            at = index * self._bucket + slot
            self._slots[at] = key
            location[key] = at
            self._arrive(at, T0, cells)
            return [Move(key, None, SlotRef(T0, index, slot))]
        config = self.config
        if len(location) >= len(self._slots):
            self.failed_inserts += 1
            raise CuckooFullError(
                f"cuckoo table full: {len(location)} keys in {config.capacity} slots"
            )
        journal: List[tuple] = []
        moves: List[Move] = []
        #: Keys awaiting (re)placement: (key, vacated slot, packed, cells).
        pending: deque = deque()
        placing = (key, None, kb, cells)
        kicks_left = config.max_kicks
        try:
            while True:
                if len(moves) > config.max_relocations:
                    raise CuckooFullError(
                        f"insert of {key!r} exceeded max_relocations="
                        f"{config.max_relocations} at load {self.load:.2f}"
                    )
                kicks_left = self._place(*placing, moves, pending, journal, kicks_left)
                if not pending:
                    return moves
                placing = pending.popleft()
        except CuckooFullError:
            self._rollback(journal)
            self.failed_inserts += 1
            raise

    def _place(
        self, key: Any, src: Optional[SlotRef], kb: bytes, cells: Tuple[int, ...],
        moves: List[Move], pending: deque, journal: List[tuple], kicks_left: int,
    ) -> int:
        bucket = self._bucket
        # 1. T0 home (:meth:`_t0_home`).
        positive, index, slot = self._t0_home(kb, cells)
        table = T0
        base = index * bucket
        if slot is None:
            # 2. T1 home: always legal (seating adds the key to the filter,
            #    keeping it query-positive), but the add may flip T0
            #    residents positive — the cascade relocates them.
            h1 = self.dataplane.h1(kb)
            t1_base = (self._pairs + h1) * bucket
            slot = self._free_slot(t1_base)
            if slot is not None or positive:
                table, index, base = T1, h1, t1_base
        victim = None
        if slot is None:
            # 3. Both homes full: kick a seeded victim.  A key that may sit
            #    in T0 kicks there: a T0 placement needs no filter add
            #    (keeping filter pressure — and hence the relocation
            #    cascade — down), and the T0 victim restarts the walk with
            #    both of its own homes to try.
            if kicks_left <= 0:
                raise CuckooFullError(
                    f"kick chain for {key!r} exceeded max_kicks="
                    f"{self.config.max_kicks} at load {self.load:.2f}"
                )
            if kicks_left == self.config.max_kicks:
                # This insert's first draw: only now is the victim stream
                # about to move, so only now is it worth a 625-word snapshot.
                journal.append(("rng", self._rng.getstate()))
            kicks_left -= 1
            slot = self._pick_victim(table, base)
            victim = self._slots[base + slot]
            victim_kb = self.packer(victim)
            victim_cells = self.filter.indices(victim_kb)
        ref = SlotRef(table, index, slot)
        if victim is not None:
            self._evict("kick", victim, ref, base + slot, victim_cells, journal)
        flipped = self._set_slot(key, ref, base + slot, cells, journal)
        moves.append(Move(key, src, ref))
        if flipped:
            self._cascade(flipped, pending, journal)
        if victim is not None:
            pending.append((victim, ref, victim_kb, victim_cells))
        return kicks_left

    def _t0_home(self, kb: bytes, cells: Tuple[int, ...]) -> Tuple[bool, int, Optional[int]]:
        """Rule 1, ``(positive, h0, slot)``: a free slot of bucket h0 only while the
        filter queries negative — else the data plane READs pair h1 and misses."""
        index = crc32(kb, self.dataplane._crc0) % self._pairs  # h0(kb)
        if self.filter.query_cells(cells):
            return True, index, None
        return False, index, self._free_slot(index * self._bucket)

    def _pick_victim(self, table: int, base: int) -> int:
        """The slot to kick from the full bucket starting at flat *base*."""
        bucket = self._bucket
        if table == T0:
            return self._rng.randrange(bucket)
        # A filter-positive key is confined to its T1 bucket.  A victim
        # whose own filter entries are all that keep it positive — and
        # whose T0 home has room — escapes to T0 immediately, ending the
        # chain; prefer those, else the walk cycles inside this bucket
        # (every occupant confined the same way) until the budget trips.
        escapable = [
            slot for slot in range(bucket)
            if self._can_escape_to_t0(self._slots[base + slot])
        ]
        if escapable:
            return escapable[self._rng.randrange(len(escapable))]
        return self._rng.randrange(bucket)

    def _can_escape_to_t0(self, key: Any) -> bool:
        """Would *key*, removed from T1, fit (and stay negative) in T0?"""
        kb = self.packer(key)
        own: Dict[int, int] = {}
        for cell in self.filter.indices(kb):
            own[cell] = own.get(cell, 0) + 1
        # Negative after removing its own increments?
        if all(self.filter.cell_value(c) - n > 0 for c, n in own.items()):
            return False
        return self._free_slot(self.dataplane.h0(kb) * self._bucket) is not None

    def _cascade(self, flipped_cells: Sequence[int], pending: deque, journal) -> None:
        """Queue T0 residents the filter add just flipped positive."""
        column, more = self._t0_column, self._t0_more
        suspects: set = set()  # flat T0 slots
        for cell in flipped_cells:
            held = column[cell]
            if held:
                suspects.add((held & ~_MORE) - 1)
                if held & _MORE:
                    extra = more[cell]
                    suspects.update(extra if type(extra) is tuple else (extra,))
        # Deterministic order: sort by packed key bytes, never set order.
        packer, slots, bucket = self.packer, self._slots, self._bucket
        for kb, at in sorted(
            ((packer(slots[at]), at) for at in suspects), key=itemgetter(0)
        ):
            cells = self.filter.indices(kb)
            if not self.filter.query_cells(cells):
                continue  # still negative; invariant holds
            suspect = slots[at]
            ref = SlotRef(T0, at // bucket, at % bucket)
            self._evict("relocate", suspect, ref, at, cells, journal)
            pending.append((suspect, ref, kb, cells))

    def _free_slot(self, base: int) -> Optional[int]:
        """Lowest free slot of the bucket whose flat index starts at *base*."""
        slots = self._slots
        for slot in range(self._bucket):
            if slots[base + slot] is None:
                return slot
        return None

    def remove(self, key: Any) -> Optional[SlotRef]:
        """Forget *key*; returns the slot the table must zero remotely."""
        at = self.location.pop(key, None)
        if at is None:
            return None
        self._slots[at] = None
        ref = self.slot_ref(at)
        self._leave(at, ref.table, self.filter.indices(self.packer(key)))
        return ref

    def __repr__(self) -> str:
        return (
            f"<CuckooDirectory {len(self.location)}/{self.config.capacity} "
            f"keys, kicks={self.kicks}, relocations={self.relocations}>"
        )
