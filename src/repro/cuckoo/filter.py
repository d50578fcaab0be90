"""The on-chip choice filter: a seeded counting Bloom filter.

EMOMA (Pontarelli et al., arXiv:1709.04711) resolves the classic cuckoo
read problem — "which of the two candidate buckets holds the key?" — with
a small SRAM counting Bloom filter the data plane queries per packet:

* the key is **negative** in the filter → it can only live in subtable
  T0, so read bucket pair ``h0(key)``;
* the key is **positive** → read bucket pair ``h1(key)``.

The control plane maintains one invariant so this is always correct:
every key stored in T1 has been :meth:`add`-ed (counting filters have no
false negatives), and every key stored in T0 must currently
:meth:`query` negative.  False positives are harmless *if* the control
plane relocates any T0 key that an unrelated :meth:`add` flips positive —
:mod:`repro.cuckoo.layout` owns that cascade; this module is just the
filter, deterministic under a seed.

Cells are 16-bit saturating counters in a compact :mod:`array`, sized by
the directory (default four cells per table slot keeps the
false-positive — and hence relocation — rate low at high load).
"""

from __future__ import annotations

import struct
from array import array
from typing import List, Sequence, Tuple
from zlib import crc32

_CELL_MAX = 0xFFFF


class ChoiceFilter:
    """Counting Bloom filter with ``hashes`` seeded CRC32 probes.

    Deterministic: cell indices depend only on ``(seed, probe index,
    key bytes)``, never on insertion history or Python hash
    randomization.
    """

    __slots__ = ("cells", "hashes", "seed", "_cells", "_prefixes", "adds", "removes")

    def __init__(self, cells: int, hashes: int = 2, seed: int = 0) -> None:
        if cells <= 0:
            raise ValueError(f"need at least one cell, got {cells}")
        if hashes <= 0:
            raise ValueError(f"need at least one hash, got {hashes}")
        self.cells = cells
        self.hashes = hashes
        self.seed = seed
        self._cells = array("H", bytes(2 * cells))
        #: Running CRC32 of each probe's ``(seed, probe)`` prefix, hashed
        #: once here: a probe is one ``crc32(rotated key, running)``.
        self._prefixes = tuple(
            crc32(struct.pack("!II", seed, probe)) for probe in range(hashes)
        )
        self.adds = 0
        self.removes = 0

    def indices(self, key: bytes) -> Tuple[int, ...]:
        """The probe cells for *key* (stable for the filter's lifetime).

        Each probe hashes a different rotation of the key bytes: CRC32
        is affine, so probes that differed only in their seed prefix
        would land on cells related by a key-independent XOR — one hash
        masquerading as k.  Rotations are distinct linear maps, making
        the probes behave independently.
        """
        size = len(key) or 1
        cells = self.cells
        out: Tuple[int, ...] = ()  # += beats a comprehension's frame at 2-3 probes
        for probe, prefix in enumerate(self._prefixes):
            pivot = probe % size
            out += (crc32(key[pivot:] + key[:pivot], prefix) % cells,)
        return out

    # The key forms hash and delegate; the directory, which holds a key's
    # cells already (one ``indices`` per placement), calls the by-cells forms.

    def add(self, key: bytes) -> List[int]:
        """Increment *key*'s cells; returns the cells that went 0 → 1.

        The 0 → 1 transitions are exactly the events that can flip an
        unrelated key from negative to positive — the directory uses the
        return value to find T0 residents that must relocate.
        """
        return self.add_cells(self.indices(key))

    def add_cells(self, indices: Sequence[int]) -> List[int]:
        self.adds += 1
        cells = self._cells
        flipped: List[int] = []
        for cell in indices:
            value = cells[cell]
            if value == 0:
                flipped.append(cell)
            if value < _CELL_MAX:
                cells[cell] = value + 1
        return flipped

    def remove(self, key: bytes) -> None:
        """Decrement *key*'s cells (must pair with a previous :meth:`add`)."""
        self.remove_cells(self.indices(key))

    def remove_cells(self, indices: Sequence[int]) -> None:
        self.removes += 1
        cells = self._cells
        for cell in indices:
            value = cells[cell]
            if value == 0:
                raise ValueError(
                    "choice filter underflow: remove() without a matching "
                    "add() — the directory invariant is broken"
                )
            if value < _CELL_MAX:  # saturated cells stay pinned
                cells[cell] = value - 1

    def query(self, key: bytes) -> bool:
        """True when every probe cell is non-zero (key *may* be in T1)."""
        return self.query_cells(self.indices(key))

    def query_cells(self, indices: Sequence[int]) -> bool:
        cells = self._cells
        for cell in indices:
            if not cells[cell]:
                return False
        return True

    def cell_value(self, cell: int) -> int:
        return self._cells[cell]

    @property
    def load(self) -> float:
        """Fraction of non-zero cells (false-positive pressure)."""
        occupied = sum(1 for value in self._cells if value)
        return occupied / self.cells

    def __repr__(self) -> str:
        return (
            f"<ChoiceFilter cells={self.cells} hashes={self.hashes} "
            f"seed={self.seed:#x}>"
        )
