"""Server DRAM and RDMA memory regions.

Memory regions are sparse, so experiments can register the multi-gigabyte
regions the paper envisions (O(10 GB) remote packet buffers, 10^9 counters)
without committing host RAM for what was never written.  A region's bytes
live in a :class:`SparseBuffer`: an untouched 4 KiB page holds nothing, a
sparsely written one holds only the 256 B sub-chunks written into it, and
one at least half written holds the whole page.  A cuckoo lookup entry is
1 728 B of which an install and a bounced frame write about 256 B, so the
lookup tables stay mostly sparse; the packet ring and the counters fill
their pages and pay nothing for the sparse form.  The host store never
moves a virtual address: :meth:`Dram.register` aligns regions to the
server's 4 KiB page on its own.

Access checks mirror RNIC behaviour: an operation outside the registered
range, with a stale rkey, or without the required access right must fail —
the RNIC turns that failure into a NAK.
"""

from __future__ import annotations

import enum
import itertools
import struct
from typing import Dict, Optional, Tuple

from .constants import ATOMIC_OPERAND_BYTES

#: Memory tiers a region can live in (DESIGN.md §13).  ``dram`` is the
#: paper's flat external memory; ``fast`` models an RDCA-style cache tier
#: on the same server (LLC / on-NIC SRAM) with its own service profile.
TIER_DRAM = "dram"
TIER_FAST = "fast"
TIERS = (TIER_FAST, TIER_DRAM)

#: The server's page: every region's base address is aligned to it.
SERVER_PAGE_BYTES = 4096

#: An atomic operand on the wire and in memory: one big-endian 64-bit word.
_WORD = struct.Struct("!Q")
_WORD_MASK = (1 << 64) - 1


class AccessFlags(enum.IntFlag):
    """Remote-access rights a memory region is registered with."""

    LOCAL_WRITE = 0x1
    REMOTE_WRITE = 0x2
    REMOTE_READ = 0x4
    REMOTE_ATOMIC = 0x8
    ALL_REMOTE = REMOTE_WRITE | REMOTE_READ | REMOTE_ATOMIC


# The rights as plain ints: the per-request test is one int mask.
_REMOTE_WRITE = int(AccessFlags.REMOTE_WRITE)
_REMOTE_READ = int(AccessFlags.REMOTE_READ)
_REMOTE_ATOMIC = int(AccessFlags.REMOTE_ATOMIC)


class MemoryAccessError(Exception):
    """An access violated a region's bounds, rights, or alignment."""


#: A page is held as this many sub-chunks until half of them are present.
_SUB_CHUNKS = 16
_PROMOTE_AT = _SUB_CHUNKS // 2
#: A page no write has touched: no sub-chunk present, nothing held.
_ABSENT = (0, None)
#: Set bits of every presence mask, indexed by the mask (``int.bit_count``
#: is Python 3.10+).  Each pass doubles the table: the new upper half is
#: the lower one with one more bit set.
_POPCOUNT = b"\0"
while len(_POPCOUNT) < 1 << _SUB_CHUNKS:
    _POPCOUNT += _POPCOUNT.translate(bytes(range(1, 256)) + b"\0")


def _lay_out(target: bytearray, chunks: bytearray, cursor: int, present: int, sub: int) -> None:
    """Copy the sub-chunks whose bits are set in *present* (bit 0 is
    *target*'s first), packed in *chunks* from *cursor* on, to their places
    in *target*: one slice per run of adjacent present sub-chunks."""
    j = 0
    while present:
        skip = (present & -present).bit_length() - 1
        present >>= skip
        run = (~present & (present + 1)).bit_length() - 1
        j += skip
        target[j * sub : (j + run) * sub] = chunks[cursor : cursor + run * sub]
        cursor += run * sub
        present >>= run
        j += run


class SparseBuffer:
    """A zero-initialised sparse byte buffer of fixed-size pages, each held
    only as far as it was written.

    A page is absent until its first write.  It then holds only the
    sixteenths of it ("sub-chunks", 256 B of a 4 KiB page) that were
    written, packed in address order in one ``bytearray`` behind a 16-bit
    presence mask.  Once half its sub-chunks are present it is promoted to
    a full page, an exact-size ``bytearray`` that is never demoted.  An
    access inside one full page is one slice of it, as is one inside a
    sparse page whose sub-chunks are all present; only one that straddles
    a page boundary walks pages.
    """

    def __init__(self, length: int, page_size: int = 4096) -> None:
        if length < 0:
            raise ValueError(f"length must be non-negative, got {length}")
        if page_size <= 0 or page_size % (8 * _SUB_CHUNKS):
            raise ValueError(
                f"page size must be a positive multiple of {8 * _SUB_CHUNKS}, got {page_size}"
            )
        self.length = length
        self.page_size = page_size
        #: Bytes per sub-chunk: a multiple of 8, so an aligned 64-bit word
        #: never straddles two, and at least 8, so a sparse page's
        #: ``bytearray`` is always allocated to its exact length: CPython
        #: over-allocates only a growth to at most 9/8 of the allocation,
        #: and a sparse page grows from at most six sub-chunks (and its NUL
        #: byte) by at least one more.
        self.sub_chunk = page_size // _SUB_CHUNKS
        #: Full (promoted) pages by index.
        self._pages: Dict[int, bytearray] = {}
        #: Sparse pages by index: (presence mask, present sub-chunks).
        self._sparse: Dict[int, Tuple[int, bytearray]] = {}

    @property
    def resident_bytes(self) -> int:
        """Host bytes the pages hold: every full page, plus each sparse
        page's present sub-chunks (held at exactly that length)."""
        return len(self._pages) * self.page_size + sum(
            len(chunks) for _, chunks in self._sparse.values()
        )

    def _out_of_range(self, offset: int, size: int) -> MemoryAccessError:
        return MemoryAccessError(
            f"range [{offset}, {offset + size}) outside buffer of "
            f"{self.length} bytes"
        )

    def read(self, offset: int, size: int) -> bytes:
        if offset < 0 or size < 0 or offset + size > self.length:
            raise self._out_of_range(offset, size)
        page_size = self.page_size
        index, start = divmod(offset, page_size)
        if start + size <= page_size:
            page = self._pages.get(index)
            if page is not None:
                return bytes(page[start : start + size])
            mask, chunks = self._sparse.get(index, _ABSENT)
            sub = self.sub_chunk
            first = start // sub
            span = (1 << (start + size + sub - 1) // sub) - (1 << first)
            # Where sub-chunk *first* sits, or would sit, in *chunks*.
            at = _POPCOUNT[mask & ((1 << first) - 1)] * sub
            if mask & span != span or chunks is None:
                return self._read_gaps(mask, chunks, at, first, start, size)
            at += start - first * sub
            return bytes(chunks[at : at + size])
        parts = []
        while size:
            chunk = min(size, page_size - start)
            page = self._pages.get(index)
            parts.append(
                self.read(index * page_size + start, chunk)
                if page is None
                else bytes(page[start : start + chunk])
            )
            size -= chunk
            index += 1
            start = 0
        return b"".join(parts)

    def _read_gaps(
        self, mask: int, chunks: Optional[bytearray], at: int, j: int, start: int, size: int
    ) -> bytes:
        """[start, start + size) of a page that is not full and lacks some
        sub-chunk of it, starting in sub-chunk *j*, which sits (or would)
        at *at* in *chunks*: piece by piece, zeros for the absent."""
        if chunks is None:
            return bytes(size)
        sub = self.sub_chunk
        parts = []
        end = start + size
        while start < end:
            stop = min(end, (j + 1) * sub)
            if mask >> j & 1:
                lo = at + start - j * sub
                parts.append(chunks[lo : lo + stop - start])
                at += sub
            else:
                parts.append(bytes(stop - start))
            start = stop
            j += 1
        return b"".join(parts)

    def write(self, offset: int, data: bytes) -> None:
        size = len(data)
        if offset < 0 or offset + size > self.length:
            raise self._out_of_range(offset, size)
        page_size = self.page_size
        index, start = divmod(offset, page_size)
        if 0 < size <= page_size - start:
            page = self._pages.get(index)
            if page is not None:
                page[start : start + size] = data
                return
            mask, chunks = self._sparse.get(index, _ABSENT)
            sub = self.sub_chunk
            first = start // sub
            span = (1 << (start + size + sub - 1) // sub) - (1 << first)
            at = _POPCOUNT[mask & ((1 << first) - 1)] * sub
            if mask & span != span:
                self._insert(index, start, data, mask, chunks, first, span, at)
                return
            at += start - first * sub
            chunks[at : at + size] = data
            return
        cursor = 0
        while cursor < size:
            chunk = min(size - cursor, page_size - start)
            page = self._pages.get(index)
            if page is not None:
                page[start : start + chunk] = data[cursor : cursor + chunk]
            else:
                self.write(index * page_size + start, data[cursor : cursor + chunk])
            cursor += chunk
            index += 1
            start = 0

    def _insert(
        self,
        index: int,
        start: int,
        data: bytes,
        mask: int,
        chunks: Optional[bytearray],
        first: int,
        span: int,
        at: int,
    ) -> None:
        """Write non-empty *data* at *start* of page *index*, which is not
        full: *mask* and *chunks* are its sparse form, and the write covers
        the sub-chunks in *span*, some of them missing, from *first* on,
        which sits (or would) at *at* in *chunks*.  One in-place insertion
        of the missing sub-chunks, or the page's promotion."""
        size = len(data)
        sub = self.sub_chunk
        present = mask & span
        grown = mask | span
        if _POPCOUNT[grown] >= _PROMOTE_AT:
            page = bytearray(self.page_size)
            _lay_out(page, chunks, 0, mask, sub)
            page[start : start + size] = data
            self._pages[index] = page
            self._sparse.pop(index, None)
            return
        # The run of sub-chunks the write touches, whole: present ones
        # copied in, missing ones zero, then the data over them.
        run = bytearray(span.bit_length() * sub - first * sub)
        if present:
            _lay_out(run, chunks, at, present >> first, sub)
        run[start - first * sub : start - first * sub + size] = data
        if chunks is None:
            self._sparse[index] = (span, run)
            return
        chunks[at : at + _POPCOUNT[present] * sub] = run
        self._sparse[index] = (grown, chunks)

    def fetch_add(self, offset: int, value: int) -> int:
        """Add *value* (mod 2**64) to the big-endian 64-bit word at *offset*;
        returns the previous value.  One in-place word operation on the
        page, or on a sparse page's sub-chunk holding the word."""
        index, start = divmod(offset, self.page_size)
        size = ATOMIC_OPERAND_BYTES
        if 0 <= offset <= self.length - size and start + size <= self.page_size:
            page = self._pages.get(index)
            if page is None:
                mask, page = self._sparse.get(index, _ABSENT)
                sub = self.sub_chunk
                first = start // sub
                if mask >> first & 1 and (start + size - 1) // sub == first:
                    start += _POPCOUNT[mask & ((1 << first) - 1)] * sub - first * sub
                else:
                    page = None
            if page is not None:
                (original,) = _WORD.unpack_from(page, start)
                _WORD.pack_into(page, start, (original + value) & _WORD_MASK)
                return original
        # Out of range (read raises), a word not written yet, or an
        # unaligned one straddling two pages or sub-chunks: the general path.
        (original,) = _WORD.unpack(self.read(offset, size))
        self.write(offset, _WORD.pack((original + value) & _WORD_MASK))
        return original


class MemoryRegion:
    """A registered RDMA memory region: VA range + rkey + access rights.

    :meth:`Dram.register` hands out rkeys from the server's own namespace.
    """

    def __init__(
        self,
        base_address: int,
        length: int,
        access: AccessFlags = AccessFlags.ALL_REMOTE,
        rkey: int = 0,
        tier: str = TIER_DRAM,
    ) -> None:
        if base_address < 0:
            raise ValueError(f"base address must be non-negative: {base_address}")
        if tier not in TIERS:
            raise ValueError(f"unknown memory tier {tier!r}; expected {TIERS}")
        self.base_address = base_address
        self.length = length
        self.access = access
        self._rights = int(access)
        self.tier = tier
        self.rkey = rkey
        self._buffer = SparseBuffer(length)
        self.valid = True
        # Operation counters, handy for asserting "zero CPU involvement"
        # experiments actually hit the region.
        self.reads = 0
        self.writes = 0
        self.atomics = 0

    @property
    def end_address(self) -> int:
        return self.base_address + self.length

    @property
    def resident_bytes(self) -> int:
        return self._buffer.resident_bytes

    def deregister(self) -> None:
        """Invalidate the region; subsequent remote access NAKs."""
        self.valid = False

    def _check(self, va: int, size: int, needed: int) -> int:
        """Admit an access to [va, va + size) needing the right with int value
        *needed* (an int, so the per-request test is one plain mask);
        returns its buffer offset."""
        offset = va - self.base_address
        if self.valid and self._rights & needed and 0 <= offset <= self.length - size:
            return offset
        if not self.valid:
            raise MemoryAccessError(f"region rkey={self.rkey:#x} deregistered")
        if not self._rights & needed:
            raise MemoryAccessError(
                f"region rkey={self.rkey:#x} lacks {AccessFlags(needed).name} access"
            )
        raise MemoryAccessError(
            f"VA range [{va:#x}, {va + size:#x}) outside region "
            f"[{self.base_address:#x}, {self.end_address:#x})"
        )

    def read(self, va: int, size: int) -> bytes:
        """Remote READ of *size* bytes at virtual address *va*."""
        offset = self._check(va, size, _REMOTE_READ)
        self.reads += 1
        return self._buffer.read(offset, size)

    def write(self, va: int, data: bytes) -> None:
        """Remote WRITE of *data* at virtual address *va*."""
        offset = self._check(va, len(data), _REMOTE_WRITE)
        self.writes += 1
        self._buffer.write(offset, data)

    def fetch_add(self, va: int, value: int) -> int:
        """Atomic 64-bit Fetch-and-Add; returns the pre-add value."""
        offset = self._check(va, ATOMIC_OPERAND_BYTES, _REMOTE_ATOMIC)
        if va % ATOMIC_OPERAND_BYTES:
            raise MemoryAccessError(f"atomic VA {va:#x} not 8-byte aligned")
        self.atomics += 1
        return self._buffer.fetch_add(offset, value)

    def compare_swap(self, va: int, compare: int, swap: int) -> int:
        """Atomic 64-bit Compare-and-Swap; returns the pre-swap value."""
        offset = self._check(va, ATOMIC_OPERAND_BYTES, _REMOTE_ATOMIC)
        if va % ATOMIC_OPERAND_BYTES:
            raise MemoryAccessError(f"atomic VA {va:#x} not 8-byte aligned")
        self.atomics += 1
        original = int.from_bytes(
            self._buffer.read(offset, ATOMIC_OPERAND_BYTES), "big"
        )
        if original == compare:
            self._buffer.write(offset, swap.to_bytes(ATOMIC_OPERAND_BYTES, "big"))
        return original

    def __repr__(self) -> str:
        return (
            f"<MemoryRegion rkey={self.rkey:#x} "
            f"[{self.base_address:#x}, {self.end_address:#x}) "
            f"{self.length} B>"
        )


class _Regions(dict):
    """Registered regions by rkey; indexing an unknown rkey is an access error."""

    def __missing__(self, rkey: int) -> MemoryRegion:
        raise MemoryAccessError(f"unknown rkey {rkey:#x}")


class Dram:
    """A server's DRAM: a registry of memory regions with a capacity budget."""

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ValueError(f"DRAM capacity must be positive: {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self.regions: Dict[int, MemoryRegion] = _Regions()
        self._next_base = 0x1000_0000
        # Per-server, like the RNIC's QPNs: a process-wide counter would
        # make RETH/ICRC bytes depend on unrelated earlier runs.
        self._rkeys = itertools.count(0x1000)

    @property
    def registered_bytes(self) -> int:
        return sum(r.length for r in self.regions.values() if r.valid)

    def register(
        self,
        length: int,
        access: AccessFlags = AccessFlags.ALL_REMOTE,
        tier: str = TIER_DRAM,
    ) -> MemoryRegion:
        """Allocate and register a new region of *length* bytes."""
        if self.registered_bytes + length > self.capacity_bytes:
            raise MemoryError(
                f"cannot register {length} B: "
                f"{self.registered_bytes}/{self.capacity_bytes} B already in use"
            )
        # The constructor refuses a bad length or tier before a key is drawn:
        # a refusal must not shift every later region's rkey.
        region = MemoryRegion(self._next_base, length, access, tier=tier)
        region.rkey = next(self._rkeys)
        # Keep VA spaces of successive regions disjoint and aligned to the
        # server page, whatever page the host store keeps.
        pages = (length + SERVER_PAGE_BYTES - 1) // SERVER_PAGE_BYTES
        self._next_base += pages * SERVER_PAGE_BYTES
        self.regions[region.rkey] = region
        return region

    def lookup(self, rkey: int) -> Optional[MemoryRegion]:
        """Find a valid region by rkey (None if unknown or deregistered)."""
        region = self.regions.get(rkey)
        if region is None or not region.valid:
            return None
        return region

    def release(self, region: MemoryRegion) -> None:
        """Deregister *region* and drop it from the registry entirely.

        After release the rkey dangles (remote access NAKs) and the DRAM
        budget is reusable, so a closed channel can be reopened with a
        fresh region of the same size on the same server.
        """
        region.deregister()
        self.regions.pop(region.rkey, None)
