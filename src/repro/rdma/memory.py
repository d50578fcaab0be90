"""Server DRAM and RDMA memory regions.

Memory regions are sparse (page dict), so experiments can register the
multi-gigabyte regions the paper envisions (O(10 GB) remote packet buffers,
10^9 counters) without actually committing host RAM for untouched pages.

Access checks mirror RNIC behaviour: an operation outside the registered
range, with a stale rkey, or without the required access right must fail —
the RNIC turns that failure into a NAK.
"""

from __future__ import annotations

import enum
import itertools
import struct
from collections import defaultdict
from functools import partial
from typing import Dict, Optional

from .constants import ATOMIC_OPERAND_BYTES

#: Memory tiers a region can live in (DESIGN.md §13).  ``dram`` is the
#: paper's flat external memory; ``fast`` models an RDCA-style cache tier
#: on the same server (LLC / on-NIC SRAM) with its own service profile.
TIER_DRAM = "dram"
TIER_FAST = "fast"
TIERS = (TIER_FAST, TIER_DRAM)

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


class SparseBuffer:
    """A zero-initialised sparse byte buffer backed by fixed-size pages.

    An access inside one page is one slice of it; only one that
    straddles a page boundary walks pages.
    """

    def __init__(self, length: int, page_size: int = 4096) -> None:
        if length < 0:
            raise ValueError(f"length must be non-negative, got {length}")
        if page_size <= 0:
            raise ValueError(f"page size must be positive, got {page_size}")
        self.length = length
        self.page_size = page_size
        #: Resident pages by index.  Indexing a missing page allocates it
        #: zeroed (a write's first touch); ``get`` leaves the buffer sparse.
        self._pages: Dict[int, bytearray] = defaultdict(partial(bytearray, page_size))

    @property
    def resident_bytes(self) -> int:
        """Bytes of actually-allocated (touched) pages."""
        return len(self._pages) * self.page_size

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
            return bytes(size) if page is None else bytes(page[start : start + size])
        parts = []
        while size:
            chunk = min(size, page_size - start)
            page = self._pages.get(index)
            parts.append(
                bytes(chunk) if page is None else bytes(page[start : start + chunk])
            )
            size -= chunk
            index += 1
            start = 0
        return b"".join(parts)

    def write(self, offset: int, data: bytes) -> None:
        size = len(data)
        if offset < 0 or offset + size > self.length:
            raise self._out_of_range(offset, size)
        page_size = self.page_size
        index, start = divmod(offset, page_size)
        if 0 < size <= page_size - start:
            self._pages[index][start : start + size] = data
            return
        cursor = 0
        while cursor < size:
            chunk = min(size - cursor, page_size - start)
            self._pages[index][start : start + chunk] = data[cursor : cursor + chunk]
            cursor += chunk
            index += 1
            start = 0

    def fetch_add(self, offset: int, value: int) -> int:
        """Add *value* (mod 2**64) to the big-endian 64-bit word at *offset*;
        returns the previous value.  One in-place word operation on the page."""
        index, start = divmod(offset, self.page_size)
        size = ATOMIC_OPERAND_BYTES
        if not 0 <= offset <= self.length - size or start + size > self.page_size:
            # Out of range (read raises), or an unaligned word straddling
            # two pages: the general path.
            (original,) = _WORD.unpack(self.read(offset, size))
            self.write(offset, _WORD.pack((original + value) & _WORD_MASK))
            return original
        page = self._pages[index]
        (original,) = _WORD.unpack_from(page, start)
        _WORD.pack_into(page, start, (original + value) & _WORD_MASK)
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
        page_size: int = 4096,
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
        self._buffer = SparseBuffer(length, page_size=page_size)
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
        page_size: int = 4096,
        tier: str = TIER_DRAM,
    ) -> MemoryRegion:
        """Allocate and register a new region of *length* bytes."""
        if self.registered_bytes + length > self.capacity_bytes:
            raise MemoryError(
                f"cannot register {length} B: "
                f"{self.registered_bytes}/{self.capacity_bytes} B already in use"
            )
        region = MemoryRegion(
            self._next_base, length, access, next(self._rkeys), page_size, tier
        )
        # Keep VA spaces of successive regions disjoint and page-aligned.
        self._next_base += (length + page_size - 1) // page_size * page_size
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
