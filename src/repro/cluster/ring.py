"""Consistent-hash ring for shard placement across memory servers.

EMOMA (Pontarelli et al.) keeps exact-match lookups one-access-only by
making placement *deterministic*: the data plane must be able to compute,
from the key alone, which server owns the key's entry.  A consistent-hash
ring gives that determinism plus minimal movement on membership change —
when a server joins or leaves, only the keys in its arcs move, everything
else stays put (the property live shard migration depends on).

The ring is CRC32-based (the same hash-unit family a Tofino exposes, see
:mod:`repro.switches.hashing`), salted with a fixed seed so placement is
reproducible run to run, and uses virtual nodes so the hash space splits
evenly across members.
"""

from __future__ import annotations

import bisect
import struct
import zlib
from typing import Dict, List, Union

Key = Union[int, bytes]

_PACK_U64 = struct.Struct("!Q").pack
_U64_MASK = (1 << 64) - 1


class RingEmptyError(LookupError):
    """Placement was requested on a ring with no members."""


class ConsistentHashRing:
    """Deterministic consistent hashing with virtual nodes.

    Members are identified by name.  ``owner(key)`` walks clockwise from
    the key's hash to the first virtual node; ``replicas(key, k)`` keeps
    walking until *k* distinct members are collected, so replica sets are
    also stable under membership change (a surviving replica stays a
    replica when another member leaves).
    """

    def __init__(self, vnodes: int = 128, seed: int = 0) -> None:
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.vnodes = vnodes
        self.seed = seed
        self._points: List[int] = []  # sorted vnode positions
        self._owner_at: Dict[int, str] = {}  # position -> member name

    # -- membership ---------------------------------------------------------------

    @property
    def members(self) -> List[str]:
        return sorted(set(self._owner_at.values()))

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, member: str) -> bool:
        return member in self._owner_at.values()

    def _positions_of(self, member: str) -> List[int]:
        return [
            zlib.crc32(f"{self.seed}:{member}#{i}".encode())
            for i in range(self.vnodes)
        ]

    def add(self, member: str) -> None:
        if member in self:
            raise ValueError(f"member {member!r} already on the ring")
        for position in self._positions_of(member):
            # CRC collisions across members are possible in principle;
            # deterministic tie-break by name keeps placement stable.
            holder = self._owner_at.get(position)
            if holder is not None:
                if member < holder:
                    self._owner_at[position] = member
                continue
            bisect.insort(self._points, position)
            self._owner_at[position] = member

    def remove(self, member: str) -> None:
        if member not in self:
            raise ValueError(f"member {member!r} is not on the ring")
        for position in list(self._owner_at):
            if self._owner_at[position] == member:
                del self._owner_at[position]
                index = bisect.bisect_left(self._points, position)
                del self._points[index]

    # -- placement ---------------------------------------------------------------

    @staticmethod
    def _hash_key(key: Key) -> int:
        return zlib.crc32(key if isinstance(key, bytes) else _PACK_U64(key & _U64_MASK))

    def owner(self, key: Key) -> str:
        """The member owning *key*: first virtual node clockwise."""
        points = self._points
        if not points:
            raise RingEmptyError("ring has no members")
        index = bisect.bisect_right(points, self._hash_key(key))
        return self._owner_at[points[index if index < len(points) else 0]]

    def replicas(self, key: Key, k: int) -> List[str]:
        """The first *k* distinct members clockwise from *key*'s position.

        Returns fewer than *k* members when the ring holds fewer.
        """
        if not self._points:
            raise RingEmptyError("ring has no members")
        if k < 1:
            raise ValueError("k must be >= 1")
        start = bisect.bisect_right(self._points, self._hash_key(key))
        chosen: List[str] = []
        for step in range(len(self._points)):
            position = self._points[(start + step) % len(self._points)]
            member = self._owner_at[position]
            if member not in chosen:
                chosen.append(member)
                if len(chosen) == k:
                    break
        return chosen

    def shares(self, samples: int = 4096) -> Dict[str, float]:
        """Approximate fraction of the hash space owned per member.

        Sampled (not arc-integrated) so it doubles as a check of the
        placement actually seen by uniformly-hashed keys.
        """
        counts: Dict[str, int] = {}
        for i in range(samples):
            member = self.owner(zlib.crc32(struct.pack("!I", i)))
            counts[member] = counts.get(member, 0) + 1
        return {m: c / samples for m, c in sorted(counts.items())}
