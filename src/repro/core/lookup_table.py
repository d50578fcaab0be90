"""The remote lookup table primitive (§4).

A remote exact-match table in server DRAM, indexed by a hash of the packet
5-tuple.  On a local SRAM-table miss the primitive *bounces* the packet:

1. compute ``index = hash(5-tuple) % entries`` and the entry's address,
2. RDMA WRITE the original packet into the entry's packet slot (so the
   switch holds no per-packet state while the lookup is in flight),
3. RDMA READ the whole entry — ``(action, packet)`` — back,
4. on the READ response, apply the action to the recovered packet, forward
   it, and optionally cache the entry in local SRAM so subsequent packets
   of the flow hit locally.

The §7 ablation mode ``recirculate`` instead parks the original packet in
the recirculation loop and READs only the action field, saving the WRITE's
bandwidth at the cost of pipeline passes.

Remote entry layout (``ACTION_BYTES`` = 16)::

    0      1          2        6             10      16
    +------+----------+--------+-------------+-------+----------------+
    |valid | action_id| param  | fingerprint | (pad) | packet slot ...|
    +------+----------+--------+-------------+-------+----------------+
     u8     u8          u32 BE   u32 BE        6 B     entry_slot_bytes

The 32-bit param is wide enough for an IPv4 address, so the bare-metal
virtual switch (§2.2) can store VIP→PIP translations directly.  The 32-bit
fingerprint (a second, independent hash of the 5-tuple) detects hash
collisions between flows sharing an index: a mismatched fingerprint falls
back to the default action instead of silently applying another flow's
action.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from operator import methodcaller
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple, Union

from ..cuckoo.layout import CuckooConfig, CuckooDirectory
from ..net.addresses import Ipv4Address
from ..net.headers import HeaderError, Ipv4Header
from ..net.packet import Packet
from ..policies.cache import CachePolicy, make_cache_policy
from ..rdma.constants import Opcode
from ..rdma.memory import TIER_FAST
from ..switches.hashing import FiveTuple, flow_fingerprint
from ..switches.pipeline import PipelineContext
from ..switches.switch import ProgrammableSwitch
from .channel import RemoteMemoryChannel
from .rocegen import RoceRequestGenerator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (tiering uses core)
    from ..tiering.geometry import TieredRegionGeometry

ACTION_BYTES = 16
_ACTION = struct.Struct("!BBII6x")
_PACK_ACTION = _ACTION.pack
_UNPACK_ACTION = _ACTION.unpack_from
_EMPTY_SLOT = bytes(ACTION_BYTES)
_READ_RESPONSE = Opcode.RDMA_READ_RESPONSE_ONLY

#: Well-known remote actions.
ACTION_NOP = 0
ACTION_SET_DSCP = 1
ACTION_SET_EGRESS = 2
ACTION_DROP = 3
#: Rewrite the destination IP (VIP → PIP translation, §2.2); param is the
#: physical IPv4 address as a 32-bit integer.
ACTION_SET_DST_IP = 4


@dataclass(frozen=True)
class RemoteAction:
    """A decoded remote-table action."""

    action_id: int
    param: int

    def pack_with(self, fingerprint: int) -> bytes:
        return _PACK_ACTION(1, self.action_id, self.param, fingerprint)

    @classmethod
    def unpack(cls, data: bytes) -> Tuple[bool, "RemoteAction", int]:
        """Returns (valid, action, fingerprint)."""
        valid, action_id, param, fingerprint = _UNPACK_ACTION(data)
        return bool(valid), cls(action_id=action_id, param=param), fingerprint


@dataclass
class LookupTableConfig:
    """Geometry and behaviour of the remote lookup table."""

    #: Number of remote entries (the remote table is a fixed-size array).
    entries: int = 1 << 16
    #: Packet slot size within an entry (one full frame, like §4).
    packet_slot_bytes: int = 1600
    #: Local SRAM cache capacity in flows (0 disables caching).
    cache_entries: int = 1024
    #: Insert fetched entries into the local cache (§4's optional step).
    cache_fill: bool = True
    #: "bounce" (deposit packet remotely, §4) or "recirculate" (§7 option).
    mode: str = "bounce"
    #: "direct" — one hash, one entry per index (the original layout) —
    #: or "cuckoo" — EMOMA bucket pairs, every miss one READ, no
    #: bounce-retry on collision (repro.cuckoo).
    layout: str = "direct"
    #: Master seed for the cuckoo bucket hashes / choice filter / kick RNG.
    hash_seed: int = 0
    #: Cuckoo geometry (total slot capacity stays ``entries``).
    slots_per_bucket: int = 4
    max_kicks: int = 64
    max_relocations: int = 256
    #: SRAM cache eviction policy, under the unified policy convention
    #: (repro.policies): a name ("fifo", "lru", "lfu", "pin") or a
    #: ready-built :class:`~repro.policies.cache.CachePolicy` instance.
    policy: Union[str, CachePolicy, None] = None
    #: Seed for policy randomness (the pinning policy's threshold jitter).
    policy_seed: Optional[int] = None
    #: Base promotion threshold for the "pin" policy.
    pin_threshold: int = 4

    def __post_init__(self) -> None:
        if self.policy is None:
            self.policy = "fifo"
        if self.policy_seed is None:
            self.policy_seed = 0

    @property
    def entry_bytes(self) -> int:
        return ACTION_BYTES + self.packet_slot_bytes

    # -- cuckoo geometry -------------------------------------------------------

    @property
    def pairs(self) -> int:
        """Bucket pairs per subtable; slot capacity stays ``entries``."""
        return max(1, self.entries // (2 * self.slots_per_bucket))

    @property
    def bucket_pair_bytes(self) -> int:
        """Action slots of both buckets, before the shared packet slot."""
        return 2 * self.slots_per_bucket * ACTION_BYTES

    @property
    def pair_bytes(self) -> int:
        return self.bucket_pair_bytes + self.packet_slot_bytes

    @property
    def region_bytes(self) -> int:
        """Server memory the chosen layout needs."""
        if self.layout == "cuckoo":
            return self.pairs * self.pair_bytes
        return self.entries * self.entry_bytes


def fingerprint_of(flow: FiveTuple) -> int:
    """A 32-bit flow fingerprint independent of the index hash.

    CRC16 over the packed tuple and CRC16 over its reverse, concatenated —
    cheap enough for one pipeline stage, and independent enough from the
    CRC32 index hash that index collisions rarely share fingerprints.
    """
    return flow_fingerprint(flow.pack())


#: Program-supplied policy: (packet, action) -> egress port, or None to drop.
ResolveEgress = Callable[[Packet, RemoteAction], Optional[int]]


class RemoteLookupTable:
    """Data-plane component: remote match-action table with local cache."""

    def __init__(
        self,
        switch: ProgrammableSwitch,
        channel: Optional[RemoteMemoryChannel] = None,
        config: Optional[LookupTableConfig] = None,
        default_action: Optional[RemoteAction] = None,
        tiering: Optional["TieredRegionGeometry"] = None,
    ) -> None:
        self.switch = switch
        self._tiering = tiering
        if tiering is not None:
            if channel is None:
                channel = tiering.dram_channel
            elif channel is not tiering.dram_channel:
                raise ValueError(
                    "channel must be the tiering geometry's DRAM home "
                    "(or omitted)"
                )
        if channel is None:
            raise ValueError("pass a channel or a tiering= geometry")
        self.channel = channel
        self.config = config if config is not None else LookupTableConfig()
        if self.config.mode not in ("bounce", "recirculate"):
            raise ValueError(f"unknown mode: {self.config.mode!r}")
        if self.config.layout not in ("direct", "cuckoo"):
            raise ValueError(f"unknown layout: {self.config.layout!r}")
        needed = self.config.region_bytes
        if needed > channel.length:
            raise ValueError(
                f"layout {self.config.layout!r} needs {needed} B, exceeding "
                f"the channel's {channel.length} B"
            )
        # Mode and geometry, fixed at construction: whether misses bounce
        # the packet, bytes per indexed unit (bucket pair or entry), and
        # the action field one READ fetches — one slot (direct) or the
        # whole bucket pair (cuckoo) — as a width and its slot offsets.
        self._bounce = self.config.mode == "bounce"
        self._entries = self.config.entries
        self._slot_space = self.config.packet_slot_bytes
        self._action_bytes = (
            self.config.bucket_pair_bytes if self.config.layout == "cuckoo" else ACTION_BYTES
        )
        self._slot_offsets = tuple(range(0, self._action_bytes, ACTION_BYTES))
        self._unit_bytes = unit = self._action_bytes + self._slot_space
        if tiering is not None and tiering.unit_bytes != unit:
            raise ValueError(
                f"tiering geometry unit_bytes={tiering.unit_bytes} does "
                f"not match the layout's indexed unit ({unit} B)"
            )
        self.default_action = (
            default_action
            if default_action is not None
            else RemoteAction(ACTION_NOP, 0)
        )
        #: This table's scope in the simulation's metric registry
        #: ("lookup", "lookup#2", ... — one per table, never aliased).
        self.metrics = switch.sim.obs.registry.unique_scope("lookup")
        self._m_local_hits = self.metrics.counter("local_hits")
        self._m_remote_lookups = self.metrics.counter("remote_lookups")
        self._m_remote_hits = self.metrics.counter("remote_hits")
        self._m_remote_invalid = self.metrics.counter("remote_invalid")
        self._m_fp_mismatches = self.metrics.counter("fingerprint_mismatches")
        self._m_cache_inserts = self.metrics.counter("cache_inserts")
        self._m_cache_evictions = self.metrics.counter("cache_evictions")
        self._m_recirc_passes = self.metrics.counter("recirculation_passes")
        self._m_lookups_lost = self.metrics.counter("lookups_lost")
        self._m_degraded_hits = self.metrics.counter("degraded_hits")
        self._m_degraded_defaults = self.metrics.counter("degraded_defaults")
        self._m_latency = self.metrics.histogram("remote_latency_ns")
        # In-flight lookups live in the requester's window, one per PSN
        # stream: psn -> (flow, fingerprint, tier block, ``meta`` copy, issue
        # time, parked packet).  A READ that drew no response is a lost
        # lookup; a re-install blanks the flow (no cache fill).  Tiered
        # tables run one PSN stream per tier: fast-resident bucket pairs
        # ride the fast channel's generator.
        self.rocegen = RoceRequestGenerator(
            switch, channel, self._on_loss, on_response=self._on_response
        )
        self._fastgen: Optional[RoceRequestGenerator] = None
        self._fast_degraded = False
        self._busy_blocks: Dict[int, int] = {}
        if tiering is not None:
            self._fastgen = RoceRequestGenerator(
                switch, tiering.fast_channel, self._on_loss, on_response=self._on_response
            )
            tiering.busy_check = (
                lambda block: self._busy_blocks.get(block, 0) > 0
            )
        self._windows = [self.rocegen.window]
        if self._fastgen is not None:
            self._windows.append(self._fastgen.window)
        self.metrics.gauge("pending", fn=lambda: sum(map(len, self._windows)))
        # Degraded mode (DESIGN.md §11): serve SRAM-cache hits and the
        # default action instead of bouncing packets into a dead channel.
        self._degraded = False
        self.metrics.gauge("degraded", fn=lambda: int(self._degraded))
        self.metrics.gauge("hit_rate", fn=self._cache_hit_rate)
        policy = self.config.policy
        self.cache: Optional[CachePolicy] = None
        if self.config.cache_entries > 0:
            if isinstance(policy, CachePolicy):
                self.cache = policy
            else:
                self.cache = make_cache_policy(
                    policy,
                    self.config.cache_entries,
                    metrics_scope=self.metrics.child("cache"),
                    seed=self.config.policy_seed,
                    pin_threshold=self.config.pin_threshold,
                )
        # Cuckoo layout (repro.cuckoo): the control-plane directory owns
        # placement; the data plane keeps only the two hash seeds and the
        # on-chip choice filter.  ``install_seeds`` / the controller's
        # ``install_hash_seeds`` can reseed while the table is empty.
        self.directory: Optional[CuckooDirectory] = None
        self.dataplane = None
        #: flow → installed action (what a move rewrites; ``stale_cached``'s truth).
        self._installed: Dict[FiveTuple, RemoteAction] = {}
        if self.config.layout == "cuckoo":
            self._build_directory(self.config.hash_seed)
            cuckoo_scope = self.metrics.child("cuckoo")
            cuckoo_scope.gauge("keys", fn=lambda: len(self.directory))
            cuckoo_scope.gauge("load", fn=lambda: self.directory.load)
            cuckoo_scope.gauge("kicks", fn=lambda: self.directory.kicks)
            cuckoo_scope.gauge(
                "relocations", fn=lambda: self.directory.relocations
            )
            cuckoo_scope.gauge(
                "failed_inserts", fn=lambda: self.directory.failed_inserts
            )
        #: Program-supplied forwarding policy applied after the action
        #: mutates the packet.  The default understands ACTION_SET_EGRESS
        #: and drops everything else.
        self.resolve_egress: ResolveEgress = self._default_resolve
        #: How packets map to table keys.  Defaults to the full 5-tuple;
        #: programs override it to key on a subset (e.g. the §2.2 virtual
        #: switch keys on the destination VIP alone).
        self.flow_of: Callable[[Packet], FiveTuple] = FiveTuple.of

    def _cache_hit_rate(self) -> float:
        lookups = self._m_local_hits.value + self._m_remote_lookups.value
        return self._m_local_hits.value / lookups if lookups else 0.0

    # -- control plane: populating the remote table ---------------------------------

    def key_of(self, packet: Packet) -> FiveTuple:
        """The table key for *packet* (``flow_of`` under the unified API)."""
        return self.flow_of(packet)

    def index_of(self, flow: FiveTuple) -> int:
        """The index the data plane READs for *flow*.

        Direct layout: ``hash % entries``.  Cuckoo layout: the pair the
        choice filter selects (``h1`` on positive, ``h0`` on negative) —
        always the pair actually holding the flow, by the invariant.
        """
        if self.dataplane is not None:
            return self.dataplane.read_index(flow.pack())
        return flow.hash() % self.config.entries

    def entry_address(self, index: int) -> int:
        """DRAM-home address of indexed unit *index* (entry or bucket pair).

        Tiered tables resolve the *current* serving address per operation
        through :meth:`_locate`; the home address stays valid for probes.
        """
        return self.channel.base_address + index * self._unit_bytes

    def _locate_tiered(self, index: int) -> "Tuple[RoceRequestGenerator, int, int]":
        """(generator, address, block) serving *index* right now."""
        tiering = self._tiering
        tier, address = tiering.resolve(index)
        tiering.record_access(index, tier)
        gen = self._fastgen if tier == TIER_FAST else self.rocegen
        return gen, address, tiering.block_of(index)

    def _entry_target(self, index: int) -> "Tuple[object, int]":
        """(region, address) the control plane must write for *index*.

        Installs always target the copy the data plane currently reads —
        writing the DRAM home of a fast-resident pair would leave the
        fast copy stale until its next demotion.
        """
        if self._tiering is None:
            channel = self.channel
            return channel.region, channel.base_address + index * self._unit_bytes
        tier, address = self._tiering.resolve(index)
        return self._tiering.channel_for(tier).region, address

    def _release_block(self, block: int) -> None:
        count = self._busy_blocks.get(block, 0) - 1
        if count <= 0:
            self._busy_blocks.pop(block, None)
        else:
            self._busy_blocks[block] = count

    def _write_off(self, record: tuple) -> None:
        """Account one in-flight lookup as lost (§7's clean loss)."""
        block = record[2]  # the tier block it held, if any
        if block is not None:
            self._release_block(block)
        self._m_lookups_lost.value += 1

    def _on_loss(self, gen: RoceRequestGenerator, lost: List[Tuple[int, Any]], cause: str) -> None:
        """READs that drew no response: their lookups are lost (in bounce
        mode the packet is gone with them)."""
        for _psn, record in lost:
            self._write_off(record)

    def _write_off_window(self, window: Dict[int, tuple]) -> None:
        for record in window.values():
            self._write_off(record)
        window.clear()

    def _build_directory(self, seed: int) -> None:
        self.directory = CuckooDirectory(
            CuckooConfig(
                pairs=self.config.pairs,
                slots_per_bucket=self.config.slots_per_bucket,
                seed=seed,
                max_kicks=self.config.max_kicks,
                max_relocations=self.config.max_relocations,
            ),
            packer=methodcaller("pack"),
        )
        self.dataplane = self.directory.dataplane

    def install_seeds(self, seed: int) -> Tuple[int, int]:
        """Reseed the cuckoo hashes; only legal while the table is empty.

        Returns the derived ``(seed0, seed1)`` pair the data plane now
        uses.  Called by the controller's ``install_hash_seeds`` — the
        §3-style control-plane hand-off of channel *and* hash state.
        """
        if self.directory is None:
            raise ValueError(
                "install_seeds requires layout='cuckoo' "
                f"(this table is {self.config.layout!r})"
            )
        if len(self.directory) > 0:
            raise ValueError(
                "cannot reseed a populated cuckoo table: "
                f"{len(self.directory)} flows already placed"
            )
        self._build_directory(seed)
        return self.dataplane.seed0, self.dataplane.seed1

    def install(self, flow: FiveTuple, action: RemoteAction) -> int:
        """Control-plane write of *action* for *flow* into the remote table.

        Returns the entry index (direct) or final pair index (cuckoo).
        (The controller writes through its own channel to the server;
        modelled as a direct region write.)  Cuckoo inserts may relocate
        other flows; every move is mirrored remotely — new slots written
        first, vacated slots zeroed after — and the whole batch lands
        between packets, so the data plane never observes a torn pair.
        Raises :class:`~repro.cuckoo.CuckooFullError` (with the
        directory rolled back) when placement is impossible.
        """
        if self.directory is not None:
            return self._install_cuckoo(flow, action)
        index = self.index_of(flow)
        data = action.pack_with(fingerprint_of(flow))
        region, address = self._entry_target(index)
        region.write(address, data)
        self._installed[flow] = action
        self._refresh_cached(flow, action)
        return index

    def _refresh_cached(self, flow: FiveTuple, action: RemoteAction) -> None:
        """A (re-)installed flow's SRAM copy must not outlive the entry it
        mirrored.  ``contains`` asks without touching recency or counters.
        Its lookups in flight lose their flow: a READ that ran before this
        write still steers its own packet (the bound: one round trip), but
        never fills the cache with the superseded action."""
        cache = self.cache
        if cache is None:
            return
        for window in self._windows:
            for psn, record in window.items():
                if record[0] == flow:
                    window[psn] = (None,) + record[1:]
        if cache.contains(flow):
            cache.admit(flow, action)

    def stale_cached(self) -> List[FiveTuple]:
        """Cached flows whose SRAM action is not the installed one (none at
        quiescence); ``peek`` touches no recency or counter."""
        cache = self.cache
        installed = self._installed.items() if cache is not None else ()
        return [flow for flow, action in installed if cache.peek(flow) not in (None, action)]

    def _write_slot(self, ref, data: bytes) -> None:
        table, index, slot = ref
        offset = (table * self.config.slots_per_bucket + slot) * ACTION_BYTES
        if self._tiering is None:  # straight into the one region
            channel = self.channel
            return channel.region.write(channel.base_address + index * self._unit_bytes + offset, data)
        region, pair_base = self._entry_target(index)
        region.write(pair_base + offset, data)

    def _install_cuckoo(self, flow: FiveTuple, action: RemoteAction) -> int:
        packed = flow.pack()  # once: the directory's key bytes, the fingerprint's input
        directory = self.directory
        moves = directory.insert(flow, packed)  # may raise CuckooFullError
        self._installed[flow] = action
        if len(moves) <= 1:
            # One write: a fresh slot with nothing displaced (the common
            # insert), or a re-install rewriting its entry in place.
            ref = moves[0].dst if moves else directory.slot_ref(directory.location[flow])
            self._write_slot(ref, action.pack_with(flow_fingerprint(packed)))
            if not moves:
                self._refresh_cached(flow, action)
            return ref.index
        for move in moves:
            moved_action = self._installed[move.key]
            self._write_slot(
                move.dst, moved_action.pack_with(fingerprint_of(move.key))
            )
        # Zero every vacated slot the directory now holds empty, even one
        # an earlier move wrote: remote bytes must match the directory.
        for move in moves:
            src = move.src
            if src is not None and directory.slot_key(src) is None:
                self._write_slot(src, _EMPTY_SLOT)
        return directory.slot_ref(directory.location[flow]).index

    # -- data plane ---------------------------------------------------------------

    def lookup(
        self, ctx: PipelineContext, packet: Packet,
        flow: Optional[FiveTuple] = None, packed: Optional[bytes] = None,
    ) -> bool:
        """Resolve and apply the action for *packet*.

        Returns True when the packet was handled locally (cache hit: the
        action has been applied synchronously) and False when a remote
        lookup is in flight (the packet was bounced or parked; the caller
        must not forward it).  A front end that already extracted the key
        to choose this table (the sharded table) passes it as *flow* with
        its *packed* bytes, so a pass digests the key once.
        """
        if flow is None:
            flow = self.flow_of(packet)
        if self.cache is not None:
            action = self.cache.lookup(flow)
            if action is not None:
                self._m_local_hits.value += 1
                if self._degraded:
                    self._m_degraded_hits.value += 1
                self._apply(ctx, packet, action)
                return True
        if self._degraded:
            # Breaker open: the remote table is unreachable, so a cache
            # miss gets the default action instead of a bounce that would
            # strand the packet in a dead channel.
            self._m_degraded_defaults.value += 1
            self._apply(ctx, packet, self.default_action)
            return True
        self._remote_lookup(ctx, packet, flow, flow.pack() if packed is None else packed)
        return False

    def _apply(
        self, ctx: PipelineContext, packet: Packet, action: RemoteAction
    ) -> None:
        self._mutate(ctx, packet, action)
        port = self.resolve_egress(packet, action)
        if port is None or action.action_id == ACTION_DROP:
            ctx.drop()
        else:
            ctx.forward(port)

    def _remote_lookup(
        self, ctx: PipelineContext, packet: Packet, flow: FiveTuple, packed: bytes
    ) -> None:
        """Bounce (or park) *packet*; the READ index and the fingerprint the
        response is matched by both derive from *packed*, the key's bytes.
        A frame too large for the entry's packet slot is dropped first, as
        a lost lookup: no request, so one READ per miss still holds."""
        if self._bounce and packet.buffer_len > self._slot_space:
            self._m_lookups_lost.value += 1
            ctx.drop()
            return
        self._m_remote_lookups.value += 1
        dataplane = self.dataplane
        if dataplane is not None:
            index = dataplane.read_index(packed)
        else:
            index = zlib.crc32(packed) % self._entries
        if self._tiering is None:
            gen, block = self.rocegen, None
            address = self.channel.base_address + index * self._unit_bytes
        else:
            gen, address, block = self._locate_tiered(index)
        # Direct layout READs one action; cuckoo READs the whole bucket
        # pair (2 x slots_per_bucket actions) in the same single request —
        # the choice filter already picked the index, so there is never a
        # second READ, collision or not.
        action_bytes = self._action_bytes
        if block is not None:
            # Held against tier moves until the lookup is answered or lost.
            self._busy_blocks[block] = self._busy_blocks.get(block, 0) + 1
        if self._bounce:
            # (1) deposit the packet in the entry's slot, (2) read the
            # whole (actions, packet) entry back.
            frame = packet.pack()
            gen.write(address + action_bytes, frame)
            length, parked = action_bytes + len(frame), None
        else:
            # §7 alternative: keep the packet recirculating locally and
            # fetch only the action slots.
            length, parked = action_bytes, packet
        gen.read(address, length, (
            flow, flow_fingerprint(packed), block, dict(packet.meta), self.switch.sim.now, parked
        ))
        ctx.drop()  # the original packet no longer proceeds on this pass

    # -- response path ----------------------------------------------------------------

    def _on_response(
        self,
        ctx: PipelineContext,
        packet: Packet,
        opcode: Optional[Opcode],
        is_nak: bool,
        record: Any,
    ) -> None:
        """A response the switch steered to one of this table's QPs: a READ
        response completes the lookup the requester paired it with by PSN
        (lookups it lost on the way reached _on_loss)."""
        if opcode is not _READ_RESPONSE or record is None:
            return  # a NAK, or stale: from before a resync, or a probe
        flow, fingerprint, block, meta, issued_at, original = record
        if block is not None:
            self._release_block(block)
        now = self.switch.sim.now
        self._m_latency.observe(now - issued_at)
        entry = packet.payload
        action_bytes = self._action_bytes
        if len(entry) < action_bytes:
            # A READ response shorter than the action field it was asked
            # for: nothing in it can be trusted — the clean loss of §7.
            self._m_lookups_lost.value += 1
            return
        action = self._resolve_entry(entry, flow, fingerprint)
        if self._bounce:
            try:
                original = Packet.parse(entry, action_bytes)
            except HeaderError:
                # The bounced frame came back undecodable (corrupted in
                # the slot or on the wire): the clean loss of §7.
                self._m_lookups_lost.value += 1
                return
            original.meta = meta  # the copy taken at the bounce
        else:
            # Account the pipeline passes spent waiting in recirculation.
            passes = (now - issued_at) // self.switch.config.recirculation_latency_ns
            self._m_recirc_passes.value += max(1, int(passes))
        self._mutate(ctx, original, action)
        port = self.resolve_egress(original, action)
        if port is not None and action.action_id != ACTION_DROP:
            # The original packet resumes its journey out of the resolved
            # port; the response packet itself stays dropped.
            ctx.emit(original, port)

    def _resolve_entry(
        self, entry: bytes, flow: Optional[FiveTuple], fingerprint: int
    ) -> RemoteAction:
        """The action the fetched action field holds for *flow*.

        One pass over the slots one READ brought back — a single slot
        (direct layout) or the ``2 x slots_per_bucket`` slots of the bucket
        pair (cuckoo; the pipeline-stage analogue of a bucket compare,
        still within the same single READ) — decoding each in place and
        building an action only for the valid slot whose fingerprint
        matches.  *entry* holds at least the action field (the caller
        checked).  No match: the default action — occupied slots belong to
        other flows (a mismatch: never apply another flow's action), an
        empty field is simply invalid.
        """
        occupied = False
        for offset in self._slot_offsets:
            valid, action_id, param, stored = _UNPACK_ACTION(entry, offset)
            if valid:
                if stored == fingerprint:
                    self._m_remote_hits.value += 1
                    action = RemoteAction(action_id, param)
                    if self.cache is not None and self.config.cache_fill and flow is not None:
                        self._cache_fill(flow, action)  # None: a re-install raced the READ
                    return action
                occupied = True
        if occupied:
            self._m_fp_mismatches.value += 1
        else:
            self._m_remote_invalid.value += 1
        return self.default_action

    # -- degraded mode & recovery (DESIGN.md §11) --------------------------------

    def degrade(self, channel: Optional[RemoteMemoryChannel] = None) -> None:
        """Enter degraded mode: cache hits and default action only.

        In-flight bounced lookups are written off as lost — their packets
        are stranded in the remote entry slots of a dead channel, the
        same accounting §7 applies to RDMA drops.  (The packet *buffer*
        recovers stranded contents because it owns its ring exclusively;
        a lookup entry slot is overwritten by the next bounce, so replay
        after an outage could emit a stale packet.)
        """
        if self._degraded:
            return
        self._degraded = True
        for window in self._windows:
            self._write_off_window(window)

    def degrade_fast(self) -> None:
        """Fast tier unhealthy: spill to DRAM and keep serving (§13).

        The demote-not-drop half of degraded mode for the lookup table:
        in-flight fast-tier lookups are written off (their bounced
        packets sit in an unreachable window — the same accounting §7
        applies to drops), the fast blocks are written back to their
        DRAM homes, and misses keep bouncing against DRAM.  Installed
        actions lose nothing: the write-back carries them home.
        """
        if self._tiering is None or self._fast_degraded:
            return
        self._fast_degraded = True
        self._write_off_window(self._fastgen.window)
        self._tiering.fast_enabled = False
        self._tiering.demote_all(force=True)

    def recover_fast(self) -> None:
        """Re-enable the fast tier after its channel came back."""
        if self._tiering is None or not self._fast_degraded:
            return
        self._fast_degraded = False
        self._tiering.fast_enabled = True

    def probe(self, channel: Optional[RemoteMemoryChannel] = None) -> None:
        """Send one canary READ of entry 0 down the (possibly fresh) QP.

        Untracked: the response's unknown PSN makes the response handler
        treat it as stale after the requester reported progress — exactly
        what the breaker needs.
        """
        self.rocegen.read(self.entry_address(0), ACTION_BYTES)

    def recover(self, channel: Optional[RemoteMemoryChannel] = None) -> None:
        """Leave degraded mode: misses bounce remotely again.

        No reconciliation is needed — the remote table is control-plane
        state that survived the outage untouched, and the cache stayed
        warm the whole time.
        """
        self._degraded = False

    def _cache_fill(self, flow: FiveTuple, action: RemoteAction) -> None:
        assert self.cache is not None
        inserted, evicted = self.cache.admit(flow, action)
        if evicted:
            self._m_cache_evictions.value += evicted
        if inserted:
            self._m_cache_inserts.value += 1

    def _mutate(
        self, ctx: PipelineContext, packet: Packet, action: RemoteAction
    ) -> None:
        """Apply the packet-modifying part of the built-in actions."""
        if action.action_id == ACTION_SET_DSCP:
            ip = packet.find(Ipv4Header)
            if ip is not None:
                ip.dscp = action.param & 0x3F
        elif action.action_id == ACTION_SET_DST_IP:
            ip = packet.find(Ipv4Header)
            if ip is not None:
                ip.dst = Ipv4Address(action.param)

    @staticmethod
    def _default_resolve(packet: Packet, action: RemoteAction) -> Optional[int]:
        """Default forwarding policy when the program installs none."""
        if action.action_id == ACTION_SET_EGRESS:
            return action.param
        return None
