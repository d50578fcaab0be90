"""The supported public surface of the library, in one import.

Everything a program, example, or downstream experiment needs rides this
facade::

    from repro.api import (
        build_testbed, LookupTableConfig, RemoteLookupTable, Observability,
    )

    tb = build_testbed(n_hosts=2)
    channel = tb.controller.open_channel(tb.memory_server, tb.server_port, ...)
    table = RemoteLookupTable(tb.switch, channel, LookupTableConfig(...))
    tb.sim.run()
    print(tb.sim.obs.registry.snapshot("lookup"))

Deep imports (``repro.core.lookup_table`` etc.) keep working, but only
the names exported here are treated as stable API; internals may move
between modules without notice (the testbed builder already did — see
:mod:`repro.experiments.topology`).

This module deliberately imports no experiment harness, so
``import repro.api`` stays cheap and cycle-free (harnesses themselves
import it).
"""

from __future__ import annotations

# -- simulation kernel and testbed -----------------------------------------
from .sim.batch import BatchSimulator
from .sim.simulator import (
    KERNELS,
    Simulator,
    default_kernel,
    kernel_mode,
    set_default_kernel,
)
from .sim.units import (
    gbps,
    gib,
    kib,
    mib,
    msec,
    nsec,
    to_msec,
    to_usec,
    usec,
)
from .testbed import (
    DEFAULT_LINK_RATE,
    DEFAULT_PROPAGATION_NS,
    Testbed,
    build_testbed,
)

# -- switch and control plane ----------------------------------------------
from .switches.switch import ProgrammableSwitch, SwitchConfig
from .switches.traffic_manager import TrafficManagerConfig
from .core.channel import (
    ChannelError,
    RdmaChannelController,
    RemoteMemoryChannel,
)

# -- the three primitives (§4) ---------------------------------------------
from .core.lookup_table import (
    ACTION_DROP,
    ACTION_NOP,
    ACTION_SET_DSCP,
    ACTION_SET_DST_IP,
    ACTION_SET_EGRESS,
    LookupTableConfig,
    LookupTableStats,
    RemoteAction,
    RemoteLookupTable,
)
from .switches.hashing import FiveTuple
from .core.packet_buffer import (
    ENTRY_SEQ_BYTES,
    PacketBufferConfig,
    PacketBufferStats,
    RemotePacketBuffer,
)
from .core.state_store import (
    RemoteStateStore,
    StateStoreConfig,
    StateStoreStats,
)
from .core.rocegen import RoceRequestGenerator

# -- cuckoo remote layout (DESIGN.md §12) ------------------------------------
from .cuckoo import (
    ChoiceFilter,
    CuckooConfig,
    CuckooDataPlane,
    CuckooDirectory,
    CuckooFullError,
    Move,
    SlotRef,
)

# -- unified policy surface (DESIGN.md §12/§13) -------------------------------
from .policies import (
    CACHE_POLICIES,
    PLACEMENT_POLICIES,
    POLICY_KINDS,
    AccessFrequencyPlacement,
    BlockStat,
    BreakerPolicy,
    CachePolicy,
    FifoCachePolicy,
    LfuCachePolicy,
    LruCachePolicy,
    PinningCachePolicy,
    PlacementPolicy,
    PlacementView,
    Policy,
    StaticPinPlacement,
    TierMove,
    WatermarkPlacement,
    make_cache_policy,
    make_placement_policy,
    make_policy,
)

# -- tiered remote memory (DESIGN.md §13) -------------------------------------
from .rdma.memory import TIER_DRAM, TIER_FAST, TIERS
from .rdma.rnic import TierProfile
from .tiering import TieredMemoryPool, TieredRegionGeometry

# -- million-flow workloads (DESIGN.md §12) ----------------------------------
from .workloads.zipf import OpenLoopZipfTraffic, ZipfGenerator

# -- switch programs --------------------------------------------------------
from .apps.programs import (
    CountingProgram,
    RemoteBufferProgram,
    RemoteLookupProgram,
    StaticL2Program,
)
from .switches.pipeline import PipelineContext, SwitchProgram

# -- L4 load balancer (DESIGN.md §15) ----------------------------------------
from .apps.l4lb import (
    BACKEND_ACTIVE,
    BACKEND_DEAD,
    BACKEND_DRAINING,
    BACKEND_RETIRED,
    Backend,
    L4LbController,
    L4LbProgram,
    L4LbStats,
    MigrationRecord,
)

# -- packets ----------------------------------------------------------------
from .net.packet import Packet

# -- servers and NICs -------------------------------------------------------
from .hosts.server import Host, MemoryServer
from .rdma.rnic import Rnic, RnicConfig
from .rdma.packets import (
    integrity_protected,
    set_integrity_default,
    verify_icrc,
)

# -- fault injection (DESIGN.md §10) ----------------------------------------
from .faults import (
    AtomicEngineStall,
    Blackout,
    Corrupt,
    Duplicate,
    FaultPlan,
    GilbertElliottLoss,
    IidLoss,
    Jitter,
    LinkFault,
    LinkFaultInjector,
    Reorder,
    RnicBlackout,
    RnicDropBurst,
    RnicFault,
    RnicFaultInjector,
)

# -- resilience (DESIGN.md §11) ---------------------------------------------
from .resilience import (
    CircuitBreaker,
    CircuitBreakerConfig,
    SelfHealingChannel,
)

# -- link-local loss protection (DESIGN.md §14) ------------------------------
from .linkguard import (
    ETHERTYPE_LINKGUARD,
    PROTECTION_LEVELS,
    GuardShimHeader,
    LinkGuard,
    LinkGuardConfig,
    guard_checksum,
)

# -- cluster scale-out ------------------------------------------------------
from .cluster.pool import MemoryPool, PoolMember
from .cluster.health import HealthMonitor
from .cluster.sharded_lookup import ShardedLookupTable
from .cluster.replicated_store import ReplicatedStateStore

# -- observability ----------------------------------------------------------
from .obs import (
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    MetricScope,
    Observability,
    TraceEvent,
    WireTrace,
)

__all__ = [
    # simulation + testbed
    "Simulator",
    "BatchSimulator",
    "KERNELS",
    "default_kernel",
    "kernel_mode",
    "set_default_kernel",
    "Testbed",
    "build_testbed",
    "DEFAULT_LINK_RATE",
    "DEFAULT_PROPAGATION_NS",
    "gbps",
    "gib",
    "kib",
    "mib",
    "msec",
    "nsec",
    "to_msec",
    "to_usec",
    "usec",
    # switch + control plane
    "ProgrammableSwitch",
    "SwitchConfig",
    "TrafficManagerConfig",
    "ChannelError",
    "RdmaChannelController",
    "RemoteMemoryChannel",
    # primitives
    "ACTION_DROP",
    "ACTION_NOP",
    "ACTION_SET_DSCP",
    "ACTION_SET_DST_IP",
    "ACTION_SET_EGRESS",
    "FiveTuple",
    "LookupTableConfig",
    "LookupTableStats",
    "RemoteAction",
    "RemoteLookupTable",
    "ENTRY_SEQ_BYTES",
    "PacketBufferConfig",
    "PacketBufferStats",
    "RemotePacketBuffer",
    "StateStoreConfig",
    "StateStoreStats",
    "RemoteStateStore",
    "RoceRequestGenerator",
    # cuckoo remote layout
    "ChoiceFilter",
    "CuckooConfig",
    "CuckooDataPlane",
    "CuckooDirectory",
    "CuckooFullError",
    "Move",
    "SlotRef",
    # unified policy surface
    "POLICY_KINDS",
    "Policy",
    "make_policy",
    "CACHE_POLICIES",
    "CachePolicy",
    "FifoCachePolicy",
    "LfuCachePolicy",
    "LruCachePolicy",
    "PinningCachePolicy",
    "make_cache_policy",
    "PLACEMENT_POLICIES",
    "PlacementPolicy",
    "StaticPinPlacement",
    "AccessFrequencyPlacement",
    "WatermarkPlacement",
    "make_placement_policy",
    "BlockStat",
    "PlacementView",
    "TierMove",
    "BreakerPolicy",
    # tiered remote memory
    "TIER_DRAM",
    "TIER_FAST",
    "TIERS",
    "TierProfile",
    "TieredMemoryPool",
    "TieredRegionGeometry",
    # million-flow workloads
    "OpenLoopZipfTraffic",
    "ZipfGenerator",
    # switch programs
    "CountingProgram",
    "PipelineContext",
    "RemoteBufferProgram",
    "RemoteLookupProgram",
    "StaticL2Program",
    "SwitchProgram",
    # L4 load balancer
    "BACKEND_ACTIVE",
    "BACKEND_DEAD",
    "BACKEND_DRAINING",
    "BACKEND_RETIRED",
    "Backend",
    "L4LbController",
    "L4LbProgram",
    "L4LbStats",
    "MigrationRecord",
    # packets
    "Packet",
    # hosts + NICs
    "Host",
    "MemoryServer",
    "Rnic",
    "RnicConfig",
    "integrity_protected",
    "set_integrity_default",
    "verify_icrc",
    # fault injection
    "AtomicEngineStall",
    "Blackout",
    "Corrupt",
    "Duplicate",
    "FaultPlan",
    "GilbertElliottLoss",
    "IidLoss",
    "Jitter",
    "LinkFault",
    "LinkFaultInjector",
    "Reorder",
    "RnicBlackout",
    "RnicDropBurst",
    "RnicFault",
    "RnicFaultInjector",
    # resilience
    "CircuitBreaker",
    "CircuitBreakerConfig",
    "SelfHealingChannel",
    # link-local loss protection
    "ETHERTYPE_LINKGUARD",
    "PROTECTION_LEVELS",
    "GuardShimHeader",
    "LinkGuard",
    "LinkGuardConfig",
    "guard_checksum",
    # cluster
    "MemoryPool",
    "PoolMember",
    "HealthMonitor",
    "ShardedLookupTable",
    "ReplicatedStateStore",
    # observability
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "MetricScope",
    "Observability",
    "TraceEvent",
    "WireTrace",
]
