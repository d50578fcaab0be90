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
between modules without notice.

The facade is one table from each exported name to the module that
defines it, resolved on first use (PEP 562): ``import repro.api`` loads
no other module, and ``from repro.api import X`` loads X's module and
what that module itself imports, nothing more.  A process that runs one
primitive never compiles the others.
"""

import importlib

#: Defining module (relative to :mod:`repro`) → the names exported from it.
_EXPORTS = {
    # -- simulation kernel and testbed -------------------------------------
    "sim.simulator": ("Simulator",),
    "sim.units": (
        "gbps", "gib", "kib", "mib", "msec", "nsec", "to_msec", "to_usec",
        "usec",
    ),
    "testbed": (
        "DEFAULT_LINK_RATE", "DEFAULT_PROPAGATION_NS", "Testbed",
        "build_testbed",
    ),
    # -- switch and control plane ------------------------------------------
    "switches.switch": ("ProgrammableSwitch", "SwitchConfig"),
    "switches.traffic_manager": ("TrafficManagerConfig",),
    "switches.pipeline": ("PipelineContext", "SwitchProgram"),
    "switches.hashing": ("FiveTuple",),
    "core.channel": (
        "ChannelError", "RdmaChannelController", "RemoteMemoryChannel",
    ),
    # -- the three primitives (§4) -----------------------------------------
    "core.lookup_table": (
        "ACTION_DROP", "ACTION_NOP", "ACTION_SET_DSCP", "ACTION_SET_DST_IP",
        "ACTION_SET_EGRESS", "LookupTableConfig", "LookupTableStats",
        "RemoteAction", "RemoteLookupTable",
    ),
    "core.packet_buffer": (
        "ENTRY_SEQ_BYTES", "PacketBufferConfig", "PacketBufferStats",
        "RemotePacketBuffer",
    ),
    "core.state_store": (
        "RemoteStateStore", "StateStoreConfig", "StateStoreStats",
    ),
    "core.rocegen": ("RoceRequestGenerator",),
    # -- cuckoo remote layout (DESIGN.md §12) --------------------------------
    "cuckoo.filter": ("ChoiceFilter",),
    "cuckoo.layout": (
        "CuckooConfig", "CuckooDataPlane", "CuckooDirectory",
        "CuckooFullError", "Move", "SlotRef",
    ),
    # -- unified policy surface (DESIGN.md §12/§13) ----------------------------
    "policies": ("make_policy",),
    "policies.base": ("POLICY_KINDS", "Policy"),
    "policies.cache": (
        "CACHE_POLICIES", "CachePolicy", "FifoCachePolicy", "LfuCachePolicy",
        "LruCachePolicy", "PinningCachePolicy", "make_cache_policy",
    ),
    "policies.placement": (
        "PLACEMENT_POLICIES", "PlacementPolicy", "StaticPinPlacement",
        "AccessFrequencyPlacement", "WatermarkPlacement",
        "make_placement_policy", "BlockStat", "PlacementView", "TierMove",
    ),
    "policies.breaker": ("BreakerPolicy",),
    # -- tiered remote memory (DESIGN.md §13) ----------------------------------
    "rdma.memory": ("TIER_DRAM", "TIER_FAST", "TIERS"),
    "tiering.pool": ("TieredMemoryPool",),
    "tiering.geometry": ("TieredRegionGeometry",),
    # -- million-flow workloads (DESIGN.md §12) --------------------------------
    "workloads.zipf": ("OpenLoopZipfTraffic", "ZipfGenerator"),
    # -- switch programs -----------------------------------------------------
    "apps.programs": (
        "CountingProgram", "RemoteBufferProgram", "RemoteLookupProgram",
        "StaticL2Program",
    ),
    # -- L4 load balancer (DESIGN.md §15) --------------------------------------
    "apps.l4lb": (
        "BACKEND_ACTIVE", "BACKEND_DEAD", "BACKEND_DRAINING",
        "BACKEND_RETIRED", "Backend", "L4LbController", "L4LbProgram",
        "L4LbStats", "MigrationRecord",
    ),
    # -- packets, servers and NICs -------------------------------------------
    "net.packet": ("Packet",),
    "hosts.server": ("Host", "MemoryServer"),
    "rdma.rnic": ("Rnic", "RnicConfig", "TierProfile"),
    "rdma.packets": (
        "integrity_protected", "set_integrity_default", "verify_icrc",
    ),
    # -- fault injection (DESIGN.md §10) ---------------------------------------
    "faults.models": (
        "Blackout", "Corrupt", "Duplicate", "GilbertElliottLoss", "IidLoss",
        "Jitter", "LinkFault", "Reorder",
    ),
    "faults.injectors": (
        "AtomicEngineStall", "LinkFaultInjector", "RnicBlackout",
        "RnicDropBurst", "RnicFault", "RnicFaultInjector",
    ),
    "faults.plan": ("FaultPlan",),
    # -- resilience (DESIGN.md §11) --------------------------------------------
    "resilience.breaker": ("CircuitBreaker", "CircuitBreakerConfig"),
    "resilience.guard": ("SelfHealingChannel",),
    # -- link-local loss protection (DESIGN.md §14) ----------------------------
    "linkguard.guard": ("LinkGuard", "LinkGuardConfig", "PROTECTION_LEVELS"),
    "linkguard.shim": (
        "ETHERTYPE_LINKGUARD", "GuardShimHeader", "guard_checksum",
    ),
    # -- cluster scale-out ---------------------------------------------------
    "cluster.pool": ("MemoryPool", "PoolMember"),
    "cluster.health": ("HealthMonitor",),
    "cluster.sharded_lookup": ("ShardedLookupTable",),
    "cluster.replicated_store": ("ReplicatedStateStore",),
    # -- observability -------------------------------------------------------
    "obs": ("Observability",),
    "obs.registry": (
        "Counter", "Gauge", "Histogram", "MetricRegistry", "MetricScope",
    ),
    "obs.trace": ("TraceEvent", "WireTrace"),
}

#: Exported name → its defining module, the table ``__getattr__`` reads.
_MODULE_OF = {
    name: module for module, names in _EXPORTS.items() for name in names
}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"repro.{module}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return list(__all__)
