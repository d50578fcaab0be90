"""The supported public surface of the library, in one import.

The names the examples, the tests and the benchmark use ride this
facade::

    from repro.api import build_testbed, LookupTableConfig, RemoteLookupTable

    tb = build_testbed(n_hosts=2)
    channel = tb.controller.open_channel(tb.memory_server, tb.server_port, ...)
    table = RemoteLookupTable(tb.switch, channel, LookupTableConfig(...))
    tb.sim.run()
    print(table.metrics["remote_lookups"])

A name goes on the facade when something imports it from here.  Deep
imports (``repro.core.lookup_table`` etc.) keep working, but only the
names exported here are treated as stable API; internals may move
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
    "sim.units": ("gbps", "kib", "mib", "to_msec", "to_usec", "usec"),
    "testbed": ("DEFAULT_LINK_RATE", "build_testbed"),
    # -- switch ------------------------------------------------------------
    "switches.traffic_manager": ("TrafficManagerConfig",),
    "switches.pipeline": ("PipelineContext",),
    "switches.hashing": ("FiveTuple",),
    # -- the three primitives (§4) -----------------------------------------
    "core.lookup_table": (
        "ACTION_SET_DSCP", "ACTION_SET_EGRESS", "LookupTableConfig",
        "RemoteAction", "RemoteLookupTable",
    ),
    "core.packet_buffer": (
        "ENTRY_SEQ_BYTES", "PacketBufferConfig", "RemotePacketBuffer",
    ),
    "core.state_store": ("RemoteStateStore", "StateStoreConfig"),
    "core.rocegen": ("RoceRequestGenerator",),
    # -- tiered remote memory (DESIGN.md §13) ----------------------------------
    "rdma.memory": ("TIER_FAST",),
    "tiering.pool": ("TieredMemoryPool",),
    # -- million-flow workloads (DESIGN.md §12) --------------------------------
    "workloads.zipf": ("OpenLoopZipfTraffic", "ZipfGenerator"),
    # -- switch programs -----------------------------------------------------
    "apps.programs": (
        "CountingProgram", "RemoteBufferProgram", "RemoteLookupProgram",
        "StaticL2Program",
    ),
    # -- L4 load balancer (DESIGN.md §15) --------------------------------------
    "apps.l4lb": (
        "BACKEND_DEAD", "BACKEND_RETIRED", "L4LbController", "L4LbProgram",
    ),
    # -- packets, servers and NICs -------------------------------------------
    "net.packet": ("Packet",),
    "hosts.server": ("Host",),
    "rdma.rnic": ("TierProfile",),
    "rdma.packets": ("integrity_protected",),
    # -- fault injection (DESIGN.md §10) ---------------------------------------
    "faults.models": ("Blackout", "Corrupt", "IidLoss"),
    "faults.plan": ("FaultPlan",),
    # -- resilience (DESIGN.md §11) --------------------------------------------
    "policies.breaker": ("BreakerPolicy",),
    "resilience.breaker": ("CircuitBreakerConfig",),
    "resilience.guard": ("SelfHealingChannel",),
    # -- link-local loss protection (DESIGN.md §14) ----------------------------
    "linkguard.guard": ("LinkGuard",),
    # -- cluster scale-out ---------------------------------------------------
    "cluster.pool": ("MemoryPool",),
    "cluster.sharded_lookup": ("ShardedLookupTable",),
    "cluster.replicated_store": ("ReplicatedStateStore",),
    # -- observability -------------------------------------------------------
    "obs": ("Observability",),
    "obs.trace": ("WireTrace",),
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
