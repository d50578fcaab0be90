"""Cluster subsystem: sharded, replicated external-memory pools.

Scale-out layer over the single-server primitives (§7): a
:class:`MemoryPool` owns channels to many memory servers, places shards
with a deterministic :class:`ConsistentHashRing`, watches the uniform
channel health signal through a :class:`HealthMonitor`, and coordinates
live migration on membership change.  :class:`ShardedLookupTable` and
:class:`ReplicatedStateStore` are pool-backed drop-ins for the
single-channel primitives.
"""
