"""Experiment harnesses regenerating the paper's tables and figures.

One module per result:

* :mod:`.fig3a`              — latency overhead of the lookup primitive
* :mod:`.fig3b`              — bandwidth overhead of the state store
* :mod:`.packet_buffer_rate` — §5 lossless store/forward rates
* :mod:`.incast`             — §2.1 / Fig. 1a incast comparison
* :mod:`.overhead`           — §4 RoCE header overhead table
* :mod:`.baremetal`          — §2.2 / Fig. 1b VIP→PIP translation
* :mod:`.telemetry`          — §2.3 / Fig. 1c sketch/counter scaling
* :mod:`.kv_cache`           — §2.2/§6 in-network KV cache study
* :mod:`.persistent_congestion` — §2.1 bursts-vs-persistence with ECN
* :mod:`.ablations`          — §7 design-choice ablations
* :mod:`.scaleout`           — cluster sharding / failover studies
* :mod:`.chaos`              — lossy-link soak (fault injection + recovery)
* :mod:`.linkguard`          — link protection: guard vs breaker goodput (§14)
* :mod:`.lookup_scale`       — EMOMA-scale cuckoo/cache/Zipf lookup study
* :mod:`.tiering`            — tiered-memory placement-policy study (§13)

Each ``run_*`` harness has a matching ``format_*`` text renderer in the
same module; import both from there.  The library surface itself
(primitives, testbed, observability) lives in :mod:`repro.api`.
"""
