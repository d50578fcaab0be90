"""Self-healing channels: circuit breakers, QP reconnect, degraded modes.

See DESIGN.md §11.  The subsystem layers an end-to-end recovery policy
on top of the fault machinery from §10: a per-channel
:class:`CircuitBreaker` trips on accumulated stall evidence, the
:class:`SelfHealingChannel` guard reconnects the QP pair and drives the
owning primitive through its degraded mode, and every primitive
guarantees a reconciliation story (zero lost counter updates, in-order
stranded-packet drain, counted cache/default service).
"""
