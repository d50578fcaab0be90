"""Seeded, deterministic fault injection for the simulated fabric.

The paper evaluates on a clean testbed and only *observes* failure from
the outside ("RDMA requests were occasionally dropped at the NIC", §5);
the ROADMAP's north star — graceful degradation under any scenario —
demands the opposite: make every failure injectable, deterministic, and
observable, then prove the primitives recover.

Three pieces, composing with the existing layers:

* :mod:`.models` — link impairments (i.i.d. and Gilbert-Elliott burst
  loss, reordering, duplication, jitter, bit corruption) as pluggable
  transformers over a link's deliveries.
* :mod:`.injectors` — the attachment points: a per-:class:`~repro.net.link.Link`
  injector applying armed models, and a per-:class:`~repro.rdma.rnic.Rnic`
  wrapper for NIC-side failures (drop bursts, atomic-engine stalls,
  blackout/recovery).  Both account every injected event in the metric
  registry (``faults.link[...]`` / ``faults.rnic[...]``) and the wire
  trace (``FAULT`` events).
* :mod:`.plan` — :class:`FaultPlan`, the replayable schedule: inject at
  t=X for duration D, or on the Nth carried packet, with all randomness
  derived from one seed via :class:`~repro.sim.rng.SeedSequence`.

Recovery is the other half of the subsystem and lives where it belongs:
go-back-N retransmission with exponential backoff in
:mod:`repro.rdma.rnic`, ICRC verification in :mod:`repro.rdma.packets`,
and retry-exhaustion escalation in :mod:`repro.cluster.health`.  See
DESIGN.md §10 for the full fault/recovery model and
:mod:`repro.experiments.chaos` for the soak experiment that holds it to
its guarantees.
"""
