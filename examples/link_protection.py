#!/usr/bin/env python3
"""Example: masking a corrupting link below the transport.

``self_healing.py`` handles a link that *dies* — the circuit breaker
detects the outage and rides it out.  This example handles the opposite
failure: a link that merely *corrupts* one frame in a few hundred.
Packets still flow, every probe succeeds, the breaker never trips — but
each corrupted frame fails its ICRC at the receiver, silently vanishes,
and costs the RDMA transport a NAK'd go-back-N replay of the whole
in-flight window (DESIGN.md §10).

The :class:`~repro.api.LinkGuard` (DESIGN.md §14) fixes this *at the
link*: a sender-side shim numbers every frame and keeps a bounded
emergency retransmission buffer; the receiver end spots the corrupt or
missing frame the moment the next one arrives, NAKs immediately, and
the resend lands within a link RTT — microseconds instead of a
transport timeout.  The run below drives the reliable state store over
the same corrupting wire twice and prints what the transport saw:

* guard off — ICRC drops and go-back-N NAK replays;
* guard on  — a clean link: every loss masked, zero transport recovery.

Both runs finish with every counter exact (the reliable store always
recovers); the guard changes *how much the recovery costs*.

Run:  python examples/link_protection.py
"""

from repro.api import (
    Corrupt,
    CountingProgram,
    FaultPlan,
    LinkGuard,
    RemoteStateStore,
    StateStoreConfig,
    build_testbed,
    integrity_protected,
    usec,
)
from repro.rdma.constants import ATOMIC_OPERAND_BYTES
from repro.workloads.perftest import RawEthernetBw

PACKETS = 1200
COUNTERS = 1 << 10
CORRUPT_RATE = 3e-3
DST_PORT = 20_000
SEED = 42


def run(protect: bool):
    tb = build_testbed(n_hosts=2)
    program = CountingProgram()
    for host, port in zip(tb.hosts, tb.host_ports):
        program.install(host.eth.mac, port)
    tb.switch.bind_program(program)

    channel = tb.controller.open_channel(
        tb.memory_server, tb.server_port, COUNTERS * ATOMIC_OPERAND_BYTES
    )
    store = RemoteStateStore(
        tb.switch,
        channel,
        config=StateStoreConfig(
            counters=COUNTERS, reliable=True, retry_timeout_ns=usec(50)
        ),
    )
    program.use_state_store(store)

    guard = LinkGuard(tb.server_link) if protect else None

    plan = FaultPlan(seed=SEED)
    plan.at(0.0, plan.on_link(tb.server_link, name="server-link"),
            Corrupt(CORRUPT_RATE))
    plan.install(tb.sim)

    RawEthernetBw(
        tb.sim, tb.hosts[0], tb.hosts[1],
        packet_size=128, rate_bps=1e9, count=PACKETS, dst_port=DST_PORT,
    ).start()
    tb.sim.run()
    for _ in range(64):
        if store.pending_value == 0 and store.outstanding == 0:
            break
        store.flush_all()
        tb.sim.run()
    return store, guard, tb.sim.now


def main() -> None:
    with integrity_protected():
        for protect in (False, True):
            store, guard, now = run(protect)
            roce = store.rocegen.metrics
            label = "guard on " if protect else "guard off"
            print(f"[{label}] transport NAK replays : {roce['naks_received']}")
            print(f"[{label}] transport timeouts    : {roce['timeouts']}")
            print(f"[{label}] store retransmissions : "
                  f"{store.metrics['retransmissions']}")
            if guard is not None:
                print(f"[{label}] losses guard masked   : "
                      f"{guard.counts['masked_losses']}")
                print(f"[{label}] guard resends         : "
                      f"{guard.counts['resent']}")
                assert roce["naks_received"] == 0, "guard must mask every loss"
                assert roce["timeouts"] == 0
                assert store.metrics["retransmissions"] == 0
                assert guard.counts["masked_losses"] > 0, (
                    "corruption never hit the wire — raise CORRUPT_RATE"
                )
            else:
                assert roce["naks_received"] > 0, (
                    "corruption never cost the transport anything — "
                    "raise CORRUPT_RATE"
                )
            print(f"[{label}] finished at           : {now / 1e3:.1f} us")
            print()
    print("same wire, same faults: the guard kept the transport blind : yes")


if __name__ == "__main__":
    main()
