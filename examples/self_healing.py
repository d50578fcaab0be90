#!/usr/bin/env python3
"""Example: a channel that dies completely — and heals itself.

``chaos_recovery.py`` shows the reliable state store riding out loss the
retry machinery can absorb.  This example injects an outage it cannot:
a 400 µs blackout, eight times the retry window, so every in-flight
Fetch-and-Add stalls and the watchdog burns timeout after timeout into a
dead wire.

The :class:`~repro.api.SelfHealingChannel` turns that into a managed
episode instead of a hang:

1. accumulated stall evidence trips the channel's **circuit breaker**
   open — the store stops driving the wire and absorbs updates locally;
2. after a (seeded, jittered) wait the breaker goes **half-open**: the
   controller reconnects the QP pair (fresh QPN/PSN, same remote region)
   and the store sends one probe READ.  The first probe dies inside the
   blackout — the breaker re-opens and backs off;
3. the second probe lands, the breaker **re-closes**, and the store
   reconciles: one READ per touched counter computes exactly how much of
   the suspended backlog already reached remote memory, and only the
   missing remainder is re-issued.  Zero updates lost, none double-counted.

Run:  python examples/self_healing.py
"""

from repro.api import (
    Blackout,
    BreakerPolicy,
    CountingProgram,
    FaultPlan,
    FiveTuple,
    RemoteStateStore,
    SelfHealingChannel,
    StateStoreConfig,
    build_testbed,
    usec,
)
from repro.net.headers import UdpHeader
from repro.rdma.constants import ATOMIC_OPERAND_BYTES
from repro.sim.rng import SeedSequence
from repro.workloads.perftest import RawEthernetBw

PACKETS = 1500
FLOWS = 16
COUNTERS = 1 << 12
SRC_PORT, DST_PORT = 10_000, 20_000
SEED = 42


def main() -> None:
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

    # The self-healing wrapper: breaker + QP reconnect + degraded mode.
    guard = SelfHealingChannel(
        tb.controller,
        channel,
        store,
        policy=BreakerPolicy(
            rng=SeedSequence(SEED).stream("breaker[store]"),
            fail_threshold=3,
            open_timeout_ns=usec(100),
            probe_timeout_ns=usec(60),
            probe_jitter_ns=usec(10),
        ),
    )

    # The outage: a total blackout far longer than the retry window.
    plan = FaultPlan(seed=SEED)
    wire = plan.on_link(tb.server_link, name="server-link")
    plan.at(usec(300), wire, Blackout(), duration_ns=usec(400))
    plan.install(tb.sim)

    src, dst = tb.hosts
    expected = {}
    for seq in range(PACKETS):
        flow = FiveTuple(
            src_ip=src.eth.ip.value,
            dst_ip=dst.eth.ip.value,
            protocol=17,
            src_port=SRC_PORT + (seq % FLOWS),
            dst_port=DST_PORT,
        )
        index = flow.hash() % COUNTERS
        expected[index] = expected.get(index, 0) + 1

    def stamp(packet, seq):
        packet.require(UdpHeader).src_port = SRC_PORT + (seq % FLOWS)

    RawEthernetBw(
        tb.sim, src, dst,
        packet_size=128, rate_bps=1e9, count=PACKETS,
        dst_port=DST_PORT, stamp=stamp,
    ).start()
    tb.sim.run()
    for _ in range(64):
        if store.pending_value == 0 and store.outstanding == 0:
            break
        store.flush_all()
        tb.sim.run()

    recovered = {
        i: store.read_counter_via_control_plane(i) for i in expected
    }
    wrong = sum(1 for i, v in expected.items() if recovered[i] != v)
    lost = sum(expected.values()) - sum(recovered.values())
    breaker = guard.breaker

    print(f"packets counted            : {PACKETS}")
    print(f"expected / recovered total : "
          f"{sum(expected.values())} / {sum(recovered.values())}")
    print(f"updates lost / wrong ctrs  : {lost} / {wrong}")
    print(f"updates absorbed degraded  : "
          f"{store.metrics['degraded_updates']}")
    print(f"breaker opens / probe fails: "
          f"{breaker.opens} / {breaker.probe_failures}")
    print(f"QP reconnects              : {guard.reconnects}")
    print(f"degraded time (us)         : {breaker.degraded_ns / 1e3:.1f}")
    print(f"breaker state at exit      : {breaker.state}")

    assert lost == 0 and wrong == 0, "self-healing must lose nothing"
    assert breaker.opens >= 1, "the blackout must trip the breaker"
    assert breaker.probe_failures >= 1, "first probe dies in the blackout"
    assert breaker.is_closed, "the breaker must re-close after the outage"
    assert guard.reconnects >= 1, "half-open must reconnect the QP pair"
    print("channel healed, every update intact : yes")


if __name__ == "__main__":
    main()
