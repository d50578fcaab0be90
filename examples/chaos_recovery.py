#!/usr/bin/env python3
"""Example: exact counters over a link that loses, delays, and dies.

§5 observes that "RDMA requests were occasionally dropped at the NIC"
and leaves recovery to future work.  This example injects worse than
that — 1 % i.i.d. loss in both directions from t=0, plus a complete
100 µs link blackout mid-run — while a switch counts packets into the
remote state store.  The reliable-mode machinery (NAK-driven go-back-N,
same-PSN retransmission, watchdog timeouts) repairs everything: every
per-counter total matches the send schedule exactly, and the fault
counters show what it took.

The FaultPlan is seeded, so every run of this script injects the
identical fault timeline — rerun it and the numbers don't wiggle.

Run:  python examples/chaos_recovery.py
"""

from repro.api import (
    Blackout,
    CountingProgram,
    FaultPlan,
    FiveTuple,
    IidLoss,
    RemoteStateStore,
    StateStoreConfig,
    build_testbed,
    usec,
)
from repro.rdma.constants import ATOMIC_OPERAND_BYTES
from repro.net.headers import UdpHeader
from repro.workloads.perftest import RawEthernetBw

PACKETS = 2000
FLOWS = 16
COUNTERS = 1 << 12
SRC_PORT, DST_PORT = 10_000, 20_000


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
            counters=COUNTERS, reliable=True, retry_timeout_ns=50_000.0
        ),
    )
    program.use_state_store(store)

    # The fault schedule: steady 1% loss, plus a dead link for 100 us.
    plan = FaultPlan(seed=7)
    wire = plan.on_link(tb.server_link, name="server-link")
    plan.at(0.0, wire, IidLoss(0.01))
    plan.at(usec(800), wire, Blackout(), duration_ns=usec(100))
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
    roce = store.rocegen.metrics

    print(f"packets counted           : {PACKETS}")
    print(f"expected total            : {sum(expected.values())}")
    print(f"recovered total           : {sum(recovered.values())}")
    print(f"counters wrong            : {wrong}")
    print(f"updates lost              : "
          f"{sum(expected.values()) - sum(recovered.values())}")
    print(f"link drops injected       : {wire.dropped}")
    print(f"NAKs / timeouts / retx    : {roce['naks_received']} / "
          f"{roce['timeouts']} / {store.metrics['retransmissions']}")
    assert wrong == 0, "reliable mode must recover every update"
    print("all counters exact        : yes")


if __name__ == "__main__":
    main()
