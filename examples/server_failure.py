#!/usr/bin/env python3
"""Example: surviving a memory-server failure mid-incast (§7).

The paper's future-work list ends with "improve the robustness of the
architecture by handling switch and server failures."  This example runs
an incast absorbed by a remote packet buffer striped over two memory
servers, then kills one server's link mid-burst.  The failover logic
detects the dead channel, abandons its unread entries as clean in-order
losses, re-stripes onto the survivor, and keeps the system live.

Run:  python examples/server_failure.py
"""

from repro.api import (
    ENTRY_SEQ_BYTES,
    PacketBufferConfig,
    RemoteBufferProgram,
    RemotePacketBuffer,
    TrafficManagerConfig,
    build_testbed,
    kib,
    to_msec,
    usec,
)
from repro.workloads.perftest import PacketSink, RawEthernetBw


def main() -> None:
    tb = build_testbed(
        n_hosts=3,
        n_memory_servers=2,
        tm_config=TrafficManagerConfig(buffer_bytes=kib(256)),
    )
    program = RemoteBufferProgram()
    for host, port in zip(tb.hosts, tb.host_ports):
        program.install(host.eth.mac, port)
    tb.switch.bind_program(program)

    entry_bytes = 1500 + ENTRY_SEQ_BYTES
    channels = tb.open_channels(4096 * entry_bytes)
    buffer = RemotePacketBuffer(
        tb.switch,
        channels,
        protected_port=tb.host_ports[1],
        config=PacketBufferConfig(
            entry_bytes=entry_bytes,
            high_watermark_bytes=kib(64),
            low_watermark_bytes=kib(8),
            read_timeout_ns=usec(50),
            failover_strikes=3,
        ),
    )
    program.use_packet_buffer(buffer)

    # 2:1 incast toward host 1, buffered remotely across both servers.
    sink = PacketSink(tb.hosts[1], dst_port=20_000)
    total = 0
    for s in (0, 2):
        gen = RawEthernetBw(
            tb.sim, tb.hosts[s], tb.hosts[1],
            packet_size=1500, rate_bps=40e9, count=500,
            src_port=10_000 + s,
        )
        gen.start()
        total += 500

    # Pull the plug on memory server 1 at t = 30 us.
    tb.sim.schedule(
        usec(30), lambda: setattr(tb.server_links[1], "loss_probability", 1.0)
    )
    tb.sim.run(max_events=5_000_000)

    print(f"burst: {total} packets across 2 senders; server 1 died at 30us\n")
    print(f"delivered in order    : {sink.packets} (reordered: {sink.out_of_order})")
    print(f"lost to failover      : {buffer.metrics['lost_to_failover']}")
    print(f"channels failed       : {buffer.metrics['channels_failed']}")
    print(f"surviving channels    : {buffer.alive_channels}")
    print(f"read-chain recoveries : {buffer.metrics['read_recoveries']}")
    print(f"done at               : {to_msec(tb.sim.now):.2f} ms "
          "(buffering mode off, nothing wedged)")
    accounted = (
        sink.packets
        + buffer.metrics["lost_to_failover"]
        + buffer.metrics["lost_in_transit"]
        + buffer.metrics["ring_full_drops"]
        + tb.switch.tm.total_dropped_packets
    )
    assert accounted == total, "every packet must be delivered or accounted"
    assert not buffer.is_buffering
    print("\nEvery packet is accounted for: delivered once, in order, or a "
          "clean loss attributed to the dead server.")


if __name__ == "__main__":
    main()
