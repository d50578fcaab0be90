#!/usr/bin/env python3
"""Quickstart: a switch reads and writes server DRAM from its data plane.

This is the paper's core idea in ~60 lines of library use:

1. build a testbed (hosts + programmable ToR + memory server, 40 GbE),
2. let the control plane open an RDMA channel to the server's DRAM,
3. have the *switch data plane* WRITE, READ and Fetch-and-Add remote
   memory by crafting RoCEv2 packets — with the server's CPU untouched.

Run:  python examples/quickstart.py
"""

from repro.api import (
    RoceRequestGenerator,
    StaticL2Program,
    build_testbed,
    mib,
    to_usec,
)


def main() -> None:
    # -- 1. topology: one host, one ToR switch, one memory server --------
    tb = build_testbed(n_hosts=1)
    program = StaticL2Program()
    program.install(tb.hosts[0].eth.mac, tb.host_ports[0])
    program.install(tb.memory_server.eth.mac, tb.server_port)
    tb.switch.bind_program(program)

    # -- 2. control plane: open an RDMA channel to 64 MiB of server DRAM -
    channel = tb.controller.open_channel(
        tb.memory_server, tb.server_port, mib(64), name="quickstart"
    )
    print(f"channel open: rkey={channel.rkey:#x} "
          f"base={channel.base_address:#x} len={channel.length} B "
          f"switch QPN={channel.switch_qp.qpn} server QPN={channel.server_qp.qpn}")

    # -- 3. data plane: the switch talks RoCEv2 to the RNIC --------------
    # Responses from the RNIC are addressed to the switch's queue pair: the
    # switch matches them by QPN, accounts for them and hands them to the
    # requester's owner (here, an owner with nothing more to do) instead of
    # forwarding them.  Every primitive is wired the same way.
    dataplane = RoceRequestGenerator(
        tb.switch, channel, on_response=lambda ctx, packet, opcode, is_nak, context: None
    )

    # RDMA WRITE: 'hello' lands in server DRAM.
    dataplane.write(channel.base_address, b"hello from the data plane")
    tb.sim.run()
    stored = channel.region.read(channel.base_address, 26)
    print(f"t={to_usec(tb.sim.now):6.2f}us  WRITE landed: {stored!r}")

    # RDMA READ: the response returns as a packet the pipeline can parse.
    dataplane.read(channel.base_address, 5)
    tb.sim.run()
    print(f"t={to_usec(tb.sim.now):6.2f}us  READ issued and answered "
          f"({dataplane.metrics['responses_handled']} responses seen)")

    # Atomic Fetch-and-Add: a remote counter, updated at line rate.
    counter_address = channel.base_address + 4096
    for _ in range(10):
        dataplane.fetch_add(counter_address, 1)
    tb.sim.run()
    value = int.from_bytes(channel.region.read(counter_address, 8), "big")
    print(f"t={to_usec(tb.sim.now):6.2f}us  remote counter = {value}")

    # -- the punchline ----------------------------------------------------
    print(f"server CPU packets seen: {tb.memory_server.cpu_packets} "
          "(the RNIC handled everything)")
    assert value == 10
    assert tb.memory_server.cpu_packets == 0


if __name__ == "__main__":
    main()
