"""The packet buffer against a deque model of its ring, under seeded chaos.

Hypothesis composes sender bursts into a small switch buffer, loss on the
server link, shared or separate read QPs, a breaker's ``degrade`` /
``recover``, and the second of two servers going dark until
``failover_strikes`` fails its channel.  A FIFO of every frame
the buffer consumed at the egress hook is the model; whatever the
composition:

* delivered buffered frames leave in store order (each is the model's
  head once the frames ahead of it are written off as lost);
* every frame is delivered or in exactly one drop or loss counter;
* at quiescence the ring is empty and the buffer is not buffering;
* nothing but the documented errors leaves ``sim.run()``, and the run
  leaves no cyclic garbage.
"""

from __future__ import annotations

import gc
from collections import deque

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import (
    PacketBufferConfig,
    RemoteBufferProgram,
    RemotePacketBuffer,
    build_testbed,
)
from repro.net.headers import UdpHeader
from repro.sim.units import kib, usec
from repro.switches.traffic_manager import HookVerdict, TrafficManagerConfig
from repro.workloads.perftest import RawEthernetBw

from .conftest import examples
from .test_hop_path import bind

RECEIVER = 1
SENDERS = (0, 2)
ENTRY_BYTES = 1600 + 8
RING_ENTRIES = 256
LOSSES = ("ring_full_drops", "oversize_drops", "lost_in_transit", "lost_to_failover")

# Bursts that overlap: two senders at 40 Gbps are a 2:1 incast.
burst = st.tuples(
    st.sampled_from(SENDERS),
    st.integers(1, 150),  # frames
    st.integers(0, 100),  # start, us
    st.sampled_from([64, 700, 1500, 1500]),  # frame size
    st.sampled_from([10e9, 40e9, 40e9]),  # rate
)
membership = st.one_of(
    st.none(),
    st.tuples(st.just("degrade"), st.integers(0, 200), st.integers(1, 200)),
    st.tuples(st.just("fail"), st.integers(0, 300)),
)


def rig(switch_kib, loss, separate, event, seed):
    """Hosts 0 and 2 send to host 1 behind the buffer: one memory server,
    or two when the second one's link dies."""
    striped = event is not None and event[0] == "fail"
    tb = build_testbed(
        n_hosts=3, n_memory_servers=2 if striped else 1, seed=seed,
        tm_config=TrafficManagerConfig(buffer_bytes=kib(switch_kib)),
    )
    program = bind(tb, RemoteBufferProgram())
    config = PacketBufferConfig(
        entry_bytes=ENTRY_BYTES, high_watermark_bytes=kib(32), low_watermark_bytes=kib(8),
        read_timeout_ns=usec(50), failover_strikes=3 if striped else None,
    )
    protected = tb.host_ports[RECEIVER]
    channels = tb.open_channels(RING_ENTRIES * ENTRY_BYTES)
    read_channels = [
        tb.controller.open_channel(server, port, share_region_with=channel)
        for server, port, channel in zip(tb.memory_servers, tb.server_ports, channels)
    ] if separate else None
    buffer = RemotePacketBuffer(
        tb.switch, channels, protected, config=config, read_channels=read_channels
    )
    if striped:
        tb.sim.schedule_at(usec(event[1]), setattr, tb.server_links[1], "loss_probability", 1.0)
    elif event is not None:  # what a breaker does: degrade, then recover
        tb.sim.schedule_at(usec(event[1]), buffer.degrade)
        tb.sim.schedule_at(usec(event[1] + event[2]), buffer.recover)
    program.use_packet_buffer(buffer)
    for link in tb.server_links:
        link.loss_probability = loss
    return tb, buffer


@settings(max_examples=examples(30), deadline=None)
@example(  # the server port refused ring WRITEs: the ring stranded 121 entries
    bursts=[(0, 120, 0, 1500, 40e9), (2, 120, 0, 1500, 40e9)],
    switch_kib=64, loss=0.0, separate=False, event=None, seed=1,
)
@example(  # a server died with READs in flight on it
    bursts=[(0, 11, 0, 1500, 40e9), (0, 10, 0, 1500, 40e9), (0, 1, 0, 64, 10e9),
            (2, 80, 0, 1500, 40e9)],
    switch_kib=64, loss=0.0, separate=False, event=("fail", 13), seed=1,
)
@given(
    bursts=st.lists(burst, min_size=2, max_size=4),
    switch_kib=st.sampled_from([64, 128, 256]),
    loss=st.sampled_from([0.0, 0.0, 0.02]),
    separate=st.booleans(),
    event=membership,
    seed=st.integers(1, 4),
)
def test_the_ring_delivers_in_store_order_and_accounts_for_every_frame(
    bursts, switch_kib, loss, separate, event, seed
):
    tb, buffer = rig(switch_kib, loss, separate, event, seed)
    protected = tb.host_ports[RECEIVER]
    # The model: every frame the hook consumed, in store order.
    ring = deque()
    hook = tb.switch.tm.egress_hook

    def modelled_hook(port, packet, queue):
        verdict = hook(port, packet, queue)
        if port == protected and verdict is HookVerdict.CONSUMED:
            ring.append((packet.require(UdpHeader).src_port, packet.meta["seq"]))
        return verdict

    tb.switch.tm.egress_hook = modelled_hook
    written_off = []
    delivered = []

    def receive(packet, interface):
        key = (packet.require(UdpHeader).src_port, packet.meta["seq"])
        delivered.append(key)
        if key in ring:  # a buffered frame: the model's head, once the lost are skipped
            while ring[0] != key:
                written_off.append(ring.popleft())
            ring.popleft()

    tb.hosts[RECEIVER].packet_handlers.append(receive)
    offered = 0
    for n, (sender, count, start_us, size, rate) in enumerate(bursts):
        generator = RawEthernetBw(
            tb.sim, tb.hosts[sender], tb.hosts[RECEIVER], packet_size=size,
            rate_bps=rate, count=count, src_port=10_000 + n,
        )
        tb.sim.schedule_at(usec(start_us), generator.start)
        offered += count

    gc.collect()
    gc.disable()
    try:
        tb.sim.run(max_events=2_000_000)
        garbage = gc.collect()
    finally:
        gc.enable()

    assert tb.sim.active_events == 0, "the run did not quiesce"
    assert buffer.stored_entries == 0 and not buffer.is_buffering and not buffer._reorder
    metrics = buffer.metrics
    lost = sum(metrics[name] for name in LOSSES)
    assert len(written_off) + len(ring) == lost, "a buffered frame vanished or came back twice"
    assert len(set(delivered)) == len(delivered)
    dropped = tb.switch.port_queue(protected).dropped_packets
    assert len(delivered) + dropped + lost == offered
    if not metrics["degraded_passthrough"]:
        # Each burst is FIFO to the switch: arrival order is sequence order.
        for n in range(len(bursts)):
            seqs = [seq for port, seq in delivered if port == 10_000 + n]
            assert seqs == sorted(seqs)
    assert garbage == 0
