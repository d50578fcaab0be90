"""End-to-end RNIC tests over a real simulated link (two hosts)."""

import pytest

from repro.rdma.constants import AethSyndrome, Opcode
from repro.rdma.qp import WorkRequest
from repro.rdma.rnic import RnicConfig
from repro.rdma.verbs import RdmaClient, connect_qps
from repro.sim.units import usec


def make_channel(host_pair):
    """Connect client→server QPs and lend 1 MiB of server memory."""
    client, server, _ = host_pair
    client_qp = client.rnic.create_qp()
    server_qp = server.rnic.create_qp()
    connect_qps(client_qp, server_qp)
    region = server.lend_memory(1 << 20)
    return RdmaClient(client.rnic, client_qp), server, region


class TestWrite:
    def test_write_lands_in_server_memory(self, sim, host_pair):
        client, server, region = make_channel(host_pair)
        done = []
        client.write(region.base_address + 64, region.rkey, b"remote!", done.append)
        sim.run()
        assert region.read(region.base_address + 64, 7) == b"remote!"
        assert len(done) == 1 and done[0].success

    def test_write_is_zero_cpu(self, sim, host_pair):
        client, server, region = make_channel(host_pair)
        client.write(region.base_address, region.rkey, b"x" * 1024)
        sim.run()
        assert server.cpu_packets == 0

    def test_many_writes_complete_in_order(self, sim, host_pair):
        client, server, region = make_channel(host_pair)
        completions = []
        for i in range(20):
            client.write(
                region.base_address + i * 8,
                region.rkey,
                i.to_bytes(8, "big"),
                callback=lambda c, i=i: completions.append(i),
            )
        sim.run()
        assert completions == list(range(20))
        for i in range(20):
            stored = region.read(region.base_address + i * 8, 8)
            assert int.from_bytes(stored, "big") == i

    def test_write_bad_rkey_naks(self, sim, host_pair):
        client, server, region = make_channel(host_pair)
        done = []
        client.write(region.base_address, 0xBAD, b"x", done.append)
        sim.run()
        assert len(done) == 1
        assert not done[0].success
        assert done[0].syndrome == AethSyndrome.NAK_REMOTE_ACCESS_ERROR
        assert server.rnic.metrics["access_errors"] == 1

    def test_write_out_of_bounds_naks(self, sim, host_pair):
        client, server, region = make_channel(host_pair)
        done = []
        client.write(region.end_address - 2, region.rkey, b"xyz", done.append)
        sim.run()
        assert not done[0].success


class TestRead:
    def test_read_returns_data(self, sim, host_pair):
        client, server, region = make_channel(host_pair)
        region.write(region.base_address + 128, b"stored-by-server")
        got = []
        client.read(region.base_address + 128, region.rkey, 16, got.append)
        sim.run()
        assert got[0].success
        assert got[0].data == b"stored-by-server"

    def test_read_latency_includes_rtt_and_nic_processing(self, sim, host_pair):
        client, server, region = make_channel(host_pair)
        config = server.rnic.config
        done = []
        start = sim.now
        client.read(region.base_address, region.rkey, 8, done.append)
        sim.run()
        elapsed = done[0].completion_time_ns - start
        # Lower bound: request + response propagation and NIC processing.
        floor = 2 * 250.0 + config.rx_processing_ns + config.dma_read_latency_ns
        assert elapsed >= floor
        assert elapsed < usec(10)

    def test_read_write_sequence(self, sim, host_pair):
        client, server, region = make_channel(host_pair)
        results = []
        client.write(region.base_address, region.rkey, b"ping")
        client.read(region.base_address, region.rkey, 4, results.append)
        sim.run()
        assert results[0].data == b"ping"


class TestFetchAdd:
    def test_fetch_add_returns_original_and_increments(self, sim, host_pair):
        client, server, region = make_channel(host_pair)
        originals = []
        for _ in range(5):
            client.fetch_add(
                region.base_address, region.rkey, 2,
                lambda c: originals.append(c.original_value),
            )
        sim.run()
        assert originals == [0, 2, 4, 6, 8]
        final = int.from_bytes(region.read(region.base_address, 8), "big")
        assert final == 10

    def test_atomic_rate_is_capped(self, sim, host_pair):
        client, server, region = make_channel(host_pair)
        rate = server.rnic.config.atomic_rate_ops
        count = 12
        times = []
        for _ in range(count):
            client.fetch_add(
                region.base_address, region.rkey, 1,
                lambda c: times.append(c.completion_time_ns),
            )
        sim.run()
        assert len(times) == count
        # Completions must be spaced at least the atomic service time apart.
        spacing = 1e9 / rate
        deltas = [b - a for a, b in zip(times, times[1:])]
        assert all(d >= spacing * 0.99 for d in deltas)

    def test_atomic_misaligned_naks(self, sim, host_pair):
        client, server, region = make_channel(host_pair)
        done = []
        client.fetch_add(region.base_address + 1, region.rkey, 1, done.append)
        sim.run()
        assert not done[0].success


class TestResponderRobustness:
    def test_unknown_qp_dropped(self, sim, host_pair):
        client_host, server, _ = host_pair
        qp = client_host.rnic.create_qp()
        # Connect to a QPN the server never created.
        qp.connect(0x999, server.eth.ip, server.eth.mac)
        region = server.lend_memory(4096)
        RdmaClient(client_host.rnic, qp).write(region.base_address, region.rkey, b"x")
        sim.run()
        assert server.rnic.metrics["unknown_qp_drops"] == 1

    def test_psn_gap_naks_sequence_error(self, sim, host_pair):
        client, server, region = make_channel(host_pair)
        qp = client.qp
        qp.next_psn = (qp.next_psn + 5) % (1 << 24)  # simulate 5 lost requests
        done = []
        client.write(region.base_address, region.rkey, b"x", done.append)
        sim.run()
        assert not done[0].success
        assert done[0].syndrome == AethSyndrome.NAK_PSN_SEQUENCE_ERROR
        assert server.rnic.metrics["sequence_errors"] == 1

    def test_duplicate_write_is_acked_not_reapplied(self, sim, host_pair):
        client, server, region = make_channel(host_pair)
        client.write(region.base_address, region.rkey, b"A")
        sim.run()
        # Replay the same PSN (a retransmission after a lost ACK).
        qp = client.qp
        qp.next_psn = (qp.next_psn - 1) % (1 << 24)
        region.write(region.base_address, b"B")  # server-side change
        done = []
        client.write(region.base_address, region.rkey, b"A", done.append)
        sim.run()
        assert done[0].success
        assert server.rnic.metrics["duplicates"] == 1
        # The duplicate must NOT have overwritten the newer value.
        assert region.read(region.base_address, 1) == b"B"

    def test_retransmit_recovers_from_request_loss(self, sim):
        from repro.hosts.server import Host, MemoryServer
        from repro.net.link import connect
        from repro.sim.units import gbps

        config = RnicConfig(enable_retransmit=True, retransmit_timeout_ns=usec(50))
        client_host = Host(sim, "c", "02:00:00:00:00:01", "10.0.0.1", rnic_config=config)
        server = MemoryServer(sim, "s", "02:00:00:00:00:02", "10.0.0.2")
        link = connect(sim, client_host.eth, server.eth, gbps(40))
        qp_c = client_host.rnic.create_qp()
        qp_s = server.rnic.create_qp()
        connect_qps(qp_c, qp_s)
        region = server.lend_memory(4096)

        link.loss_probability = 1.0
        done = []
        RdmaClient(client_host.rnic, qp_c).write(
            region.base_address, region.rkey, b"retry me", done.append
        )
        sim.run_for(usec(40))
        link.loss_probability = 0.0  # heal before first retry fires
        sim.run()
        assert done and done[0].success
        assert client_host.rnic.metrics["retransmissions"] >= 1
        assert region.read(region.base_address, 8) == b"retry me"


class TestRequesterFlowControl:
    def test_outstanding_cap_queues_excess(self, sim, host_pair):
        client, server, region = make_channel(host_pair)
        client.rnic.config.max_outstanding_requests = 4
        done = []
        for i in range(10):
            client.write(region.base_address + i, region.rkey, b"z", done.append)
        assert client.rnic.outstanding_requests <= 4
        sim.run()
        assert len(done) == 10
        assert all(c.success for c in done)
