"""Tests for the baseline systems: PFC, native RDMA streaming, L2 switch."""

import pytest

from repro.apps.programs import StaticL2Program
from repro.baselines.native_rdma import NativeRdmaStreamer
from repro.baselines.pfc import PfcConfig, PfcManager
from repro.testbed import build_testbed
from repro.rdma.constants import Opcode
from repro.sim.units import gbps, kib
from repro.switches.traffic_manager import TrafficManagerConfig
from repro.workloads.perftest import PacketSink, RawEthernetBw


def pfc_testbed(buffer_bytes=kib(64), pause_frac=0.5, resume_frac=0.25):
    tb = build_testbed(
        n_hosts=3,
        with_memory_server=False,
        tm_config=TrafficManagerConfig(buffer_bytes=buffer_bytes),
    )
    program = StaticL2Program()
    for host, port in zip(tb.hosts, tb.host_ports):
        program.install(host.eth.mac, port)
    tb.switch.bind_program(program)
    pfc = PfcManager(
        tb.switch,
        upstream_ports=tb.host_ports[:2],
        config=PfcConfig(
            pause_threshold_bytes=int(buffer_bytes * pause_frac),
            resume_threshold_bytes=int(buffer_bytes * resume_frac),
        ),
    )
    return tb, pfc


class TestPfc:
    def test_incast_with_pfc_is_lossless(self):
        tb, pfc = pfc_testbed()
        sink = PacketSink(tb.hosts[2], dst_port=20_000)
        for i in (0, 1):
            gen = RawEthernetBw(
                tb.sim, tb.hosts[i], tb.hosts[2],
                packet_size=1500, rate_bps=gbps(40), count=200,
                src_port=10_000 + i,
            )
            gen.start()
        tb.sim.run()
        assert sink.packets == 400
        assert tb.switch.tm.total_dropped_packets == 0
        assert pfc.stats.pause_events >= 1
        assert pfc.stats.resume_events >= 1

    def test_pause_resume_cycle_leaves_links_unpaused(self):
        tb, pfc = pfc_testbed()
        for i in (0, 1):
            gen = RawEthernetBw(
                tb.sim, tb.hosts[i], tb.hosts[2],
                packet_size=1500, rate_bps=gbps(40), count=100,
                src_port=10_000 + i,
            )
            gen.start()
        tb.sim.run()
        assert not pfc.paused
        for host in tb.hosts[:2]:
            assert not host.eth.paused

    def test_invalid_thresholds_rejected(self):
        tb = build_testbed(n_hosts=2, with_memory_server=False)
        tb.switch.bind_program(StaticL2Program())
        with pytest.raises(ValueError):
            PfcManager(
                tb.switch,
                upstream_ports=[0],
                config=PfcConfig(
                    pause_threshold_bytes=100, resume_threshold_bytes=100
                ),
            )

    def test_hol_blocking_hurts_victim(self):
        """A victim flow from a paused sender stalls (the §2.1 argument)."""

        def victim_completion(with_pfc):
            tb = build_testbed(
                n_hosts=4,
                with_memory_server=False,
                tm_config=TrafficManagerConfig(buffer_bytes=kib(64)),
            )
            program = StaticL2Program()
            for host, port in zip(tb.hosts, tb.host_ports):
                program.install(host.eth.mac, port)
            tb.switch.bind_program(program)
            if with_pfc:
                PfcManager(
                    tb.switch,
                    upstream_ports=tb.host_ports[:2],
                    config=PfcConfig(
                        pause_threshold_bytes=kib(32),
                        resume_threshold_bytes=kib(16),
                    ),
                )
            # Incast: hosts 0 and 1 blast host 2.
            for i in (0, 1):
                RawEthernetBw(
                    tb.sim, tb.hosts[i], tb.hosts[2],
                    packet_size=1500, rate_bps=gbps(40), count=300,
                    src_port=10_000 + i,
                ).start()
            # Victim: host 0 also sends a little to (uncongested) host 3.
            victim_sink = PacketSink(tb.hosts[3], dst_port=30_000)
            RawEthernetBw(
                tb.sim, tb.hosts[0], tb.hosts[3],
                packet_size=1500, rate_bps=gbps(5), count=50,
                src_port=30_001, dst_port=30_000,
            ).start()
            tb.sim.run()
            assert victim_sink.packets == 50
            return victim_sink.last_arrival_ns

        assert victim_completion(True) > victim_completion(False)


class TestNativeRdmaStreamer:
    def make(self, opcode, operations=100, window=16):
        tb = build_testbed(n_hosts=1)
        program = StaticL2Program()
        program.install(tb.hosts[0].eth.mac, tb.host_ports[0])
        program.install(tb.memory_server.eth.mac, tb.server_port)
        tb.switch.bind_program(program)
        region = tb.memory_server.lend_memory(1500 * (operations + 1))
        streamer = NativeRdmaStreamer(
            tb.sim, tb.hosts[0], tb.memory_server, region,
            opcode=opcode, message_bytes=1500,
            operations=operations, window=window,
        )
        return tb, streamer, region

    def test_write_stream_completes(self):
        tb, streamer, region = self.make(Opcode.RDMA_WRITE_ONLY)
        streamer.start()
        tb.sim.run()
        assert streamer.done
        report = streamer.report()
        assert report.failures == 0
        assert report.operations == 100
        assert region.writes == 100

    def test_read_stream_completes(self):
        tb, streamer, region = self.make(Opcode.RDMA_READ_REQUEST)
        streamer.start()
        tb.sim.run()
        assert streamer.done
        assert region.reads == 100

    def test_goodput_below_line_rate(self):
        tb, streamer, _ = self.make(Opcode.RDMA_WRITE_ONLY, operations=500)
        streamer.start()
        tb.sim.run()
        goodput = streamer.report().goodput_bps
        assert gbps(20) < goodput < gbps(40)

    def test_unsupported_opcode_rejected(self):
        tb = build_testbed(n_hosts=1)
        region = tb.memory_server.lend_memory(4096)
        with pytest.raises(ValueError):
            NativeRdmaStreamer(
                tb.sim, tb.hosts[0], tb.memory_server, region,
                opcode=Opcode.FETCH_ADD,
            )

    def test_zero_cpu(self):
        tb, streamer, _ = self.make(Opcode.RDMA_WRITE_ONLY)
        streamer.start()
        tb.sim.run()
        assert tb.memory_server.cpu_packets == 0
