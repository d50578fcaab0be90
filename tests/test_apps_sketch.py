"""Tests for Count-Min / Count Sketch over local and remote backends."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.programs import CountingProgram
from repro.apps.sketch import (
    CountMinSketch,
    CountSketch,
    LocalCounterBackend,
    RemoteCounterBackend,
    SketchGeometry,
)
from repro.core.state_store import RemoteStateStore, StateStoreConfig
from repro.testbed import build_testbed
from repro.sim.units import kib


def local_cms(depth=4, width=512):
    geometry = SketchGeometry(depth=depth, width=width)
    backend = LocalCounterBackend(depth, width, sram_budget_bytes=depth * width * 8)
    return CountMinSketch(geometry, backend)


class TestGeometry:
    def test_counters_and_bytes(self):
        g = SketchGeometry(depth=4, width=100)
        assert g.counters == 400
        assert g.bytes == 3200

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            SketchGeometry(depth=0, width=10)


class TestLocalBackend:
    def test_budget_enforced(self):
        with pytest.raises(MemoryError):
            LocalCounterBackend(4, 1024, sram_budget_bytes=kib(1))

    def test_add_read(self):
        backend = LocalCounterBackend(2, 16, sram_budget_bytes=kib(1))
        backend.add(1, 5, 7)
        assert backend.read(1, 5) == 7
        assert backend.read(0, 5) == 0


class TestCountMin:
    def test_exact_for_single_key(self):
        sketch = local_cms()
        for _ in range(42):
            sketch.add(b"flow-a")
        assert sketch.estimate(b"flow-a") == 42

    def test_never_underestimates(self):
        sketch = local_cms(width=64)
        rng = random.Random(0)
        truth = {}
        for _ in range(2000):
            key = f"flow-{rng.randrange(200)}".encode()
            truth[key] = truth.get(key, 0) + 1
            sketch.add(key)
        for key, count in truth.items():
            assert sketch.estimate(key) >= count

    def test_unseen_key_estimate_bounded_by_total(self):
        sketch = local_cms()
        for i in range(100):
            sketch.add(f"k{i}".encode())
        assert 0 <= sketch.estimate(b"never-seen") <= 100

    def test_negative_update_rejected(self):
        with pytest.raises(ValueError):
            local_cms().add(b"x", -1)

    def test_wider_sketch_less_error(self):
        rng = random.Random(1)
        keys = [f"flow-{i}".encode() for i in range(500)]
        narrow, wide = local_cms(width=32), local_cms(width=4096)
        truth = {}
        for _ in range(5000):
            key = keys[rng.randrange(len(keys))]
            truth[key] = truth.get(key, 0) + 1
            narrow.add(key)
            wide.add(key)
        narrow_err = sum(narrow.estimate(k) - c for k, c in truth.items())
        wide_err = sum(wide.estimate(k) - c for k, c in truth.items())
        assert wide_err < narrow_err

    @settings(max_examples=20, deadline=None)
    @given(st.dictionaries(st.binary(min_size=1, max_size=8),
                           st.integers(1, 50), min_size=1, max_size=20))
    def test_overcount_only_property(self, truth):
        sketch = local_cms(width=128)
        for key, count in truth.items():
            sketch.add(key, count)
        for key, count in truth.items():
            assert sketch.estimate(key) >= count


class TestCountSketch:
    def test_single_key_exact(self):
        geometry = SketchGeometry(depth=5, width=256)
        backend = LocalCounterBackend(5, 256, sram_budget_bytes=kib(16))
        sketch = CountSketch(geometry, backend)
        for _ in range(30):
            sketch.add(b"hot")
        assert sketch.estimate(b"hot") == 30

    def test_signed_updates(self):
        geometry = SketchGeometry(depth=5, width=256)
        backend = LocalCounterBackend(5, 256, sram_budget_bytes=kib(16))
        sketch = CountSketch(geometry, backend)
        sketch.add(b"k", 10)
        sketch.add(b"k", -4)
        assert sketch.estimate(b"k") == 6

    def test_roughly_unbiased_across_keys(self):
        geometry = SketchGeometry(depth=5, width=512)
        backend = LocalCounterBackend(5, 512, sram_budget_bytes=kib(32))
        sketch = CountSketch(geometry, backend)
        rng = random.Random(2)
        truth = {}
        for _ in range(3000):
            key = f"f{rng.randrange(300)}".encode()
            truth[key] = truth.get(key, 0) + 1
            sketch.add(key)
        errors = [sketch.estimate(k) - c for k, c in truth.items()]
        assert abs(sum(errors) / len(errors)) < 3.0


class TestRemoteBackend:
    def build(self, depth=2, width=256):
        tb = build_testbed(n_hosts=2)
        program = CountingProgram()
        for host, port in zip(tb.hosts, tb.host_ports):
            program.install(host.eth.mac, port)
        tb.switch.bind_program(program)
        config = StateStoreConfig(counters=depth * width)
        channel = tb.controller.open_channel(
            tb.memory_server, tb.server_port, depth * width * 8
        )
        store = RemoteStateStore(tb.switch, channel, config=config)
        program.use_state_store(store)
        backend = RemoteCounterBackend(store, depth, width)
        return tb, store, backend

    def test_capacity_enforced(self):
        tb, store, backend = self.build()
        with pytest.raises(MemoryError):
            RemoteCounterBackend(store, 100, 100)

    def test_updates_land_in_remote_memory(self):
        tb, store, backend = self.build()
        geometry = SketchGeometry(depth=2, width=256)
        sketch = CountMinSketch(geometry, backend)
        for _ in range(25):
            sketch.add(b"flow-x")
        tb.sim.run()
        assert sketch.estimate(b"flow-x") == 25
        assert tb.memory_server.rnic.metrics["atomics_executed"] > 0
        assert tb.memory_server.cpu_packets == 0

    def test_matches_local_backend_estimates(self):
        tb, store, remote_backend = self.build(depth=3, width=128)
        geometry = SketchGeometry(depth=3, width=128)
        remote = CountMinSketch(geometry, remote_backend)
        local = CountMinSketch(
            geometry, LocalCounterBackend(3, 128, sram_budget_bytes=kib(8))
        )
        rng = random.Random(3)
        keys = [f"f{i}".encode() for i in range(50)]
        for _ in range(500):
            key = keys[rng.randrange(len(keys))]
            remote.add(key)
            local.add(key)
        tb.sim.run()
        for key in keys:
            assert remote.estimate(key) == local.estimate(key)

    def test_count_sketch_negative_updates_remote(self):
        tb, store, backend = self.build(depth=5, width=64)
        geometry = SketchGeometry(depth=5, width=64)
        sketch = CountSketch(geometry, backend)
        sketch.add(b"k", 3)
        sketch.add(b"k", -1)
        tb.sim.run()
        assert sketch.estimate(b"k") == 2
