"""Tests for the public facade (repro.api)."""

import ast
import dataclasses
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro.api as api
from repro.switches.hashing import FiveTuple
from repro.workloads.factory import udp_between

from .budgets import IMPORT_MODULES

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench_e2e"


# -- facade ------------------------------------------------------------------


def test_every_exported_name_resolves():
    for name in api.__all__:
        assert getattr(api, name, None) is not None, name


def test_dir_lists_every_export():
    assert set(dir(api)) >= set(api.__all__)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="NoSuchName"):
        api.NoSuchName


def test_every_export_has_an_importer():
    """An export stays only while a file takes it from the facade: ``from
    repro.api import X`` (README.md's too) or ``api.X``, this file aside."""
    readme = re.findall(r"from repro\.api import ([\w, ]+)", (ROOT / "README.md").read_text())
    used = {name.strip() for names in readme for name in names.split(",")}
    for top in ("src", "tests", "examples", "benchmarks", "bench_e2e"):
        for path in (ROOT / top).rglob("*.py"):
            text = path.read_text()
            if "api" not in text or path == Path(__file__).resolve():
                continue
            for node in ast.walk(ast.parse(text)):
                if isinstance(node, ast.ImportFrom) and node.module == "repro.api":
                    used.update(alias.name for alias in node.names)
                elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "api":
                    used.add(node.attr)
    assert sorted(set(api.__all__) - used) == []


# -- import closure: a fresh interpreter loads only what it uses ---------------


def _fresh(code: str) -> str:
    """Run *code* in a new interpreter with ``src/`` first on the path."""
    prelude = f"import sys; sys.path[:0] = [{str(ROOT / 'src')!r}, {str(BENCH)!r}]\n"
    done = subprocess.run(
        [sys.executable, "-c", prelude + code],
        stdout=subprocess.PIPE,
        text=True,
        check=True,
        timeout=120,
    )
    return done.stdout


_LOADED = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'repro'))"


def test_importing_the_facade_loads_nothing_else():
    loaded = ast.literal_eval(_fresh("import repro.api\n" + _LOADED))
    assert loaded == ["repro", "repro.api"]


def test_the_bench_imports_stay_under_the_module_budget():
    tree = ast.parse((BENCH / "workloads.py").read_text())
    names = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "repro.api"
        for alias in node.names
    ]
    assert len(names) > 30
    loaded = ast.literal_eval(_fresh(f"from repro.api import {', '.join(names)}\n" + _LOADED))
    assert len(loaded) <= IMPORT_MODULES, loaded


_RUN_PHASE = """
import json
from contextlib import nullcontext
from workloads import WORKLOADS

late = []

class Clock:
    def phase(self, name):
        return nullcontext()

    def reference(self, sim, start_ns, span_ns):
        pass

    def run(self, sim):
        before = set(sys.modules)
        sim.run()
        late.extend(m for m in set(sys.modules) - before if m.split('.')[0] == 'repro')

WORKLOADS[{name!r}](0.01, 42, Clock())
print(json.dumps(sorted(late)))
"""


@pytest.mark.parametrize(
    "workload",
    ["l2_forward", "lookup_cached", "lookup_miss_x4", "counter_tiered", "pktbuf_ring", "l4lb_soak"],
)
def test_no_module_is_first_imported_while_the_simulation_runs(workload):
    # A lazy name first touched inside ``sim.run()`` would move its
    # compile time out of set-up and into the measured run phase.
    assert json.loads(_fresh(_RUN_PHASE.format(name=workload))) == []


def test_facade_matches_deep_imports():
    from repro.core.lookup_table import RemoteLookupTable
    from repro.core.state_store import RemoteStateStore
    from repro.testbed import build_testbed

    assert api.RemoteLookupTable is RemoteLookupTable
    assert api.RemoteStateStore is RemoteStateStore
    assert api.build_testbed is build_testbed


def test_build_testbed_round_trip_through_facade():
    """The quickstart flow, entirely through repro.api."""
    tb = api.build_testbed(n_hosts=1)
    program = api.StaticL2Program()
    program.install(tb.hosts[0].eth.mac, tb.host_ports[0])
    program.install(tb.memory_server.eth.mac, tb.server_port)
    tb.switch.bind_program(program)
    channel = tb.controller.open_channel(
        tb.memory_server, tb.server_port, api.kib(4)
    )
    gen = api.RoceRequestGenerator(tb.switch, channel)
    gen.write(channel.base_address, b"via the facade")
    tb.sim.run()
    assert channel.region.read(channel.base_address, 14) == b"via the facade"
    assert tb.memory_server.cpu_packets == 0
    # The write is visible in the simulation's metric registry too.
    assert tb.sim.obs.registry.total("writes_issued") == 1
    assert tb.sim.obs.registry.total("writes_executed") == 1


# -- key_of / index_of ------------------------------------------------------


def _lookup_table():
    tb = api.build_testbed(n_hosts=2)
    config = api.LookupTableConfig(entries=1 << 8)
    channel = tb.controller.open_channel(
        tb.memory_server, tb.server_port, config.entries * config.entry_bytes
    )
    return tb, api.RemoteLookupTable(tb.switch, channel, config=config)


def _state_store():
    from repro.rdma.constants import ATOMIC_OPERAND_BYTES

    tb = api.build_testbed(n_hosts=2)
    config = api.StateStoreConfig(counters=1 << 8)
    channel = tb.controller.open_channel(
        tb.memory_server, tb.server_port, config.counters * ATOMIC_OPERAND_BYTES
    )
    return tb, api.RemoteStateStore(tb.switch, channel, config=config)


def test_key_of_then_index_of_is_the_supported_form():
    tb, table = _lookup_table()
    packet = udp_between(tb.hosts[0], tb.hosts[1], 128)
    key = table.key_of(packet)
    assert isinstance(key, FiveTuple)
    assert 0 <= table.index_of(key) < table.config.entries

    tb, store = _state_store()
    packet = udp_between(tb.hosts[0], tb.hosts[1], 128)
    key = store.key_of(packet)
    assert isinstance(key, FiveTuple)
    assert 0 <= store.index_of(key) < store.config.counters


# -- packet-buffer read-channel validation (bugfix) --------------------------


def _buffer_setup():
    tb = api.build_testbed(n_hosts=2)
    config = api.PacketBufferConfig()
    size = 64 * config.entry_bytes
    write_ch = tb.controller.open_channel(tb.memory_server, tb.server_port, size)
    read_ch = tb.controller.open_channel(
        tb.memory_server, tb.server_port, share_region_with=write_ch
    )
    return tb, config, write_ch, read_ch


def test_read_channel_sharing_the_region_is_accepted():
    tb, config, write_ch, read_ch = _buffer_setup()
    buffer = api.RemotePacketBuffer(
        tb.switch,
        [write_ch],
        protected_port=tb.host_ports[0],
        config=config,
        read_channels=[read_ch],
    )
    assert buffer.read_channels == [read_ch]


def test_read_channel_with_same_rkey_but_other_base_is_rejected():
    # Regression: validation used to accept any channel whose rkey matched,
    # even when it pointed at different memory.
    tb, config, write_ch, read_ch = _buffer_setup()
    forged = dataclasses.replace(
        read_ch, base_address=read_ch.base_address + config.entry_bytes
    )
    assert forged.rkey == write_ch.rkey
    with pytest.raises(ValueError, match="share their write channel's region"):
        api.RemotePacketBuffer(
            tb.switch,
            [write_ch],
            protected_port=tb.host_ports[0],
            config=config,
            read_channels=[forged],
        )


def test_read_channel_on_another_server_is_rejected():
    tb = api.build_testbed(n_hosts=2, n_memory_servers=2)
    config = api.PacketBufferConfig()
    size = 64 * config.entry_bytes
    write_ch = tb.controller.open_channel(
        tb.memory_servers[0], tb.server_ports[0], size
    )
    read_ch = tb.controller.open_channel(
        tb.memory_servers[0], tb.server_ports[0], share_region_with=write_ch
    )
    forged = dataclasses.replace(read_ch, server=tb.memory_servers[1])
    assert forged.rkey == write_ch.rkey
    assert forged.base_address == write_ch.base_address
    with pytest.raises(ValueError, match="share their write channel's region"):
        api.RemotePacketBuffer(
            tb.switch,
            [write_ch],
            protected_port=tb.host_ports[0],
            config=config,
            read_channels=[forged],
        )
