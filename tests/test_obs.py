"""Tests for the unified observability layer (registry + wire trace)."""

import json

import pytest

from repro.analysis.reporting import (
    METRICS_SCHEMA,
    format_metrics,
    metrics_to_dict,
    write_metrics_json,
)
from repro.apps.programs import CountingProgram, RemoteLookupProgram
from repro.obs import Observability
from repro.obs.registry import Counter, Gauge, Histogram, MetricRegistry
from repro.obs.trace import WireTrace
from repro.rdma.constants import ATOMIC_OPERAND_BYTES
from repro.sim.simulator import Simulator
from repro.testbed import build_testbed
from repro.workloads.perftest import RawEthernetBw


# -- registry ----------------------------------------------------------------


def test_counter_and_gauge_basics():
    reg = MetricRegistry()
    c = reg.counter("a.hits")
    c.inc()
    c.inc(4)
    assert reg.value("a.hits") == 5
    g = reg.gauge("a.depth")
    g.set(7)
    g.add(-2)
    assert reg.value("a.depth") == 5
    assert reg.value("a.missing", default=-1) == -1
    assert "a.hits" in reg and len(reg) == 2


def test_counter_get_or_create_returns_same_object():
    reg = MetricRegistry()
    assert reg.counter("x") is reg.counter("x")


def test_kind_mismatch_raises():
    reg = MetricRegistry()
    reg.counter("x")
    with pytest.raises(TypeError):
        reg.gauge("x")
    with pytest.raises(TypeError):
        reg.histogram("x")


def test_function_gauge_samples_live_state():
    reg = MetricRegistry()
    backing = [1, 2, 3]
    g = reg.gauge("queue.depth", fn=lambda: len(backing))
    assert g.value == 3
    backing.append(4)
    assert g.value == 4
    with pytest.raises(TypeError):
        g.set(0)


def test_histogram_summary_and_percentile():
    h = Histogram("lat")
    for v in (1, 2, 4, 8, 1000):
        h.observe(v)
    assert h.count == 5
    assert h.min == 1 and h.max == 1000
    assert h.mean == pytest.approx(203.0)
    assert h.percentile(0.5) <= h.percentile(0.99)
    payload = h.to_dict()
    assert payload["kind"] == "histogram"
    assert payload["value"]["count"] == 5


def test_unique_scope_never_aliases():
    reg = MetricRegistry()
    a = reg.unique_scope("lookup")
    b = reg.unique_scope("lookup")
    assert a.name == "lookup" and b.name == "lookup#2"
    a.counter("hits").inc()
    assert reg.value("lookup.hits") == a["hits"] == 1
    assert reg.value("lookup#2.hits") is None
    with pytest.raises(KeyError, match="lookup#2.hits"):
        b["hits"]  # a read never registers: no fresh zero counter
    assert reg.names() == ["lookup.hits"]


def test_scope_children_and_prefix_snapshot():
    reg = MetricRegistry()
    rnic = reg.unique_scope("rnic[r0]")
    qp = rnic.child("qp[7]")
    qp.counter("requests_received").inc(3)
    rnic.counter("acks_sent").inc()
    snap = reg.snapshot("rnic[r0]")
    assert snap == {
        "rnic[r0].acks_sent": 1,
        "rnic[r0].qp[7].requests_received": 3,
    }
    assert list(snap) == sorted(snap)  # deterministic order


def test_remove_scope_drops_metrics_and_releases_name():
    reg = MetricRegistry()
    scope = reg.unique_scope("pktbuf[3]")
    scope.counter("diverted").inc()
    reg.remove_scope("pktbuf[3]")
    assert "pktbuf[3].diverted" not in reg
    assert reg.unique_scope("pktbuf[3]").name == "pktbuf[3]"


def test_total_sums_by_suffix():
    reg = MetricRegistry()
    reg.counter("roce[a].naks_received").inc(2)
    reg.counter("roce[b].naks_received").inc(3)
    reg.histogram("x.naks_received").observe(99)  # histograms excluded
    assert reg.total("naks_received") == 5


# -- observability handle ----------------------------------------------------


def test_simulator_gets_private_registry_by_default():
    a, b = Simulator(), Simulator()
    assert a.obs.registry is not b.obs.registry


def test_activate_installs_session_handle():
    obs = Observability(trace=WireTrace())
    with obs.activate():
        sim = Simulator()
        assert sim.obs is obs
        assert Observability.active() is obs
    assert Observability.active() is None
    assert Simulator().obs is not obs


# -- wire trace --------------------------------------------------------------


def test_trace_limit_drops_new_events():
    trace = WireTrace(limit=2)
    for i in range(5):
        trace.emit(t_ns=float(i), node="n", qpn=1, kind="WRITE", psn=i)
    assert len(trace) == 2 and trace.dropped == 3
    lines = trace.to_jsonl().strip().splitlines()
    assert json.loads(lines[-1]) == {"meta": "truncated", "dropped": 3}


def test_trace_per_qp_and_kinds():
    trace = WireTrace()
    trace.emit(1.0, "switch:t", 3, "WRITE", psn=0)
    trace.emit(2.0, "switch:t", 4, "READ", psn=0)
    trace.emit(3.0, "switch:t", 3, "ACK", psn=0)
    assert sorted(trace.per_qp()) == [3, 4]
    assert [e.kind for e in trace.per_qp()[3]] == ["WRITE", "ACK"]
    assert trace.kinds() == {"WRITE": 1, "READ": 1, "ACK": 1}


def test_end_to_end_trace_records_qp_timeline(tmp_path):
    """A real simulated run produces a parseable per-QP JSONL timeline."""
    from repro.core.rocegen import RoceRequestGenerator

    obs = Observability(trace=WireTrace())
    with obs.activate():
        tb = build_testbed(n_hosts=1)
        from repro.apps.programs import StaticL2Program

        program = StaticL2Program()
        program.install(tb.hosts[0].eth.mac, tb.host_ports[0])
        program.install(tb.memory_server.eth.mac, tb.server_port)
        tb.switch.bind_program(program)
        channel = tb.controller.open_channel(tb.memory_server, tb.server_port, 4096)
        # The switch accounts each response; this owner needs nothing more.
        gen = RoceRequestGenerator(tb.switch, channel, on_response=lambda *response: None)
        gen.write(channel.base_address, b"hello")
        gen.read(channel.base_address, 5)
        gen.fetch_add(channel.base_address + 1024, 1)
        tb.sim.run()

    kinds = obs.trace.kinds()
    assert kinds.get("WRITE") == 1
    assert kinds.get("READ") == 1
    assert kinds.get("ATOMIC") == 1
    assert kinds.get("READ_RESP") == 1
    assert kinds.get("ATOMIC_ACK") == 1

    path = tmp_path / "trace.jsonl"
    obs.trace.write_jsonl(str(path))
    events = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(events) == len(obs.trace)
    for event in events:
        assert {"t_ns", "node", "qpn", "kind", "psn", "wire_bytes"} <= set(event)
    # Requester events carry the channel name; times never regress per QP.
    requester = [e for e in events if e["node"].startswith("switch:")]
    assert requester and all("channel" in e for e in requester)
    for timeline in obs.trace.per_qp().values():
        times = [e.t_ns for e in timeline]
        assert times == sorted(times)


# -- fixed-seed runs ----------------------------------------------------------


def _run_fixed_seed_lookup():
    """A small fixed-seed fig3a-style run; returns (table, registry)."""
    from repro.core.lookup_table import (
        ACTION_SET_DSCP,
        LookupTableConfig,
        RemoteAction,
        RemoteLookupTable,
    )
    from repro.workloads.netpipe import PROBE_PORT, PingPong

    tb = build_testbed(n_hosts=2, seed=7)
    program = RemoteLookupProgram()
    for host, port in zip(tb.hosts, tb.host_ports):
        program.install(host.eth.mac, port)
    tb.switch.bind_program(program)
    config = LookupTableConfig(entries=1 << 10, cache_entries=0)
    channel = tb.controller.open_channel(
        tb.memory_server, tb.server_port, config.entries * config.entry_bytes
    )
    table = RemoteLookupTable(tb.switch, channel, config=config)
    program.use_lookup_table(table)
    client, server = tb.hosts
    from repro.switches.hashing import FiveTuple

    forward = FiveTuple(
        src_ip=client.eth.ip.value, dst_ip=server.eth.ip.value,
        protocol=17, src_port=PROBE_PORT + 1, dst_port=PROBE_PORT,
    )
    reverse = FiveTuple(
        src_ip=server.eth.ip.value, dst_ip=client.eth.ip.value,
        protocol=17, src_port=PROBE_PORT, dst_port=PROBE_PORT + 1,
    )
    table.install(forward, RemoteAction(ACTION_SET_DSCP, 46))
    table.install(reverse, RemoteAction(ACTION_SET_DSCP, 46))
    pingpong = PingPong(tb.sim, client, server, packet_size=256, probes=10)
    pingpong.start()
    tb.sim.run()
    return table, tb.sim.obs.registry


def test_registry_is_deterministic_across_runs():
    # QP numbers come from a process-global allocator, so mask the per-QP
    # gauge names; everything else must be byte-identical run to run.
    import re

    def normalized(reg):
        doc = metrics_to_dict(reg)
        doc["metrics"] = {
            re.sub(r"qp\[\d+\]", "qp[N]", name): value
            for name, value in doc["metrics"].items()
        }
        return json.dumps(doc, sort_keys=True)

    _, reg_a = _run_fixed_seed_lookup()
    _, reg_b = _run_fixed_seed_lookup()
    assert normalized(reg_a) == normalized(reg_b)


def test_statestore_registry_counts_packets():
    tb = build_testbed(n_hosts=2, seed=3)
    program = CountingProgram()
    for host, port in zip(tb.hosts, tb.host_ports):
        program.install(host.eth.mac, port)
    tb.switch.bind_program(program)
    from repro.core.state_store import RemoteStateStore, StateStoreConfig

    config = StateStoreConfig(counters=1 << 10)
    channel = tb.controller.open_channel(
        tb.memory_server, tb.server_port, config.counters * ATOMIC_OPERAND_BYTES
    )
    store = RemoteStateStore(tb.switch, channel, config=config)
    program.use_state_store(store)
    gen = RawEthernetBw(
        tb.sim, tb.hosts[0], tb.hosts[1],
        packet_size=256, rate_bps=40e9, count=50,
    )
    gen.start()
    tb.sim.run()
    assert store.metrics["sampled_packets"] == 50


# -- renderers ---------------------------------------------------------------


def test_metrics_to_dict_schema_and_determinism():
    reg = MetricRegistry()
    reg.counter("a.hits").inc(2)
    reg.gauge("a.depth").set(1.5)
    reg.histogram("a.lat").observe(10)
    doc = metrics_to_dict(reg, label="unit")
    assert doc["schema"] == METRICS_SCHEMA
    assert doc["label"] == "unit"
    assert doc["metrics"]["a.hits"] == {"kind": "counter", "value": 2}
    assert doc["metrics"]["a.lat"]["kind"] == "histogram"


def test_write_metrics_json_round_trip(tmp_path):
    reg = MetricRegistry()
    reg.counter("x.y").inc()
    path = tmp_path / "metrics.json"
    write_metrics_json(str(path), reg, label="t")
    doc = json.loads(path.read_text())
    assert doc["schema"] == METRICS_SCHEMA
    assert doc["metrics"]["x.y"]["value"] == 1


def test_format_metrics_renders_table_with_prefix_filter():
    reg = MetricRegistry()
    reg.counter("lookup.hits").inc(3)
    reg.counter("other.misses").inc(1)
    reg.histogram("lookup.lat").observe(100)
    text = format_metrics(reg, prefix="lookup")
    assert "lookup.hits" in text and "other.misses" not in text
    assert "n=1" in text  # histogram summary cell
    assert "(no metrics under prefix" in format_metrics(reg, prefix="nope")
