"""Tests for unit helpers."""

import pytest

from repro.sim import units


def test_time_conversions():
    assert units.usec(1) == 1_000.0
    assert units.msec(1) == 1_000_000.0
    assert units.to_usec(units.usec(2.5)) == pytest.approx(2.5)
    assert units.to_msec(units.msec(7)) == pytest.approx(7)


def test_rate_conversions():
    assert units.gbps(40) == 40e9


def test_size_helpers():
    assert units.kib(1) == 1024
    assert units.mib(12) == 12 * 1024 * 1024
    assert units.gib(1) == 1024 ** 3


def test_transmission_delay_mtu_at_40g():
    # 1500 B at 40 Gbps = 300 ns, the canonical sanity number.
    assert units.transmission_delay_ns(1500, units.gbps(40)) == pytest.approx(300.0)


def test_transmission_delay_rejects_nonpositive_rate():
    with pytest.raises(ValueError):
        units.transmission_delay_ns(100, 0)


def test_incast_arithmetic_from_paper_section_2_1():
    """§2.1: 12 MB buffer at 7x40 Gbps net inflow fills in ~0.34 ms."""
    buffer_bytes = 12e6
    net_inflow_bps = (8 - 1) * units.gbps(40)
    fill_ns = buffer_bytes * 8 * units.SEC / net_inflow_bps
    assert units.to_msec(fill_ns) == pytest.approx(0.34, rel=0.02)
