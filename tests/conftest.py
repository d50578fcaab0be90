"""Shared fixtures: simulators, connected host pairs, small topologies."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.net.link import connect
from repro.hosts.server import Host, MemoryServer
from repro.sim.simulator import Simulator
from repro.sim.units import gbps

#: The long lane (``pytest --hypothesis-profile=long``, CI's on-demand
#: ``property-long`` job): 20x the examples of the default profile, for
#: every property test that sizes itself with :func:`examples`.
settings.register_profile(
    "long", max_examples=20 * settings.get_profile("default").max_examples
)


def examples(n: int) -> int:
    """*n* examples under the default profile, scaled with the loaded one."""
    return n * settings.default.max_examples // settings.get_profile("default").max_examples


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def host_pair(sim):
    """Two hosts joined by a 40 GbE link (client, server, link)."""
    client = Host(sim, "client", "02:00:00:00:00:01", "10.0.0.1")
    server = MemoryServer(sim, "server", "02:00:00:00:00:02", "10.0.0.2")
    link = connect(sim, client.eth, server.eth, rate_bps=gbps(40))
    return client, server, link
