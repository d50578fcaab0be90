"""§4 overhead table: RoCE header bytes per operation.

"In an RDMA packet, RoCEv2 protocol adds 40 bytes (52 bytes in the case of
RoCEv1) of headers containing routing and transport information in
addition to an RDMA operation-specific header of 16 (WRITE/READ) or 28
bytes (Fetch-and-Add)."

The harness measures the numbers two ways: analytically from the header
codecs, and empirically by serializing real request packets built by the
data-plane generator — both must agree with the paper.
"""

from __future__ import annotations

from typing import Dict

from ..net.headers import EthernetHeader, Ipv4Header, UdpHeader
from ..net.addresses import Ipv4Address, MacAddress
from ..rdma.constants import Opcode
from ..rdma.headers import roce_packet_overhead
from ..rdma.packets import (
    build_fetch_add_request,
    build_read_request,
    build_write_request,
    convert_to_rocev1,
)
from ..rdma.qp import QueuePair
from ..rdma.verbs import connect_qps
from . import Experiment


def _build_request(opcode: Opcode, payload_bytes: int):
    qp_a = QueuePair(0x100, Ipv4Address("10.0.0.1"), MacAddress(1))
    qp_b = QueuePair(0x200, Ipv4Address("10.0.0.2"), MacAddress(2))
    connect_qps(qp_a, qp_b)
    if opcode == Opcode.RDMA_WRITE_ONLY:
        return build_write_request(qp_a, 0x1000, 0x42, b"x" * payload_bytes)
    if opcode == Opcode.RDMA_READ_REQUEST:
        return build_read_request(qp_a, 0x1000, 0x42, payload_bytes)
    return build_fetch_add_request(qp_a, 0x1000, 0x42, 1)


def _overhead_of(packet) -> int:
    """Overhead = serialized bytes beyond Ethernet + payload + ICRC."""
    raw = packet.pack()
    return len(raw) - EthernetHeader.LENGTH - len(packet.payload) - 4


def _measured_overhead(opcode: Opcode, payload_bytes: int) -> int:
    """Serialize a real RoCEv2 request and count its protocol bytes."""
    return _overhead_of(_build_request(opcode, payload_bytes))


def _measured_overhead_v1(opcode: Opcode, payload_bytes: int) -> int:
    """Same, but reframed as RoCEv1 (Ethernet / GRH / BTH ...)."""
    return _overhead_of(convert_to_rocev1(_build_request(opcode, payload_bytes)))


def run_overhead() -> Dict[str, dict]:
    """Regenerate the §4 overhead accounting: one row per operation."""
    rows = {}
    cases = [
        ("RDMA WRITE", Opcode.RDMA_WRITE_ONLY, 16),
        ("RDMA READ", Opcode.RDMA_READ_REQUEST, 16),
        ("Fetch-and-Add", Opcode.FETCH_ADD, 28),
    ]
    transport = Ipv4Header.LENGTH + UdpHeader.LENGTH + 12  # IPv4+UDP+BTH
    for name, opcode, extension in cases:
        measured_v1 = _measured_overhead_v1(opcode, 64)
        if measured_v1 != roce_packet_overhead(opcode, rocev1=True):
            raise AssertionError(
                f"RoCEv1 framing of {name} measures {measured_v1} B, "
                f"expected {roce_packet_overhead(opcode, rocev1=True)} B"
            )
        paper, measured = 40 + extension, _measured_overhead(opcode, 64)
        rows[name] = {
            "operation": name,
            "opcode": opcode,
            "transport_bytes": transport,  # IPv4 + UDP + BTH (40 B for RoCEv2)
            "extension_bytes": extension,  # RETH / AtomicETH
            "paper_total": paper,          # what §4 quotes
            "measured_total": measured,    # from a serialized packet
            "rocev1_total": measured_v1,
            "matches_paper": measured == paper,
        }
    return rows


def _checks(record) -> dict:
    write, read, fa = (record[op] for op in ("RDMA WRITE", "RDMA READ", "Fetch-and-Add"))
    return {
        "every operation matches §4": all(
            r["measured_total"] == r["paper_total"] for r in record.values()
        ),
        "RoCEv2 adds 56 B to WRITE/READ, 68 B to F&A": (
            write["measured_total"], read["measured_total"], fa["measured_total"]
        ) == (56, 56, 68),
        "RoCEv1 adds 68 B to WRITE, 80 B to F&A": (
            write["rocev1_total"], fa["rocev1_total"]
        ) == (68, 80),
    }


EXPERIMENT = Experiment(
    name="overhead", run=run_overhead, checks=_checks, quick={}, full={},
)
