"""Hash externs available to data-plane programs (CRC16/CRC32 family).

Tofino-class ASICs expose CRC-based hash units to the match-action
pipeline; programs use them for ECMP, for indexing register arrays, and —
in this paper — for computing the remote-table entry index from a packet's
5-tuple (§4, lookup table primitive).

CRC16 (CCITT, reflected: the classic ``crc16`` polynomial 0x8005 variant
used by P4 targets) is implemented table-driven from scratch; CRC32
delegates to :func:`zlib.crc32` (the same IEEE 802.3 polynomial hardware
uses).
"""

from __future__ import annotations

import struct
import zlib
from typing import NamedTuple, Tuple

from ..net.headers import Ipv4Header, UdpHeader
from ..net.packet import Packet


def _build_crc16_table(poly: int = 0xA001) -> Tuple[int, ...]:
    """Build the reflected CRC-16 lookup table (poly 0x8005 reflected)."""
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            if crc & 1:
                crc = (crc >> 1) ^ poly
            else:
                crc >>= 1
        table.append(crc)
    return tuple(table)


_CRC16_TABLE = _build_crc16_table()


def crc16(data: bytes) -> int:
    """CRC-16 (ARC variant: poly 0x8005 reflected, init 0) of *data*."""
    crc = 0x0000
    table = _CRC16_TABLE
    for byte in data:
        crc = (crc >> 8) ^ table[(crc ^ byte) & 0xFF]
    return crc


def _fingerprint_tables(width: int = 13) -> Tuple[Tuple[int, ...], ...]:
    """Per-position tables of ``(crc16(p) << 16) | crc16(p[::-1])``: CRC-16/ARC
    (init 0, no final XOR) is linear over GF(2), so for a fixed length that is
    the XOR of its values on each byte alone, and each position's table,
    linear in the byte too, fills from its eight single-bit values."""
    tables = []
    for at in range(width):
        bits = [bytes(at) + bytes((1 << bit,)) + bytes(width - 1 - at) for bit in range(8)]
        basis = [(crc16(p) << 16) | crc16(p[::-1]) for p in bits]
        table = [0] * 256
        for byte in range(1, 256):
            low = byte & -byte  # the lowest set bit; the rest is filled already
            table[byte] = table[byte ^ low] ^ basis[low.bit_length() - 1]
        tables.append(tuple(table))
    return tuple(tables)


(_F0, _F1, _F2, _F3, _F4, _F5, _F6, _F7, _F8, _F9, _F10, _F11, _F12) = _fingerprint_tables()


def flow_fingerprint(packed: bytes) -> int:
    """``(crc16(packed) << 16) | crc16(packed[::-1])`` of a 13-byte packed
    5-tuple — the lookup table's flow fingerprint — one table per byte."""
    b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12 = packed
    return (_F0[b0] ^ _F1[b1] ^ _F2[b2] ^ _F3[b3] ^ _F4[b4] ^ _F5[b5] ^ _F6[b6] ^ _F7[b7]
            ^ _F8[b8] ^ _F9[b9] ^ _F10[b10] ^ _F11[b11] ^ _F12[b12])


def crc32(data: bytes) -> int:
    """CRC-32 (IEEE 802.3) of *data*."""
    return zlib.crc32(data) & 0xFFFFFFFF


_FIVE_TUPLE = struct.Struct("!IIBHH")


class FiveTuple(NamedTuple):
    """The classic flow key: (src IP, dst IP, protocol, src port, dst port).

    A named tuple: construction, equality and ``hash()`` run in C, and the
    hash is the plain 5-tuple's, so anything keyed by flows iterates in an
    order set by field values alone.  Ranges are checked at :meth:`pack`.
    """

    src_ip: int
    dst_ip: int
    protocol: int
    src_port: int
    dst_port: int

    @classmethod
    def of(cls, packet: Packet) -> "FiveTuple":
        """Extract the 5-tuple from a structured packet.

        Non-UDP/TCP packets hash with zero ports, matching what a parser
        that didn't extract L4 would produce.
        """
        ip = packet.require(Ipv4Header)
        udp = packet.find(UdpHeader)
        src_port = udp.src_port if udp is not None else 0
        dst_port = udp.dst_port if udp is not None else 0
        return cls(ip.src.value, ip.dst.value, ip.protocol, src_port, dst_port)

    def pack(self) -> bytes:
        return _FIVE_TUPLE.pack(*self)

    def hash(self, width_bits: int = 32) -> int:
        """CRC32 hash of the packed 5-tuple, truncated to ``width_bits``."""
        digest = zlib.crc32(_FIVE_TUPLE.pack(*self))
        if width_bits >= 32:
            return digest
        return digest & ((1 << width_bits) - 1)
