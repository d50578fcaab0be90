"""InfiniBand / RoCEv2 protocol constants (RC transport subset).

Opcode values follow the InfiniBand Architecture Specification (volume 1):
the upper three bits of the BTH opcode select the transport service (RC =
``000``) and the lower five bits select the operation.  Only the subset the
paper needs is implemented: one-packet RDMA WRITE/READ, atomic
Fetch-and-Add, and their acknowledgements.
"""

from __future__ import annotations

import enum


class Opcode(enum.IntEnum):
    """RC-transport BTH opcodes used by the primitives."""

    SEND_ONLY = 0x04
    RDMA_WRITE_FIRST = 0x06
    RDMA_WRITE_MIDDLE = 0x07
    RDMA_WRITE_LAST = 0x08
    RDMA_WRITE_ONLY = 0x0A
    RDMA_READ_REQUEST = 0x0C
    RDMA_READ_RESPONSE_FIRST = 0x0D
    RDMA_READ_RESPONSE_MIDDLE = 0x0E
    RDMA_READ_RESPONSE_LAST = 0x0F
    RDMA_READ_RESPONSE_ONLY = 0x10
    ACKNOWLEDGE = 0x11
    ATOMIC_ACKNOWLEDGE = 0x12
    COMPARE_SWAP = 0x13
    FETCH_ADD = 0x14


#: ``Opcode`` members by wire value (a dict probe; ``Opcode(value)`` is slow).
OPCODES = {int(opcode): opcode for opcode in Opcode}

#: Opcodes that a responder treats as requests.
REQUEST_OPCODES = frozenset(
    {
        Opcode.SEND_ONLY,
        Opcode.RDMA_WRITE_ONLY,
        Opcode.RDMA_WRITE_FIRST,
        Opcode.RDMA_WRITE_MIDDLE,
        Opcode.RDMA_WRITE_LAST,
        Opcode.RDMA_READ_REQUEST,
        Opcode.COMPARE_SWAP,
        Opcode.FETCH_ADD,
    }
)

#: Opcodes that a requester treats as responses.
RESPONSE_OPCODES = frozenset(
    {
        Opcode.RDMA_READ_RESPONSE_ONLY,
        Opcode.RDMA_READ_RESPONSE_FIRST,
        Opcode.RDMA_READ_RESPONSE_MIDDLE,
        Opcode.RDMA_READ_RESPONSE_LAST,
        Opcode.ACKNOWLEDGE,
        Opcode.ATOMIC_ACKNOWLEDGE,
    }
)


class AethSyndrome:
    """AETH syndrome encodings (simplified: ACK with unlimited credits)."""

    ACK = 0b0001_1111          # ACK, credit field saturated
    NAK_PSN_SEQUENCE_ERROR = 0b0110_0000
    NAK_INVALID_REQUEST = 0b0110_0001
    NAK_REMOTE_ACCESS_ERROR = 0b0110_0010
    NAK_REMOTE_OP_ERROR = 0b0110_0011

    NAK_SYNDROMES = frozenset(
        {
            NAK_PSN_SEQUENCE_ERROR,
            NAK_INVALID_REQUEST,
            NAK_REMOTE_ACCESS_ERROR,
            NAK_REMOTE_OP_ERROR,
        }
    )

    #: The two syndrome bits that are both set in every NAK.
    NAK_MASK = 0b0110_0000

    @classmethod
    def is_nak(cls, syndrome: int) -> bool:
        return (syndrome & cls.NAK_MASK) == cls.NAK_MASK


#: PSNs are 24-bit sequence numbers.
PSN_MODULO = 1 << 24

#: Atomic operations always act on exactly 8 bytes.
ATOMIC_OPERAND_BYTES = 8

#: Default partition key (the "default partition" in IB terms).
DEFAULT_PKEY = 0xFFFF


def psn_add(psn: int, delta: int) -> int:
    """Advance a 24-bit PSN by *delta*, wrapping at 2**24."""
    return (psn + delta) % PSN_MODULO


def psn_distance(a: int, b: int) -> int:
    """Forward distance from *a* to *b* in PSN space (0..2**24-1)."""
    return (b - a) % PSN_MODULO
