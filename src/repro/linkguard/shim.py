"""The guard shim header: the on-wire format of link-local protection.

LinkGuardian (SIGCOMM'23) masks corrupting links below the transport by
tagging every protected frame with a link-local sequence number, keeping
a small emergency retransmission buffer at the sender, and having the
receiver notify the sender the moment a hole appears — detect-and-resend
in a link RTT instead of a transport RTO.  The shim here is that tag:

* it rides between the Ethernet header and the original L3 stack (the
  Ethernet ``ethertype`` is rewritten to :data:`ETHERTYPE_LINKGUARD` and
  the original value travels in :attr:`GuardShimHeader.inner_ethertype`,
  exactly how an 802.1Q tag or MPLS shim nests), so switches on either
  side of the guarded hop never see it;
* ``seq``/``ack`` carry the guard's link-local sequence space (fully
  independent of RoCE PSNs — the transport above is untouched);
* ``checksum`` is a CRC over the *inner* frame bytes, which turns silent
  single-bit corruption into detectable loss at the guard itself, even
  for packets whose ICRC was never computed;
* control frames (ACK / NAK / RESYNC) reuse the same header with no
  inner frame behind it.

The codec follows the repo's header idiom (:mod:`repro.net.headers`):
a slotted :class:`~repro.net.headers.Header`, a module-level precompiled
:class:`struct.Struct`, byte-exact ``pack``/``unpack``.
"""

from __future__ import annotations

import struct
import zlib

from ..net.headers import Header, HeaderError

#: EtherType claimed by guarded frames (IEEE 802 local experimental 2).
ETHERTYPE_LINKGUARD = 0x88B6

#: Shim kinds.  DATA carries a guarded inner frame; the rest are
#: standalone control frames between the two guard endpoints.
GUARD_DATA = 0
#: Cumulative acknowledgement: every seq <= ``ack`` arrived in order.
GUARD_ACK = 1
#: Loss notification: seqs ``seq`` .. ``extent`` are missing — resend now.
GUARD_NAK = 2
#: Give-up notification: seqs ``seq`` .. ``extent`` are unrecoverable at
#: this layer (emergency buffer exhausted); the receiver must advance
#: past them and let the transport's go-back-N repair the damage.
GUARD_RESYNC = 3

_KINDS = (GUARD_DATA, GUARD_ACK, GUARD_NAK, GUARD_RESYNC)

#: Flag bit: this DATA frame is a guard retransmission.
FLAG_RESENT = 0x01
#: Flag bit: the ``ack`` field is meaningful (piggybacked cumulative ack).
FLAG_ACK_VALID = 0x02

_SHIM_STRUCT = struct.Struct("!BBIIIHH")


def guard_checksum(frame_bytes: bytes) -> int:
    """16-bit CRC over the inner frame, the guard's corruption detector."""
    return zlib.crc32(frame_bytes) & 0xFFFF


class GuardShimHeader(Header):
    """The 18-byte link-guard shim (kind, flags, seq, ack, extent,
    checksum, inner ethertype).

    * ``seq`` — DATA: this frame's link-local sequence number.
      NAK/RESYNC: first sequence of the named range.  ACK: unused (0).
    * ``ack`` — cumulative ack (valid iff ``FLAG_ACK_VALID``): every
      sequence up to and including this value arrived.  ``0xFFFFFFFF``
      encodes "nothing yet" (the sequence space starts at 0).
    * ``extent`` — NAK/RESYNC: last sequence of the named range (inclusive).
    * ``checksum`` — DATA: CRC16 of the inner frame bytes.  Control: 0.
    * ``inner_ethertype`` — DATA: the Ethernet ethertype the shim
      displaced.  Control: 0.
    """

    __slots__ = (
        "kind",
        "flags",
        "seq",
        "ack",
        "extent",
        "checksum",
        "inner_ethertype",
    )
    LENGTH = byte_len = 18

    def __init__(
        self,
        kind: int = GUARD_DATA,
        flags: int = 0,
        seq: int = 0,
        ack: int = 0,
        extent: int = 0,
        checksum: int = 0,
        inner_ethertype: int = 0,
    ) -> None:
        if kind not in _KINDS:
            raise HeaderError(f"bad guard shim kind: {kind}")
        if not 0 <= flags <= 0xFF:
            raise HeaderError(f"guard shim flags out of range: {flags}")
        if not 0 <= seq <= 0xFFFFFFFF:
            raise HeaderError(f"guard shim seq out of range: {seq}")
        if not 0 <= ack <= 0xFFFFFFFF:
            raise HeaderError(f"guard shim ack out of range: {ack}")
        if not 0 <= extent <= 0xFFFFFFFF:
            raise HeaderError(f"guard shim extent out of range: {extent}")
        if not 0 <= checksum <= 0xFFFF:
            raise HeaderError(f"guard shim checksum out of range: {checksum}")
        if not 0 <= inner_ethertype <= 0xFFFF:
            raise HeaderError(
                f"guard shim inner_ethertype out of range: {inner_ethertype}"
            )
        self.kind = kind
        self.flags = flags
        self.seq = seq
        self.ack = ack
        self.extent = extent
        self.checksum = checksum
        self.inner_ethertype = inner_ethertype

    def pack(self) -> bytes:
        if self.kind not in _KINDS:
            raise HeaderError(f"bad guard shim kind: {self.kind}")
        try:
            return _SHIM_STRUCT.pack(
                self.kind,
                self.flags,
                self.seq,
                self.ack,
                self.extent,
                self.checksum,
                self.inner_ethertype,
            )
        except struct.error as exc:
            raise self._pack_error(exc) from None

    @classmethod
    def unpack(cls, data: bytes) -> "GuardShimHeader":
        if len(data) < cls.LENGTH:
            raise HeaderError(f"short guard shim: {len(data)} bytes")
        header = object.__new__(cls)
        (
            header.kind,
            header.flags,
            header.seq,
            header.ack,
            header.extent,
            header.checksum,
            header.inner_ethertype,
        ) = _SHIM_STRUCT.unpack_from(data)
        if header.kind not in _KINDS:
            raise HeaderError(f"bad guard shim kind: {header.kind}")
        return header
