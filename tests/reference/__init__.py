"""Differential oracles: transcriptions of code the budgeted paths replaced.

Each class is the implementation as it stood before its PR, kept verbatim
(subclassing the live class where only the hot path changed) so a test can
drive old and new with one seeded schedule and demand identical results.
The per-PR guard files import them from here.
"""

from .cuckoo import ReferenceChoiceFilter, ReferenceDirectory
from .lookup_table import (
    ReferenceLookupTable,
    ReferenceShardedLookup,
    ReferenceZipfTraffic,
    reference_stamp_ports,
    reference_unpack,
)
from .packet import reference_parse
from .packet_buffer import ReferencePacketBuffer
from .port_queue import ReferencePortQueue
from .rnic import ReferenceRnic
from .state_store import ReferenceStateStore

__all__ = [
    "ReferenceChoiceFilter",
    "ReferenceDirectory",
    "ReferenceLookupTable",
    "ReferencePacketBuffer",
    "ReferencePortQueue",
    "ReferenceRnic",
    "ReferenceShardedLookup",
    "ReferenceStateStore",
    "ReferenceZipfTraffic",
    "reference_parse",
    "reference_stamp_ports",
    "reference_unpack",
]
