"""Differential oracles: transcriptions of code the budgeted paths replaced.

Each class is the implementation as it stood before its PR, kept verbatim
(subclassing the live class where only the hot path changed) so a test can
drive old and new with one seeded schedule and demand identical results.
The per-PR guard files import them from here.
"""

from .cuckoo import ReferenceChoiceFilter, ReferenceDirectory
from .lookup_table import ReferenceZipfTraffic, reference_stamp_ports, reference_unpack
from .packet import reference_parse

__all__ = [
    "ReferenceChoiceFilter",
    "ReferenceDirectory",
    "ReferenceZipfTraffic",
    "reference_parse",
    "reference_stamp_ports",
    "reference_unpack",
]
