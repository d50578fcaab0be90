"""Unit conventions and conversion helpers for the simulator.

Conventions used throughout the library:

* **time** is expressed in nanoseconds (``float``),
* **data rates** are expressed in bits per second (``float``),
* **sizes** are expressed in bytes (``int``).

Keeping a single convention avoids a whole class of unit bugs; these
helpers make call sites read naturally (``gbps(40)``, ``usec(1.5)``).
"""

from __future__ import annotations

# -- time ------------------------------------------------------------------

#: One nanosecond (the base time unit).
NSEC = 1.0
#: One microsecond in nanoseconds.
USEC = 1_000.0
#: One millisecond in nanoseconds.
MSEC = 1_000_000.0
#: One second in nanoseconds.
SEC = 1_000_000_000.0


def usec(value: float) -> float:
    """Return *value* microseconds, in nanoseconds."""
    return value * USEC


def msec(value: float) -> float:
    """Return *value* milliseconds, in nanoseconds."""
    return value * MSEC


def to_usec(time_ns: float) -> float:
    """Convert a time in nanoseconds to microseconds."""
    return time_ns / USEC


def to_msec(time_ns: float) -> float:
    """Convert a time in nanoseconds to milliseconds."""
    return time_ns / MSEC


# -- data rates ------------------------------------------------------------

#: One gigabit per second in bits per second.
GBPS = 1e9


def gbps(value: float) -> float:
    """Return *value* gigabits/second, in bits/second."""
    return value * GBPS


# -- sizes -----------------------------------------------------------------

#: One kibibyte in bytes.
KIB = 1024
#: One mebibyte in bytes.
MIB = 1024 * 1024
#: One gibibyte in bytes.
GIB = 1024 * 1024 * 1024


def kib(value: float) -> int:
    """Return *value* KiB, in bytes."""
    return int(value * KIB)


def mib(value: float) -> int:
    """Return *value* MiB, in bytes."""
    return int(value * MIB)


def gib(value: float) -> int:
    """Return *value* GiB, in bytes."""
    return int(value * GIB)


# -- derived helpers ---------------------------------------------------------

def transmission_delay_ns(size_bytes: int, rate_bps: float) -> float:
    """Time in nanoseconds to serialize *size_bytes* onto a *rate_bps* link.

    >>> transmission_delay_ns(1500, gbps(40))
    300.0
    """
    if rate_bps <= 0:
        raise ValueError(f"rate must be positive, got {rate_bps}")
    return size_bytes * 8 * SEC / rate_bps
