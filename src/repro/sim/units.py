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


def sec(value: float) -> float:
    """Return *value* seconds, in nanoseconds."""
    return value * SEC


def to_usec(time_ns: float) -> float:
    """Convert a time in nanoseconds to microseconds."""
    return time_ns / USEC


def to_msec(time_ns: float) -> float:
    """Convert a time in nanoseconds to milliseconds."""
    return time_ns / MSEC


def to_sec(time_ns: float) -> float:
    """Convert a time in nanoseconds to seconds."""
    return time_ns / SEC


# -- data rates ------------------------------------------------------------

#: One bit per second (the base rate unit).
BPS = 1.0
#: One kilobit per second in bits per second.
KBPS = 1e3
#: One megabit per second in bits per second.
MBPS = 1e6
#: One gigabit per second in bits per second.
GBPS = 1e9


def kbps(value: float) -> float:
    """Return *value* kilobits/second, in bits/second."""
    return value * KBPS


def mbps(value: float) -> float:
    """Return *value* megabits/second, in bits/second."""
    return value * MBPS


def gbps(value: float) -> float:
    """Return *value* gigabits/second, in bits/second."""
    return value * GBPS


def to_gbps(rate_bps: float) -> float:
    """Convert a rate in bits/second to gigabits/second."""
    return rate_bps / GBPS


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


def rate_bps_from_bytes(total_bytes: int, duration_ns: float) -> float:
    """Average rate in bits/second for *total_bytes* over *duration_ns*.

    Returns 0.0 for a zero-length interval rather than raising, because
    monitors routinely compute rates over possibly-empty windows.
    """
    if duration_ns <= 0:
        return 0.0
    return total_bytes * 8 * SEC / duration_ns
