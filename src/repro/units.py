"""Canonical units used throughout the simulation.

Simulated time is measured in **nanoseconds** (float).  Data sizes are
measured in **bytes** (int).  Bandwidths are **bytes per nanosecond**
(equivalently GB/s).  All hardware profiles and cost models speak these
units; the helpers here are the only sanctioned conversion points, so a
magnitude bug cannot hide behind an ad-hoc ``* 1e9`` somewhere.
"""

from __future__ import annotations

# --- time ------------------------------------------------------------------

US: float = 1_000.0
MS: float = 1_000_000.0


def us(value: float) -> float:
    """Microseconds to simulation time."""
    return value * US


def ms(value: float) -> float:
    """Milliseconds to simulation time."""
    return value * MS


def to_ms(t: float) -> float:
    """Simulation time to milliseconds."""
    return t / MS


# --- sizes -----------------------------------------------------------------

KiB: int = 1024
MiB: int = 1024 * 1024
GiB: int = 1024 * 1024 * 1024


def mib(value: float) -> int:
    """MiB to bytes."""
    return int(value * MiB)


# --- bandwidth -------------------------------------------------------------


def gbit_per_s(value: float) -> float:
    """Gigabits per second to bytes per nanosecond.

    100 Gbit/s == 12.5 bytes/ns.
    """
    return value * 1e9 / 8.0 / 1e9


def gib_per_s(value: float) -> float:
    """GiB per second to bytes per nanosecond."""
    return value * GiB / 1e9


def to_gbit_per_s(bytes_per_ns: float) -> float:
    """Bytes per nanosecond to Gbit/s."""
    return bytes_per_ns * 8.0


def pretty_size(nbytes: int) -> str:
    """Human-readable size: 2 B, 4 KiB, 1 MiB."""
    if nbytes >= GiB and nbytes % GiB == 0:
        return f"{nbytes // GiB} GiB"
    if nbytes >= MiB and nbytes % MiB == 0:
        return f"{nbytes // MiB} MiB"
    if nbytes >= KiB and nbytes % KiB == 0:
        return f"{nbytes // KiB} KiB"
    return f"{nbytes} B"
