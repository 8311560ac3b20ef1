"""Exception hierarchy for the repro package.

Every subsystem raises from this tree so callers can catch at the right
granularity (``ReproError`` for everything, ``VerbsError`` for the RDMA
stack, ...).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class SimulationError(ReproError):
    """Misuse of the discrete-event engine (e.g. yielding a used event)."""


class HardwareError(ReproError):
    """Invalid hardware configuration or operation."""


class VerbsError(ReproError):
    """Base for ibverbs-layer failures."""


class QPStateError(VerbsError):
    """Operation illegal in the queue pair's current state."""


class MemoryAccessError(VerbsError):
    """Access outside a registered memory region or with wrong permissions."""


class CQError(VerbsError):
    """Completion queue misuse (overflow, polling a destroyed CQ, ...)."""


class PolicyViolation(ReproError):
    """A CoRD policy denied a dataplane operation."""

    def __init__(self, policy: str, reason: str):
        super().__init__(f"{policy}: {reason}")
        self.policy = policy
        self.reason = reason


class KernelError(ReproError):
    """OS-model failures (bad syscall, socket misuse, ...)."""


class MPIError(ReproError):
    """MPI-layer failures (truncation, invalid rank, ...)."""


class ConfigError(ReproError):
    """Invalid benchmark or system configuration."""


class ProtocolViolation(ReproError):
    """A runtime RC-protocol invariant (PROTO1xx) was violated.

    Raised by :class:`repro.verify.monitors.ProtocolMonitor` in strict
    mode; the message carries the rule id and the offending QP/WR so the
    explorer can turn it into a counterexample."""
