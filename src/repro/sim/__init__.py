"""Deterministic discrete-event simulation engine.

This subpackage is the substrate every other layer runs on.  It provides a
SimPy-flavoured API (written from scratch; SimPy is not a dependency):

- :class:`~repro.sim.engine.Simulator` — event loop with nanosecond time.
- :class:`~repro.sim.events.Event`, :class:`~repro.sim.events.Timeout`,
  :class:`~repro.sim.events.AnyOf` / :class:`~repro.sim.events.AllOf`.
- :class:`~repro.sim.process.Process` — generator-based cooperative
  processes that ``yield`` events.
- :mod:`~repro.sim.resources` — capacity-limited resources with optional
  priorities (CPU cores, NIC execution units, IRQ lines).
- :mod:`~repro.sim.store` — FIFO stores used for queues (WQs, CQs,
  socket buffers).
- :mod:`~repro.sim.rng` — named, seeded random streams so runs are
  reproducible and components do not perturb each other's draws.
- :mod:`~repro.sim.trace` — structured event tracing.
"""

from repro.sim.engine import Simulator
from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.fastforward import FastForward, FastForwardStats, Skip
from repro.sim.process import Process
from repro.sim.resources import PriorityResource, Resource
from repro.sim.store import FilterStore, Store
from repro.sim.rng import RngRegistry
from repro.sim.trace import Trace

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "AnyOf",
    "AllOf",
    "FastForward",
    "FastForwardStats",
    "Skip",
    "Process",
    "Resource",
    "PriorityResource",
    "Store",
    "FilterStore",
    "RngRegistry",
    "Trace",
]
