"""Deterministic discrete-event simulation engine.

This subpackage is the substrate every other layer runs on.  It provides a
SimPy-flavoured API (written from scratch; SimPy is not a dependency):

- :class:`~repro.sim.engine.Simulator` — event loop with nanosecond time.
- :class:`~repro.sim.events.Event`, :class:`~repro.sim.events.Timeout`,
  :class:`~repro.sim.events.AllOf`.
- :class:`~repro.sim.process.Process` — generator-based cooperative
  processes that ``yield`` events.
- :mod:`~repro.sim.resources` — capacity-limited FIFO resources (CPU
  cores, softirq queues, storage channels).
- :mod:`~repro.sim.store` — unbounded FIFO stores (CM requests, IRQ
  events, IPoIB socket queues, the storage fetch queue).
- :mod:`~repro.sim.rng` — named, seeded random streams so runs are
  reproducible and components do not perturb each other's draws.
- :mod:`~repro.sim.trace` — structured event tracing.
"""

from repro.sim.engine import Simulator
from repro.sim.events import AllOf, Event, Timeout
from repro.sim.fastforward import FastForward, FastForwardStats, Skip
from repro.sim.process import Process
from repro.sim.resources import Resource
from repro.sim.store import Store
from repro.sim.rng import RngRegistry
from repro.sim.trace import Trace

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "AllOf",
    "FastForward",
    "FastForwardStats",
    "Skip",
    "Process",
    "Resource",
    "Store",
    "RngRegistry",
    "Trace",
]
