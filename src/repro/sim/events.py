"""Event primitives for the discrete-event engine.

An :class:`Event` moves through three states: *pending* (created, not yet
triggered), *triggered* (scheduled on the event queue with a value or an
exception) and *processed* (its callbacks have run).  Processes wait on
events by ``yield``-ing them; the engine resumes the process when the event
is processed.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Callable, Iterable, Optional

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator

# Scheduling priorities: at equal timestamps, URGENT records (a process's
# first step and its end, call_soon stages) are processed before NORMAL
# ones.  Ties beyond priority preserve FIFO order.
URGENT = 0
NORMAL = 1

_PENDING = object()


def _fire(event: "Event") -> None:
    """Heap-record body of a triggered event: run its callbacks.

    A failure nobody waited for is re-raised, so it surfaces from
    :meth:`~repro.sim.engine.Simulator.run` instead of being lost.
    """
    callbacks = event.callbacks
    event.callbacks = None
    for callback in callbacks:
        callback(event)
    if not event._ok and not event._defused:
        raise event._value  # type: ignore[misc]


class Event:
    """A happening at a point in simulated time.

    Parameters
    ----------
    sim:
        The owning :class:`~repro.sim.engine.Simulator`.
    name:
        Optional label used in traces and ``repr``.
    """

    __slots__ = ("sim", "name", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        #: Callbacks run when the event is processed; ``None`` afterwards.
        self.callbacks: Optional[list[Callable[[Event], None]]] = []
        self._value: object = _PENDING
        self._ok: bool = True
        self._defused: bool = False

    # -- state ---------------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has a value (it may not be processed yet)."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only meaningful once triggered."""
        if not self.triggered:
            raise SimulationError(f"{self!r} has not been triggered")
        return self._ok

    @property
    def value(self) -> object:
        """The event's value (or the exception it failed with)."""
        if self._value is _PENDING:
            raise SimulationError(f"{self!r} has no value yet")
        return self._value

    def defuse(self) -> None:
        """Mark a failed event as handled so the engine does not re-raise."""
        self._defused = True

    @property
    def defused(self) -> bool:
        return self._defused

    # -- triggering ----------------------------------------------------------

    def succeed(self, value: object = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        # Inlined sim._schedule(self, NORMAL, 0.0): succeed() is the hottest
        # trigger path (stores, resources, CQ wakeups).
        sim = self.sim
        heappush(sim._queue, (sim._now, NORMAL, sim._seq, _fire, self))
        sim._seq += 1
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        Waiters have the exception thrown into them; if nobody waits and the
        event is not :meth:`defuse`-d, the engine re-raises it from ``run``.
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        self.sim._schedule(self, NORMAL, 0.0)
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger with the state of another (triggered) event."""
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = event._ok
        self._value = event._value
        self.sim._schedule(self, NORMAL, 0.0)

    # -- misc ------------------------------------------------------------------

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        state = (
            "processed" if self.processed else "triggered" if self.triggered else "pending"
        )
        return f"<{type(self).__name__}{label} {state}>"


class Timeout(Event):
    """An event that fires after a fixed delay; scheduled at creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: object = None, name: str = ""):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        # Inlined Event.__init__ + sim._schedule: Timeouts are born triggered,
        # so skip the pending-state round trip.
        self.sim = sim
        self.name = name
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self.delay = delay
        heappush(sim._queue, (sim._now + delay, NORMAL, sim._seq, _fire, self))
        sim._seq += 1


class AllOf(Event):
    """Triggered once *all* sub-events have succeeded.

    Its value is the list of the sub-events' values, in the order given.
    It fails as soon as any sub-event fails (the sub-event is defused; its
    exception becomes this event's).
    """

    __slots__ = ("_events", "_count")

    def __init__(self, sim: "Simulator", events: Iterable[Event], name: str = ""):
        super().__init__(sim, name=name)
        self._events = tuple(events)
        self._count = 0
        for event in self._events:
            if event.sim is not sim:
                raise SimulationError("condition spans multiple simulators")
        if not self._events:
            self.succeed([])
            return
        for event in self._events:
            if event.processed:
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _check(self, event: Event) -> None:
        if self.triggered:
            if not event._ok:
                event.defuse()
            return
        if not event._ok:
            event.defuse()
            self.fail(event._value)  # type: ignore[arg-type]
            return
        self._count += 1
        if self._count == len(self._events):
            self.succeed([e._value for e in self._events])
