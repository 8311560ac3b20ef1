"""Generator-based cooperative processes.

A process wraps a generator that ``yield``-s :class:`~repro.sim.events.Event`
instances — or bare numbers.  When the yielded event is processed, the
process resumes with the event's value (or has the event's exception thrown
into it).  A process is itself an event, so other processes can wait for
("join") it, and its return value (``return x`` in the generator) becomes
the event value.

``yield 250.0`` (any non-bool ``float``/``int``) sleeps 250 ns: one
``_wake`` heap record with the key a ``Timeout`` made at that point would
get.  A sleep may carry a continuation (``Process._after``, left by
``Core.run``) that its wake record runs first.  :meth:`Simulator.spawn`
makes a *detached* process: born processed, so it leaves no termination
record, a crash propagates out of :meth:`Simulator.run`, and joining it
raises :class:`~repro.errors.SimulationError`.  DESIGN.md ("Performance")
gives why each keeps every record's order.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Callable, Generator, Optional

from repro.errors import SimulationError
from repro.sim.events import _PENDING, NORMAL, URGENT, Event

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator

ProcessGenerator = Generator[Event, object, object]


def _wake(process: "Process") -> None:
    """Heap-record body of a first step or a scalar-yield sleep; runs
    the sleep's continuation (``Process._after``) first."""
    after = process._after
    if after is not None:
        process._after = None
        after()
    process._step(None, None)


class Process(Event):
    """A running simulation process: joinable, or detached (see module doc).

    Pass ``detached`` positionally: a keyword argument sends the class call
    down CPython's slow path, and :meth:`Simulator.spawn` runs once per
    IPoIB message.
    """

    __slots__ = ("_send", "_throw", "_after")

    def __init__(self, sim: "Simulator", generator: ProcessGenerator,
                 name: str = "", detached: bool = False):
        try:
            self._send = generator.send
            self._throw = generator.throw
        except AttributeError:
            raise SimulationError(f"{generator!r} is not a generator") from None
        # Event.__init__ inlined; a detached process is born processed.
        self.sim = sim
        self.name = name or getattr(generator, "__name__", "process")
        self.callbacks = None if detached else []
        self._value = _PENDING
        self._ok = True
        self._defused = False
        #: Ends the current sleep before the generator resumes (``Core.run``).
        self._after: Optional[Callable[[], None]] = None
        # First step: a wake record at (now, URGENT, next seq).
        heappush(sim._queue, (sim._now, URGENT, sim._seq, _wake, self))
        sim._seq += 1

    @property
    def detached(self) -> bool:
        """True for a :meth:`Simulator.spawn` process (never joinable)."""
        return self.callbacks is None and self._value is _PENDING

    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of ``event``."""
        if event._ok:
            self._step(event._value, None)
        else:
            event._defused = True
            self._step(None, event._value)  # type: ignore[arg-type]

    def _step(self, value: object, exc: Optional[BaseException]) -> None:
        """Core resume loop: feed ``value``/``exc`` in, dispatch the yield."""
        sim = self.sim
        send = self._send
        sim._active = self  # for Core.run; cleared on every way out
        while True:
            try:
                if exc is None:
                    target = send(value)
                else:
                    pending_exc = exc
                    exc = None
                    target = self._throw(pending_exc)
            except StopIteration as stop:
                sim._active = None
                if self.callbacks is not None:  # joinable: schedule the end
                    self._ok = True
                    self._value = stop.value
                    sim._schedule(self, URGENT, 0.0)
                return
            except BaseException as crashed:  # noqa: BLE001 - process crashed
                sim._active = None
                if self.callbacks is None:
                    raise  # detached: nobody could catch it, so run() does
                self._ok = False
                self._value = crashed
                sim._schedule(self, URGENT, 0.0)
                return

            cls = target.__class__
            if cls is float or cls is int:
                # Scalar delay.  Exact-type check: bool (an int subclass) and
                # numpy scalars deliberately fall through to the error path.
                if target < 0:
                    value = None
                    exc = SimulationError(
                        f"process {self.name!r} yielded a negative delay: {target!r}"
                    )
                    continue
                # Push the wake record inline: one sleep per event-loop
                # dispatch makes this the hottest line in the simulator.
                heappush(sim._queue,
                         (sim._now + target, NORMAL, sim._seq, _wake, self))
                sim._seq += 1
                sim._active = None
                return
            if not isinstance(target, Event):
                value = None
                exc = SimulationError(
                    f"process {self.name!r} yielded a non-event: {target!r}"
                )
                continue
            if target.sim is not sim:
                value = None
                exc = SimulationError(
                    f"process {self.name!r} yielded an event from another simulator"
                )
                continue

            callbacks = target.callbacks
            if callbacks is not None:
                # Not yet processed: park until it is.
                callbacks.append(self._resume)
                sim._active = None
                return
            # Already processed: feed its outcome straight back in.
            if target._value is _PENDING:
                value = None
                exc = SimulationError(
                    f"process {self.name!r} yielded detached {target!r}; "
                    "only sim.process() handles can be joined"
                )
            elif target._ok:
                value = target._value
                exc = None
            else:
                target._defused = True
                value = None
                exc = target._value  # type: ignore[assignment]

    def __repr__(self) -> str:
        state = ("detached" if self.detached
                 else "done" if self.triggered else "alive")
        return f"<Process {self.name!r} {state}>"
