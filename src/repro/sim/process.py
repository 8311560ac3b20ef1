"""Generator-based cooperative processes.

A process wraps a generator that ``yield``-s :class:`~repro.sim.events.Event`
instances — or bare numbers.  When the yielded event is processed, the
process resumes with the event's value (or has the event's exception thrown
into it).  A process is itself an event, so other processes can wait for
("join") it, and its return value (``return x`` in the generator) becomes
the event value.

Scalar-yield protocol
---------------------

``yield 250.0`` (any non-bool ``float``/``int``) means "sleep 250 ns" and
orders exactly like ``yield sim.timeout(250.0)``: the sleep is backed by a
pooled resume record instead of a Timeout event — no allocation, no
callback dispatch — carrying the same ``(time, priority, sequence)`` heap
key a Timeout created at that point would get.

Detached processes
------------------

:meth:`Simulator.spawn` creates a *detached* process for work that
nothing joins or interrupts (the IPoIB and IRQ paths, storage commands).
It is born processed (``callbacks is None``), so its end schedules no
termination record, and a crash propagates straight out of
:meth:`Simulator.run` instead of being stored for a joiner.  Dropping
that record cannot change the interleaving of the remaining ones: it
never has callbacks, and removing an allocation from the sequence-number
stream preserves the relative order of all other records.  Joining (``yield``, ``run(until=...)``) or interrupting a
detached process raises :class:`~repro.errors.SimulationError`.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Generator, Optional

from repro.errors import ProcessInterrupt, SimulationError
from repro.sim.events import _PENDING, NORMAL, URGENT, Event

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator

ProcessGenerator = Generator[Event, object, object]


class _Resume:
    """Pooled argument of a :func:`_wake` record: the process to resume.

    Scheduled for a process's first step and for every scalar-yield sleep.
    Tombstoning (``process = None``, done by interrupt delivery) cancels a
    pending record in place; :func:`_wake` then drops it.
    """

    __slots__ = ("process",)

    def __init__(self) -> None:
        self.process = None


def _wake(rec: _Resume) -> None:
    """Heap-record body of a resume: recycle ``rec``, step its process."""
    process = rec.process
    if process is not None:
        rec.process = None
        process.sim._resume_pool.append(rec)
        process._step(None, None)


class Interruption(Event):
    """Internal immediate event carrying a :class:`ProcessInterrupt`."""

    __slots__ = ("process",)

    def __init__(self, process: "Process", cause: object):
        super().__init__(process.sim, name=f"interrupt:{process.name}")
        if process.processed:
            raise SimulationError(f"{process!r} has terminated; cannot interrupt")
        if process is process.sim.active_process:
            raise SimulationError("a process cannot interrupt itself")
        self.process = process
        self._ok = False
        self._value = ProcessInterrupt(cause)
        self._defused = True
        self.callbacks.append(self._deliver)
        process.sim._schedule(self, URGENT, 0.0)

    def _deliver(self, event: Event) -> None:
        process = self.process
        if process.processed:
            return  # terminated between scheduling and delivery
        # Detach the process from whatever it currently waits on, then resume
        # it with the interrupt exception.
        target = process._target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(process._resume)
            except ValueError:
                pass
        process._target = None
        pending = process._pending
        if pending is not None:
            # Sleeping on a resume record: tombstone it in place (_wake
            # drops it when it pops).
            pending.process = None
            process._pending = None
        process._resume(self)


class Process(Event):
    """A running simulation process: joinable, or detached (see module doc).

    Pass ``detached`` positionally: a keyword argument sends the class call
    down CPython's slow path, and :meth:`Simulator.spawn` runs once per
    IPoIB message.
    """

    __slots__ = ("_target", "_send", "_throw", "_pending")

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
        self._target: Optional[Event] = None
        # First step: a resume record at (now, URGENT, next seq).
        pool = sim._resume_pool
        rec = pool.pop() if pool else _Resume()
        rec.process = self
        heappush(sim._queue, (sim._now, URGENT, sim._seq, _wake, rec))
        sim._seq += 1
        self._pending = rec

    @property
    def detached(self) -> bool:
        """True for a :meth:`Simulator.spawn` process (never joinable)."""
        return self.callbacks is None and self._value is _PENDING

    @property
    def is_alive(self) -> bool:
        """True until the wrapped generator of a joinable process has ended."""
        return not self.triggered

    @property
    def target(self) -> Optional[Event]:
        """The event this process currently waits on (None while running)."""
        return self._target

    def interrupt(self, cause: object = None) -> None:
        """Throw :class:`ProcessInterrupt` into the process immediately."""
        if self.detached:
            raise SimulationError(f"{self!r} is detached; cannot interrupt")
        Interruption(self, cause)

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
        sim._active_process = self
        self._pending = None
        send = self._send
        while True:
            try:
                if exc is None:
                    target = send(value)
                else:
                    pending_exc = exc
                    exc = None
                    target = self._throw(pending_exc)
            except StopIteration as stop:
                sim._active_process = None
                if self.callbacks is not None:  # joinable: schedule the end
                    self._ok = True
                    self._value = stop.value
                    sim._schedule(self, URGENT, 0.0)
                return
            except BaseException as crashed:  # noqa: BLE001 - process crashed
                sim._active_process = None
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
                # Schedule a pooled _Resume record inline: one sleep per
                # event-loop dispatch makes this the hottest line in the
                # simulator.
                pool = sim._resume_pool
                rec = pool.pop() if pool else _Resume()
                rec.process = self
                heappush(sim._queue,
                         (sim._now + target, NORMAL, sim._seq, _wake, rec))
                sim._seq += 1
                self._pending = rec
                sim._active_process = None
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
                self._target = target
                sim._active_process = None
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
