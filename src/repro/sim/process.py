"""Generator-based cooperative processes.

A process wraps a generator that ``yield``-s :class:`~repro.sim.events.Event`
instances — or bare numbers.  When the yielded event is processed, the
process resumes with the event's value (or has the event's exception thrown
into it).  A process is itself an event, so other processes can wait for
("join") it, and its return value (``return x`` in the generator) becomes
the event value.

Scalar-yield protocol
---------------------

``yield 250.0`` (any non-bool ``float``/``int``) means "sleep 250 ns" and is
exactly equivalent to ``yield sim.timeout(250.0)``.  With the engine fast
path enabled (the default) the sleep is backed by a pooled resume record
instead of a Timeout event — no allocation, no callback dispatch — while
keeping the identical ``(time, priority, sequence)`` heap key, so the event
interleaving (and therefore every simulation result) is unchanged.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Generator, Optional

from repro.errors import ProcessInterrupt, SimulationError
from repro.sim.events import NORMAL, URGENT, Event, Timeout

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator

ProcessGenerator = Generator[Event, object, object]


class _Resume:
    """Pooled heap record: resume ``process`` with value ``None``.

    The engine's scalar-yield fast path schedules these instead of
    :class:`~repro.sim.events.Timeout` events.  Tombstoning
    (``process = None``, done by interrupt delivery) cancels a pending
    record in place; the engine skips tombstones and recycles them.
    """

    __slots__ = ("process",)

    def __init__(self) -> None:
        self.process = None


class Initialize(Event):
    """Internal event that kicks a new process on its first step."""

    __slots__ = ("process",)

    def __init__(self, sim: "Simulator", process: "Process"):
        super().__init__(sim, name=f"init:{process.name}")
        self.process = process
        self._ok = True
        self._value = None
        self.callbacks.append(process._resume)
        sim._schedule(self, URGENT, 0.0)


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
            # Sleeping on a fast-path resume record: tombstone it in place
            # (the engine skips and recycles it when it pops).
            pending.process = None
            process._pending = None
        process._resume(self)


class Process(Event):
    """A running simulation process (also usable as a join event)."""

    __slots__ = ("generator", "_target", "_send", "_throw", "_pending")

    def __init__(self, sim: "Simulator", generator: ProcessGenerator, name: str = ""):
        if not hasattr(generator, "throw"):
            raise SimulationError(f"{generator!r} is not a generator")
        super().__init__(sim, name=name or getattr(generator, "__name__", "process"))
        self.generator = generator
        self._send = generator.send
        self._throw = generator.throw
        self._target: Optional[Event] = None
        self._pending = None  # in-flight fast-path _Resume record, if any
        if sim._fastpath:
            # Same (URGENT, seq) heap key Initialize would have used.
            pool = sim._resume_pool
            rec = pool.pop() if pool else _Resume()
            rec.process = self
            heappush(sim._queue, (sim._now, URGENT, sim._seq, rec))
            sim._seq += 1
            self._pending = rec
        else:
            Initialize(sim, self)

    @property
    def is_alive(self) -> bool:
        """True until the wrapped generator has terminated."""
        return not self.triggered

    @property
    def target(self) -> Optional[Event]:
        """The event this process currently waits on (None while running)."""
        return self._target

    def interrupt(self, cause: object = None) -> None:
        """Throw :class:`ProcessInterrupt` into the process immediately."""
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
                self._ok = True
                self._value = stop.value
                sim._schedule(self, URGENT, 0.0)
                return
            except BaseException as crashed:  # noqa: BLE001 - process crashed
                sim._active_process = None
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
                if sim._fastpath:
                    # Schedule a pooled _Resume record inline: one sleep per
                    # event-loop dispatch makes this the hottest line in the
                    # simulator.
                    pool = sim._resume_pool
                    rec = pool.pop() if pool else _Resume()
                    rec.process = self
                    heappush(sim._queue, (sim._now + target, NORMAL, sim._seq, rec))
                    sim._seq += 1
                    self._pending = rec
                    sim._active_process = None
                    return
                target = Timeout(sim, float(target))
            elif not isinstance(target, Event):
                value = None
                exc = SimulationError(
                    f"process {self.name!r} yielded a non-event: {target!r}"
                )
                continue
            elif target.sim is not sim:
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
            if target._ok:
                value = target._value
                exc = None
            else:
                target._defused = True
                value = None
                exc = target._value  # type: ignore[assignment]

    def __repr__(self) -> str:
        state = "done" if self.triggered else "alive"
        return f"<Process {self.name!r} {state}>"


class MiniProcess:
    """Fire-and-forget process: runs a generator but is not itself an event.

    Used by :meth:`Simulator.spawn` for hot per-message work (NIC message
    execution, ACK generation, IRQ delivery) that nothing ever joins or
    interrupts.  Skipping the join-event machinery saves one termination
    event (allocation + schedule + pop) per spawn.  Dropping that heap
    entry cannot change the interleaving of the remaining events: it never
    has callbacks, and removing an allocation from the sequence-number
    stream preserves the relative order of all other entries.

    A crash in a spawned generator propagates straight out of
    :meth:`Simulator.run` (there is no join event to defuse it into).
    """

    __slots__ = ("sim", "name", "generator", "_send", "_throw", "_pending")

    def __init__(self, sim: "Simulator", generator: ProcessGenerator, name: str = ""):
        self.sim = sim
        self.name = name or getattr(generator, "__name__", "spawn")
        self.generator = generator
        self._send = generator.send
        self._throw = generator.throw
        self._pending = None
        if sim._fastpath:
            pool = sim._resume_pool
            rec = pool.pop() if pool else _Resume()
            rec.process = self
            heappush(sim._queue, (sim._now, URGENT, sim._seq, rec))
            sim._seq += 1
            self._pending = rec
        else:
            kick = Event(sim, name=self.name)
            kick._ok = True
            kick._value = None
            kick.callbacks.append(self._resume)
            sim._schedule(kick, URGENT, 0.0)

    def _resume(self, event: Event) -> None:
        if event._ok:
            self._step(event._value, None)
        else:
            event._defused = True
            self._step(None, event._value)  # type: ignore[arg-type]

    def _step(self, value: object, exc: Optional[BaseException]) -> None:
        sim = self.sim
        sim._active_process = self  # type: ignore[assignment]
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
            except StopIteration:
                sim._active_process = None
                return
            except BaseException:  # noqa: BLE001 - crash surfaces from run()
                sim._active_process = None
                raise

            cls = target.__class__
            if cls is float or cls is int:
                if target < 0:
                    value = None
                    exc = SimulationError(
                        f"process {self.name!r} yielded a negative delay: {target!r}"
                    )
                    continue
                if sim._fastpath:
                    pool = sim._resume_pool
                    rec = pool.pop() if pool else _Resume()
                    rec.process = self
                    heappush(sim._queue, (sim._now + target, NORMAL, sim._seq, rec))
                    sim._seq += 1
                    self._pending = rec
                    sim._active_process = None
                    return
                target = Timeout(sim, float(target))
            elif not isinstance(target, Event):
                value = None
                exc = SimulationError(
                    f"process {self.name!r} yielded a non-event: {target!r}"
                )
                continue
            elif target.sim is not sim:
                value = None
                exc = SimulationError(
                    f"process {self.name!r} yielded an event from another simulator"
                )
                continue

            callbacks = target.callbacks
            if callbacks is not None:
                callbacks.append(self._resume)
                sim._active_process = None
                return
            if target._ok:
                value = target._value
                exc = None
            else:
                target._defused = True
                value = None
                exc = target._value  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"<MiniProcess {self.name!r}>"
