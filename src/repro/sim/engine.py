"""The simulation event loop.

:class:`Simulator` owns the clock and the pending-event heap.  Events are
ordered by ``(time, priority, sequence)`` so same-time events process in
deterministic FIFO order within a priority class — determinism is a hard
requirement because hardware profiles carry seeded jitter and benchmark
results must be exactly reproducible.

Every heap record is a flat ``(time, priority, sequence, fn, arg)``
tuple, and dispatching one is ``fn(arg)``: ``call_later``/``call_soon``
push their own, a triggered event pushes :func:`~repro.sim.events._fire`
and a process's first step or scalar sleep pushes
:func:`~repro.sim.process._wake` (DESIGN.md, "Heap records").  There are
two dispatch loops: the branch-free hot loop in :meth:`Simulator.run`
and :meth:`Simulator._run_instrumented`, picked whenever a runtime
sanitizer or a model-checking chooser is attached, which sends each
record through :meth:`_dispatch_record`, where both hooks act.
"""

from __future__ import annotations

import os
from heapq import heappop, heappush
from numbers import Real
from typing import TYPE_CHECKING, Callable, Iterable, Optional

from repro.errors import SimulationError

from repro.sim.events import NORMAL, URGENT, AllOf, Event, Timeout, _fire
from repro.sim.process import Process, ProcessGenerator, _wake
from repro.sim.rng import RngRegistry
from repro.sim.trace import Trace

if TYPE_CHECKING:  # pragma: no cover
    from repro.verify.choice import Chooser
    from repro.verify.monitors import ProtocolMonitor


def _describe_event(fn: object, arg: object) -> str:
    """A stable human-readable tag for a heap record (no addresses)."""
    if fn is _wake:
        return f"resume:{getattr(arg, 'name', '?')}"
    if fn is not _fire:
        return f"call_later:{getattr(fn, '__qualname__', repr(fn))}"
    event = arg
    cls = event.__class__.__name__
    name = getattr(event, "name", "")
    tag = f"{cls}:{name}" if name else cls
    # A generic event that wakes a process carries its bound ``_resume``
    # (or an ``AllOf``'s ``_check``) in the callback list;
    # naming the woken process beats a bare class name in race reports.
    for cb in getattr(event, "callbacks", None) or ():
        target = getattr(cb, "__self__", None)
        woken = getattr(target, "name", None)
        if woken and getattr(cb, "__name__", "") in ("_resume", "_check"):
            return f"{tag}->resume:{woken}"
    return tag


def env_flag(name: str) -> bool:
    """Is the on/off switch ``name`` on in the environment?

    The one parser for every ``REPRO_*`` switch: ``1``, ``true``, ``yes``
    or ``on`` (any case) is on; anything else, or unset, is off.
    """
    return os.environ.get(name, "").lower() in ("1", "true", "yes", "on")


class Simulator:
    """Discrete-event simulator with nanosecond float time.

    Parameters
    ----------
    seed:
        Master seed for the :class:`~repro.sim.rng.RngRegistry`; every named
        stream is derived from it, so one integer pins the entire run.
    trace:
        Optional pre-built :class:`~repro.sim.trace.Trace`; a disabled one is
        created by default.  ``trace.enabled`` is the one observation
        switch: it turns on span records and the per-host push metrics
        (``trace.scope``) together.  Instrumented sites pay one branch when
        it is off, and turning it on never alters simulation results (it
        only appends records and mutates Python counters).
    sanitize:
        Attach the :mod:`repro.sanitize` runtime checkers (same-timestamp
        race detector, RNG stream discipline, no-time-travel); ``None``
        (default) reads ``REPRO_SANITIZE`` from the environment (off
        unless truthy).  Off costs nothing on the hot loop: ``run()``
        only picks the instrumented loop when a hook is attached.
    monitors:
        Attach the :mod:`repro.verify` protocol invariant monitors
        (PROTO101–PROTO107: exactly-once CQEs, responder PSN discipline,
        legal-only QP transitions, flush ordering, bounded retries,
        atomic replay consistency); ``None`` (default) reads
        ``REPRO_VERIFY_MONITORS`` from the environment.  Off costs one
        ``is None`` branch per hook site; runs are bit-identical either
        way (monitors only observe).  Env-attached monitors are strict:
        the first violation raises.
    """

    __slots__ = (
        "_now", "_queue", "_seq",
        "_sanitize", "_time_hooks", "_state_providers",
        "_monitor", "_chooser", "_active", "rng", "trace",
    )

    def __init__(
        self,
        seed: int = 0,
        trace: Optional[Trace] = None,
        sanitize: Optional[bool] = None,
        monitors: Optional[bool] = None,
    ):
        self._now: float = 0.0
        self._queue: list[tuple[float, int, int, Callable, object]] = []
        self._seq: int = 0
        #: The process being stepped (see ``Process._step``), or None.
        self._active: Optional[Process] = None
        self._time_hooks: list[Callable[[float], None]] = []
        self._state_providers: list[Callable[[], tuple]] = []
        self.rng = RngRegistry(seed)
        self.trace = trace if trace is not None else Trace(enabled=False)
        self._sanitize = None
        if env_flag("REPRO_SANITIZE") if sanitize is None else sanitize:
            from repro.sanitize.runtime import RuntimeSanitizer

            self._sanitize = RuntimeSanitizer(self)
            self.rng._sanitize = self._sanitize
        #: Protocol invariant monitor (repro.verify.monitors); component
        #: hook sites check ``sim._monitor is not None`` — one branch off.
        self._monitor: Optional["ProtocolMonitor"] = None
        if monitors if monitors is not None else env_flag("REPRO_VERIFY_MONITORS"):
            from repro.verify.monitors import ProtocolMonitor

            self._monitor = ProtocolMonitor(self, strict=True)
        #: Deterministic choice-point hook (repro.verify.choice); when
        #: attached, run() uses the instrumented loop.
        self._chooser: Optional["Chooser"] = None

    # -- clock ----------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in nanoseconds."""
        return self._now

    # -- factories -------------------------------------------------------------

    def event(self, name: str = "") -> Event:
        """Create a fresh, untriggered event."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: object = None, name: str = "") -> Timeout:
        """Create a timeout firing ``delay`` ns from now."""
        return Timeout(self, delay, value=value, name=name)

    def process(self, generator: ProcessGenerator, name: str = "") -> Process:
        """Start a joinable process from a generator."""
        return Process(self, generator, name)

    def spawn(self, generator: ProcessGenerator, name: str = "") -> Process:
        """Run ``generator`` as a detached, fire-and-forget process.

        Like :meth:`process`, but the returned handle cannot be joined
        (that raises :class:`SimulationError`), its completion
        leaves no termination record on the heap, and a crash propagates
        out of :meth:`run`.  Use it for work nobody waits on that is easier
        to write as a generator (the relative order of all other records
        is unchanged — see :mod:`repro.sim.process`); hot per-message work
        is cheaper as :meth:`call_soon`/:meth:`call_later` stages.
        """
        return Process(self, generator, name, True)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- scheduling --------------------------------------------------------------

    def _schedule(self, event: Event, priority: int, delay: float) -> None:
        """Insert a triggered event into the queue ``delay`` ns from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        heappush(self._queue,
                 (self._now + delay, priority, self._seq, _fire, event))
        self._seq += 1

    def call_later(self, delay: float, fn: Callable[[object], None], arg: object = None) -> None:
        """Run ``fn(arg)`` after ``delay`` ns (fire-and-forget, no Event).

        Equivalent to hanging a callback off a :class:`Timeout`, but the
        record is the bare ``fn``/``arg`` pair; scheduling order is
        identical (NORMAL priority, next sequence number).
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        heappush(self._queue, (self._now + delay, NORMAL, self._seq, fn, arg))
        self._seq += 1

    def call_soon(self, fn: Callable[[object], None], arg: object = None) -> None:
        """Run ``fn(arg)`` now, ahead of this instant's NORMAL records.

        The record takes ``(now, URGENT, next seq)``, the key :meth:`spawn`
        gives a process's first step: replacing a spawn with a
        ``call_soon`` stage keeps every record's place in the schedule.
        """
        heappush(self._queue, (self._now, URGENT, self._seq, fn, arg))
        self._seq += 1

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    @property
    def events_scheduled(self) -> int:
        """Total heap records scheduled so far (monotone; ~events simulated)."""
        return self._seq

    def on_time_shift(self, hook: Callable[[float], None]) -> None:
        """Register ``hook(shift_ns)`` to run after every bulk clock advance.

        Components that store *absolute* timestamps (the DVFS duty clock,
        an in-progress busy-poll start) register here so
        :meth:`advance_clock` keeps their ``now - t`` arithmetic invariant.
        Relative state (delays, pending-event offsets) needs nothing.
        """
        self._time_hooks.append(hook)

    def attach_monitor(self, monitor: "Optional[ProtocolMonitor]") -> None:
        """Attach a protocol invariant monitor (see :mod:`repro.verify`).

        Component hook sites (CQ push, QP modify, the NIC's post/dispatch/
        retransmit paths) consult ``sim._monitor`` behind an ``is None``
        guard, so attaching after construction is equivalent to the
        ``monitors=True`` constructor path minus strictness defaults.
        """
        self._monitor = monitor

    def attach_chooser(self, chooser: "Optional[Chooser]") -> None:
        """Attach a deterministic choice-point hook for model checking.

        With a chooser attached, :meth:`run` delegates to the instrumented
        loop (see :meth:`_dispatch_record`): whenever more than one heap
        record shares the minimal ``(time, priority)``, the chooser picks
        which one dispatches next (index into the FIFO-ordered front).
        Index 0 at every choice point reproduces the default
        sequence-number order exactly, so a chooser that always answers 0
        is bit-identical to no chooser at all.  An attached sanitizer keeps
        observing the chosen schedule.  Detach with
        ``attach_chooser(None)``.
        """
        self._chooser = chooser

    def register_state_provider(self, provider: Callable[[], tuple]) -> None:
        """Register a component-state fingerprint source for cycle probes.

        ``provider()`` must cheaply return a tuple of plain values that
        fully determine the component's future *timing* influence (e.g. a
        turbo core's duty EMA).  :class:`repro.sim.fastforward.FastForward`
        folds every provider into its steady-state signature, so state the
        providers expose can never silently break an extrapolation.
        """
        self._state_providers.append(provider)

    def component_state(self) -> tuple:
        """All registered providers' fingerprints, in registration order."""
        return tuple([p() for p in self._state_providers])

    def heap_signature(self, tag: Callable[[object, object], object]) -> tuple:
        """The pending heap in relative time: one ``(t - now, priority,
        tag(fn, arg))`` per record.

        Sorting by the full ``(t, priority, seq)`` key then *dropping*
        ``seq`` keeps the FIFO order of ties as positional order while
        erasing the monotone sequence numbers that would keep any state
        from recurring.  Fast-forward tags records by kind, the explorer
        by :func:`_describe_event`.
        """
        now = self._now
        return tuple([(t - now, prio, tag(fn, arg))
                      for t, prio, _seq, fn, arg in sorted(self._queue)])

    def advance_clock(self, until: float) -> int:
        """Jump the clock to ``until``, translating every pending event.

        The bulk-advance primitive behind steady-state fast-forward (see
        :mod:`repro.sim.fastforward`): the whole pending schedule is shifted
        by ``until - now`` so every relative offset — and therefore every
        future inter-event delta — is preserved bit-for-bit when the jump
        amount and the pending offsets share the clock's current ulp grid.

        Integrity checks: the jump must not go backwards, no pending event
        may already be in the past, and after the shift the earliest event
        must not precede the new ``now``.  The shift mutates the heap list
        *in place* (``run()`` holds a local binding to it) and a uniform
        shift is order-preserving, so the heap invariant survives.  Returns
        the number of pending records translated.
        """
        shift = until - self._now
        if shift < 0:
            raise SimulationError(
                f"advance_clock({until}) is in the past (now={self._now})"
            )
        queue = self._queue
        if queue and queue[0][0] < self._now:  # pragma: no cover - invariant
            raise SimulationError("pending event predates the clock")
        if shift > 0.0:
            if queue:
                queue[:] = [(t + shift, p, s, f, a) for (t, p, s, f, a) in queue]
                if queue[0][0] < until:  # pragma: no cover - invariant
                    raise SimulationError(
                        "advance_clock shifted an event into the past"
                    )
            self._now = until
            for hook in self._time_hooks:
                hook(shift)
        return len(queue)

    def step(self) -> None:
        """Process exactly one heap record, through any attached hooks."""
        if not self._queue:
            raise SimulationError("step() on an empty schedule: no events left")
        self._dispatch_record()

    # -- running ----------------------------------------------------------------

    def _run_bounds(self, until: "float | Event | None") -> tuple[Optional[Event], float]:
        """Split a ``run(until=...)`` argument into ``(stop_event, deadline)``."""
        if until is None:
            return None, float("inf")
        if isinstance(until, Event):
            if isinstance(until, Process) and until.detached:
                raise SimulationError(
                    f"run(until={until!r}): a detached process cannot be joined"
                )
            return until, float("inf")
        if not isinstance(until, Real):
            raise SimulationError(
                f"run(until={until!r}): until must be None, a number of ns "
                "or an Event"
            )
        deadline = float(until)
        if deadline < self._now:
            raise SimulationError(
                f"run(until={deadline}) is in the past (now={self._now})"
            )
        return None, deadline

    def run(self, until: "float | Event | None" = None) -> object:
        """Run the simulation.

        ``until`` may be:

        - ``None`` — run until no events remain;
        - a number — run until the clock reaches that time;
        - an :class:`Event` — run until the event is processed and return its
          value (raising its exception if it failed).
        """
        if self._sanitize is not None or self._chooser is not None:
            return self._run_instrumented(until)
        stop_event, deadline = self._run_bounds(until)

        # Hot loop: pop, set the clock, run the record.  This is the
        # innermost loop of every benchmark; it must not allocate.
        queue = self._queue
        while True:
            if stop_event is not None and stop_event.callbacks is None:
                if stop_event._ok:
                    return stop_event._value
                stop_event._defused = True
                raise stop_event._value  # type: ignore[misc]
            if not queue:
                if stop_event is not None:
                    raise SimulationError(
                        "run() stop event will never be triggered: no events left"
                    )
                if deadline != float("inf"):
                    self._now = deadline
                return None
            if queue[0][0] > deadline:
                self._now = deadline
                return None

            when, _prio, _seq, fn, arg = heappop(queue)
            self._now = when
            fn(arg)

    def _run_instrumented(self, until: "float | Event | None") -> object:
        """Twin of :meth:`run` used when a sanitizer or a chooser is attached.

        Same stop conditions, but every record goes through
        :meth:`_dispatch_record`, which consults both hooks; the sanitizer
        additionally brackets the whole run with ``begin_run``/``finish``.
        Kept separate so the hooks-off hot loop in :meth:`run` stays
        branch-free.
        """
        stop_event, deadline = self._run_bounds(until)
        san = self._sanitize
        if san is not None:
            san.begin_run()
        queue = self._queue
        try:
            while True:
                if stop_event is not None and stop_event.callbacks is None:
                    if stop_event._ok:
                        return stop_event._value
                    stop_event._defused = True
                    raise stop_event._value  # type: ignore[misc]
                if not queue:
                    if stop_event is not None:
                        raise SimulationError(
                            "run() stop event will never be triggered: no events left"
                        )
                    if deadline != float("inf"):
                        self._now = deadline
                    return None
                if queue[0][0] > deadline:
                    self._now = deadline
                    return None
                self._dispatch_record()
        finally:
            if san is not None:
                san.finish()

    def _dispatch_record(self) -> None:
        """Pop one heap record and dispatch it through the attached hooks.

        With a chooser attached and several records sharing the minimal
        ``(time, priority)`` — a genuine simultaneity the hot loop breaks
        by insertion order — the whole tied front is popped, the chooser
        selects which record dispatches, and the rest are pushed back with
        their original keys (order-preserving, so later choice points see
        the same FIFO front; index 0 everywhere reproduces the default
        schedule bit-for-bit).  With a sanitizer attached, the chosen
        record is reported to it and its body runs inside the sanitizer's
        dispatch window.  Both hooks may be attached at once.
        """
        queue = self._queue
        record = heappop(queue)
        when, prio = record[0], record[1]
        chooser = self._chooser
        if chooser is not None:
            # Heap pops of equal keys come out in sequence order, i.e.
            # exactly the default dispatch order.
            front = [record]
            while queue and not queue[0][0] > when and queue[0][1] == prio:
                front.append(heappop(queue))
            if len(front) > 1:
                record = front.pop(chooser.choose(len(front), front))
                for rec in front:
                    heappush(queue, rec)
        fn, arg = record[3], record[4]
        san = self._sanitize
        if san is not None:
            san.on_dispatch(when, prio, fn, arg)
        if when < self._now:
            raise SimulationError("event scheduled in the past")
        self._now = when
        if san is not None:
            san.in_dispatch = True
        try:
            fn(arg)
        finally:
            if san is not None:
                san.in_dispatch = False

