"""Steady-state fast-forward: detect periodic measurement loops and skip them.

Every perftest loop (``repro.perftest.bw`` / ``repro.perftest.lat``) settles,
after warm-up, into an exactly periodic schedule: the same op costs, the same
queue occupancy, the same completion batching, cycle after cycle.  A
:class:`FastForward` probe watches the loop's *boundaries* (one per reaped
completion batch or ping-pong iteration) and, once the schedule provably
repeats, closes out the bulk of the remaining iterations arithmetically:
the counters jump, the simulator clock advances in one
:meth:`~repro.sim.engine.Simulator.advance_clock` bulk jump, and the loop
resumes simulating only a short tail.  Results are **bit-identical** to a
fully simulated run (golden-asserted in ``tests/test_fastforward.py`` and
``tests/test_golden_determinism.py``).

Detection is two-phase, so un-skippable runs pay almost nothing:

1. **Scan (cheap, every boundary)** — a per-step signature (time delta,
   scheduled-record delta, counter deltas, loop state, secondary-process
   activity, component timing state) is interned to an integer id, hashed
   once per boundary; a step id recurring at distance ``p <= max_period``
   nominates ``p``, which is accepted once the last ``CONFIRM_PERIODS``
   periods of step ids are ``p``-periodic (one period, for a period that
   already jumped).
2. **Verify (expensive, ~p boundaries)** — for a nominated period the
   probe additionally snapshots the pending heap
   (:meth:`~repro.sim.engine.Simulator.heap_signature`, tagged by record
   kind) and the bit-exact position of every RNG stream, over a window of
   ``p + 2`` boundaries.  The heap signature must repeat with period ``p``
   and the RNG fingerprints must be *constant* across the window (a stream
   only ever moves forward, so constancy over a full period proves zero
   draws per cycle).  Any mismatch, or a declined jump, falls back to
   scanning.

Exactness argument
------------------

If the verified signature captured the complete timing-relevant state,
two matching boundaries one period apart would make the evolution provably
periodic (the simulator is deterministic); the cheap ``CONFIRM_PERIODS``
history plus the two-period verify window guard the residual state the
signature cannot see (store contents, blocked peers' positions).

Simulated times are IEEE doubles, so repetition is only extrapolable while
additions stay *exact*.  Within one binade ``[2^e, 2^(e+1))`` every float is
a multiple of the fixed ulp ``2^(e-52)``; bit-equal deltas observed there
are exact differences (Sterbenz), so stepping the clock by the observed
period deltas and shifting every pending offset reproduces precisely the
times the full simulation would compute.  Crossing into the next binade
halves the mantissa grid and can re-round the very same arithmetic, so a
jump is always capped *inside* the current binade (including the farthest
pending-event offset); the probe then re-confirms the period on fresh
boundaries and jumps again.  Every jump also stops short of the next
counter *milestone* (the warm-up crossing, the measured-tail start) so the
transitions — ``t_start`` capture, drain, final signaled send — are always
simulated, never extrapolated.

Settling vs. never-periodic
---------------------------

System A's DVFS duty EMA makes runs *settle* rather than start periodic:
step signatures converge toward a fixed point over hundreds of boundaries.
A **quantized soft signature** (step floats rounded to 0.1 ns, component
state dropped) tells "still converging, keep scanning" apart from
"jittered, never periodic": settling runs revisit the same soft bucket
while their exact bits still drift; jittered runs (lognormal draws move
boundaries by tens of ns) do not, and a run whose soft signatures stop
recurring is declared aperiodic quickly.

Long-idle cores make the settled state *reachable*: the duty governor
flushes EMAs below ``e**-48`` to an exact 0.0 and reports one canonical
"cold" tuple (see ``repro.hw.cpu._COLD_WINDOWS``), so a core abandoned
after setup does not smuggle unbounded staleness into every signature.

Auto-disarm
-----------

The probe refuses to arm (``reason`` says why) whenever exactness cannot
be proven: a :class:`~repro.faults.FaultPlan` attached to the fabric
(``faults``), full trace export in flight (``trace``), an RNG draw
between two boundaries (``rng`` — e.g. system A's lognormal syscall
jitter; a period that draws can never be skipped bit-identically),
or no exact period emerging at all (``no-period``): soft signatures stop
recurring or the overall scan budget runs dry.  A probe that ran its
loop past the last milestone disarms as ``complete``.  Disarmed probes
cost one attribute check per boundary.

Bookkeeping
-----------

An armed boundary costs a small constant.  The history is translation-free:
it holds step ids, and the only absolute values kept are those of the last
boundary (time, counters, record sequence) and the secondary process's
last counter, which are all a jump has to shift.  A jump reads the
period's time deltas, counter advances and record count from the interned
signatures of its last ``p`` steps.  Only a step id never seen before is
tested for soft recurrence (a known id's soft signature is already in the
set), and an id is dropped when its last step leaves the window, so the id
table and the scan map stay bounded by the window, not the run length.  A
verify window snapshots the heap only at the four boundaries it compares.
"""

from __future__ import annotations

import math
from operator import add, sub
from typing import TYPE_CHECKING, Optional

from repro.sim.events import _fire
from repro.sim.process import _wake

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator

#: Cheap-step periods a fresh nomination must repeat before verifying.
CONFIRM_PERIODS = 3
#: Longest period the scan nominates, unless ``begin`` widens it.
MAX_PERIOD = 8


def _record_kind(fn: object, arg: object) -> str:
    """Coarse heap-record tag: the event class, ``_Resume`` for a sleep
    or a first step, one ``_Callback`` for every callback stage.  A wake
    record's argument is a ``Process``, so it takes its own tag: the class
    name would collide with a joinable process's end record."""
    if fn is _fire:
        return type(arg).__name__
    return "_Resume" if fn is _wake else "_Callback"


class Skip:
    """One taken jump, as seen by the measurement loop."""

    __slots__ = ("counters", "cycles", "units")

    def __init__(self, counters: dict, cycles: int, units: int):
        #: Counter advances the loop must apply (name -> total delta).
        self.counters = counters
        #: Whole periods skipped by this jump.
        self.cycles = cycles
        #: Primary-counter units per period (for sample-pattern replication).
        self.units = units

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Skip cycles={self.cycles} units/cycle={self.units}>"


class FastForwardStats:
    """Skipped-work accounting for one probe (and the run-stats rollup)."""

    __slots__ = ("boundaries", "jumps", "cycles_skipped", "units_skipped",
                 "events_skipped", "time_skipped_ns")

    def __init__(self) -> None:
        #: Boundaries observed while armed (the probe's own cost grows with it).
        self.boundaries = 0
        self.jumps = 0
        self.cycles_skipped = 0
        self.units_skipped = 0
        self.events_skipped = 0
        self.time_skipped_ns = 0.0


class FastForward:
    """Cycle probe + analytic extrapolator for one measurement loop.

    Built by :mod:`repro.perftest.runner` when fast-forward is enabled
    (``REPRO_FASTFORWARD=1`` / ``--fast-forward`` / the config field) and
    handed to the loop, which calls :meth:`begin` once, :meth:`observe` at
    every driver-loop boundary, and — for loops with a coupled secondary
    process, like ``send_bw``'s transmitter — :meth:`observe_aux` /
    :meth:`take_aux` on the secondary side.
    """

    __slots__ = ("_sim", "stats", "reason", "enabled", "_max_period",
                 "_names", "_milestones", "_cap", "_t", "_counts", "_seq",
                 "_ids", "_sigs", "_latest", "_next_id", "_steps", "_nsteps",
                 "_seen", "_vperiod", "_vfull", "_fp", "_vfail", "_fruitless",
                 "_budget", "_soft_seen", "_last_soft", "_last_bound",
                 "_jumped_periods", "_aux_raw", "_aux_last", "_aux_pending")

    def __init__(self, sim: "Simulator", faults: object = None):
        self._sim = sim
        self.stats = FastForwardStats()
        self.reason: Optional[str] = None
        #: True while the probe may still arm.  A plain attribute so the
        #: loops' per-post check stays cheap; only :meth:`disarm` writes
        #: it, and disarming is permanent (the tables it clears cannot be
        #: re-armed).
        self.enabled = True
        self._max_period = MAX_PERIOD
        #: Counter names, primary first, in the order ``observe`` gets them.
        self._names: tuple = ()
        self._milestones: tuple = ()
        #: Step ids kept: the confirm window plus one verify period.
        self._cap = (CONFIRM_PERIODS + 1) * MAX_PERIOD + 1
        #: The last boundary: time, counters and records scheduled so far.
        self._t = 0.0
        self._counts: Optional[tuple] = None
        self._seq = 0
        #: Step signature -> id, id -> signature, and id -> global index of
        #: its latest step, for the ids in the window.
        self._ids: dict = {}
        self._sigs: dict = {}
        self._latest: dict = {}
        self._next_id = 0
        #: Ids of the latest steps, oldest first (_steps[-1] ends at the
        #: last boundary).
        self._steps: list[int] = []
        #: Total steps ever taken (global index of _steps[-1]).
        self._nsteps: int = 0
        #: Step id -> global index of its latest scan-phase occurrence.
        self._seen: dict = {}
        #: Candidate period under verification (0 = scanning).
        self._vperiod: int = 0
        #: Heap signatures, one slot per verify boundary; only the
        #: window's first two and last two are compared, and built.
        self._vfull: list[Optional[tuple]] = []
        #: RNG fingerprint at the first boundary, compared at every later
        #: one (``stream_states`` reads two ints per stream).  Streams only
        #: move forward, so an unchanged fingerprint proves that no step
        #: so far drew.
        self._fp: Optional[tuple] = None
        #: Most informative verify-failure reason seen so far.
        self._vfail: Optional[str] = None
        #: Boundaries since the last jump / milestone crossing.
        self._fruitless: int = 0
        #: The soft budget of the current phase (see :meth:`_soft_budget`).
        self._budget: int = 0
        #: Soft step signatures (the step minus component timing state) ever
        #: seen, and the index of the last boundary whose soft signature
        #: recurred.  A loop with *any* periodic structure — even one whose
        #: governor state is still converging bit by bit — soft-hits within
        #: a couple of periods; a jittered loop (fresh RNG floats in every
        #: time delta) essentially never does, and is disarmed quickly.
        self._soft_seen: set = set()
        self._last_soft: int = 0
        self._last_bound: Optional[int] = None
        #: Periods that already passed a verify window.  After a
        #: binade-capped jump the next boundaries re-round in the new
        #: binade, miss the step ids seen before it, and would pay a full
        #: ``CONFIRM_PERIODS`` rescan — but a proven period's renomination
        #: skips straight to the verify window (which remains the
        #: exactness proof).
        self._jumped_periods: set = set()
        #: The secondary process's reports since the last boundary: (time,
        #: counter delta, state).
        self._aux_raw: list[tuple] = []
        #: Its last reported counter, and the advance jumps added to it
        #: that it has not taken yet.
        self._aux_last = 0
        self._aux_pending = 0
        if faults is not None and not getattr(faults, "fastforward_safe", False):
            self.disarm("faults")
        elif sim.trace.enabled:
            self.disarm("trace")

    # -- state -----------------------------------------------------------------

    def disarm(self, reason: str) -> None:
        """Permanently stop probing (exactness can no longer be proven)."""
        self.enabled = False
        if self.reason is None:
            self.reason = reason
        self._steps.clear()
        self._seen.clear()
        self._ids.clear()
        self._sigs.clear()
        self._latest.clear()
        self._soft_seen.clear()
        self._vperiod = 0
        self._vfull.clear()
        self._aux_raw.clear()

    # -- loop API --------------------------------------------------------------

    def begin(self, names: tuple, milestones: tuple,
              max_period: Optional[int] = None) -> None:
        """Declare the loop's counters and its do-not-cross marks.

        ``names`` are the loop's monotone progress counters, in the order
        :meth:`observe` gets their values; the first is the primary.
        ``milestones`` are primary-counter values whose crossings carry
        one-shot semantics (the warm-up mark, ``total - tail``): a jump
        always lands at least one full period short of the next one, so
        the crossing itself is simulated.  The largest milestone bounds
        all skipping — once the primary passes it the probe disarms and
        the loop's end-game runs at full fidelity.

        ``max_period`` lets the loop widen the period search when it knows
        its own super-period (e.g. ``send_bw``'s tx bursts recur every
        ``sig`` receive boundaries, well past ``MAX_PERIOD``).
        """
        self._names = tuple(names)
        self._milestones = tuple(sorted(milestones))
        if max_period is not None:
            self._max_period = max(self._max_period, int(max_period))
        self._cap = (CONFIRM_PERIODS + 1) * self._max_period + 1

    def observe(self, counts: tuple, state: tuple = ()) -> Optional[Skip]:
        """Record one boundary; jump if the steady state is proven.

        ``counts`` are the values of the counters :meth:`begin` named, in
        that order; ``state`` is the loop's residual scheduling state
        (in-flight count, unsignaled backlog, signal phase...).  Returns a
        :class:`Skip` when the clock was advanced — the caller must apply
        ``skip.counters`` — or ``None`` to keep simulating.
        """
        if not self.enabled:
            return None
        self.stats.boundaries += 1
        sim = self._sim
        fp = sim.rng.stream_states()
        if self._fp is None:
            self._fp = fp
        elif fp != self._fp:
            # A stream advanced inside the loop (system A's syscall
            # jitter): a period that draws can never be jumped
            # bit-identically, so stop probing at the first such step.
            self.disarm("rng")
            return None
        now = sim._now
        seq = sim._seq
        raw = self._aux_raw
        if raw:
            aux = tuple([(now - t, delta, st) for t, delta, st in raw])
            raw.clear()
        else:
            aux = ()
        comp = sim.component_state()
        sid = None
        last_counts = self._counts
        if last_counts is not None:
            # Fields ordered cheapest/most-discriminating first so hash
            # collisions compare short.
            step = (now - self._t,                            # time delta
                    seq - self._seq,                          # records scheduled
                    tuple(map(sub, counts, last_counts)),     # counter deltas
                    state,                                    # loop state
                    aux,                                      # aux signature
                    comp)                                     # component state
            n = self._nsteps = self._nsteps + 1
            new_id = self._next_id
            sid = self._ids.setdefault(step, new_id)
            if sid == new_id:
                self._intern(step)
            else:
                # A known id's soft signature is already in the set.
                self._last_soft = n
            steps = self._steps
            steps.append(sid)
            latest = self._latest
            latest[sid] = n
            if len(steps) > self._cap:
                old = steps.pop(0)
                if latest[old] == n - self._cap:
                    self._forget(old)
        self._t = now
        self._counts = counts
        self._seq = seq

        skip = None
        if self._vperiod:
            skip = self._verify_boundary(sid)
        elif sid is not None:
            nsteps = self._nsteps
            prev = self._seen.get(sid)
            self._seen[sid] = nsteps
            if prev is not None:
                period = nsteps - prev
                if period <= self._max_period and self._scan_ready(period):
                    self._vperiod = period
                    self._vfull.append(sim.heap_signature(_record_kind))

        # Progress bookkeeping, reset by jumps and by milestone crossings
        # (each phase gets its own chance): a tight budget on *soft* hits
        # — a structured schedule recurs within a couple of periods, a
        # jittered one never — and a generous overall backstop for
        # structured schedules that never become provably exact.
        bound = self._last_bound
        if skip is None and bound is not None and counts[0] < bound:
            self._fruitless += 1
        else:
            bound = self._next_bound(counts[0])
            if bound is None:
                self.disarm("complete")
                return skip
            self._fruitless = 0
            self._last_soft = self._nsteps
            self._last_bound = bound
            self._budget = self._soft_budget()
        if self._nsteps - self._last_soft > self._budget:
            self.disarm("no-period")
        elif self._fruitless > 16 * self._max_period + 256:
            self.disarm(self._vfail or "no-period")
        return skip

    def observe_aux(self, count: int, state: tuple = ()) -> None:
        """Record a boundary of the loop's secondary process: its one
        monotone progress counter and its scheduling state (folded at the
        next :meth:`observe` into the main loop's step signature)."""
        if not self.enabled:
            return
        self._aux_raw.append((self._sim._now, count - self._aux_last, state))
        self._aux_last = count

    def take_aux(self) -> int:
        """The secondary counter's advance from jumps since the last call
        (0 when none)."""
        adv = self._aux_pending
        self._aux_pending = 0
        return adv

    # -- scan phase ------------------------------------------------------------

    def _intern(self, step: tuple) -> None:
        """Register a step signature never seen before under the next id,
        and test its soft signature for recurrence."""
        sid = self._next_id
        self._next_id = sid + 1
        self._sigs[sid] = step
        # Soft structure: a *settling* schedule (DVFS duty EMA still
        # contracting toward its float fixed point) revisits its soft
        # buckets long before the bits pin; a *jittered* one (fresh
        # lognormal draws, tens of ns spread) essentially never does.
        soft = self._soft_of(step)
        if soft in self._soft_seen:
            self._last_soft = self._nsteps
        else:
            self._soft_seen.add(soft)

    def _forget(self, sid: int) -> None:
        """Drop an id whose last step just left the window.

        Nothing can reach it any more: a scan-map entry that old can only
        nominate a period the scan rejects.  A signature that recurs later
        interns afresh, and its soft signature is still in the soft set, so
        the table stays as small as the window at no change in decisions.
        """
        del self._latest[sid]
        del self._ids[self._sigs.pop(sid)]
        self._seen.pop(sid, None)

    def _soft_budget(self) -> int:
        """Boundaries the probe tolerates without a *soft* recurrence.

        Before the first milestone (the warm-up transient: queues filling,
        batch pattern still forming) the loop has not reached its steady
        shape yet, so the budget is generous; past it a structured
        schedule soft-hits within a couple of periods while a jittered one
        never does, so the tight budget cuts the per-boundary overhead on
        provably hopeless (e.g. lognormal-jittered) runs quickly.
        """
        if self._milestones and self._last_bound == self._milestones[0]:
            return 6 * self._max_period + 64
        return 2 * self._max_period + 16

    @staticmethod
    def _soft_of(step: tuple) -> tuple:
        """The step's *soft* signature: floats quantized to 0.1 ns, component
        timing state dropped.

        0.1 ns sits squarely between the two regimes it must separate: a
        settling DVFS duty EMA perturbs boundary times by well under 0.1 ns
        within a few periods of the loop stabilizing (the drift contracts
        by ``exp(-period/window)`` per cycle), while lognormal syscall
        jitter moves them by tens of ns per draw.
        """
        aux = step[4]
        if aux:
            aux = tuple([(round(off, 1), delta, state)
                         for (off, delta, state) in aux])
        return (round(step[0], 1), step[1], step[2], step[3], aux)

    def _scan_ready(self, period: int) -> bool:
        """Step ids p-periodic over the confirm window?

        A period that already passed a verify window needs no fresh
        confirm window: it is a proven property of this schedule, and the
        verify pass (the exactness proof proper) re-checks it anyway.
        That matters after every binade-capped jump — the new binade
        re-rounds the step deltas, so the steps before the jump miss and a
        full confirm would cost ``CONFIRM_PERIODS`` extra periods per
        crossing."""
        steps = self._steps
        n = len(steps)
        confirm = 1 if period in self._jumped_periods else CONFIRM_PERIODS
        if n < confirm * period:
            return False
        span = (confirm - 1) * period
        return steps[n - span:] == steps[n - span - period:n - period]

    # -- verify phase ----------------------------------------------------------

    def _verify_boundary(self, sid: Optional[int]) -> Optional[Skip]:
        period = self._vperiod
        steps = self._steps
        n = len(steps)
        if n < period + 1 or sid != steps[n - 1 - period]:
            self._end_verify()
            return None
        # Only the window's first two and last two heap signatures are
        # compared, so the ones between are never built.
        full = self._vfull
        k = len(full)
        full.append(self._sim.heap_signature(_record_kind)
                    if k <= 1 or k >= period else None)
        if k < period + 1:
            return None
        if full[period] != full[0] or full[period + 1] != full[1]:
            self._end_verify("queue")
            return None
        # The proof succeeded: the period is an established property of
        # this schedule, even if the jump below declines (binade cap or
        # milestone straddle) and scanning resumes.
        self._jumped_periods.add(period)
        self._end_verify()
        return self._jump(period)

    def _end_verify(self, failure: Optional[str] = None) -> None:
        if failure is not None:
            self._vfail = failure
        self._vperiod = 0
        self._vfull.clear()

    # -- extrapolation ---------------------------------------------------------

    def _next_bound(self, prim: int) -> Optional[int]:
        for mark in self._milestones:
            if mark > prim:
                return mark
        return None

    def _jump(self, p: int) -> Optional[Skip]:
        # The last full period, as the signatures of its p steps.
        period = [self._sigs[sid] for sid in self._steps[-p:]]
        per_period = [sum(col) for col in zip(*[sig[2] for sig in period])]
        prim = self._counts[0]
        units = per_period[0]
        if units <= 0:
            return None
        prev_mark = None
        bound = None
        for mark in self._milestones:
            if mark > prim:
                bound = mark
                break
            prev_mark = mark
        if bound is None:
            return None
        if prev_mark is not None and prim - units < prev_mark:
            # The last observed period straddles a milestone crossing; wait
            # for one clean period beyond it (keeps sample-pattern
            # replication well-defined for the caller).
            return None
        cycles = (bound - prim - units) // units
        if cycles <= 0:
            return None

        now = self._t
        # Binade cap: stay where the ulp grid — and thus the observed
        # arithmetic — is unchanged, for the clock and every shifted offset.
        if now > 0:
            binade_end = math.ldexp(1.0, math.frexp(now)[1])
        else:
            binade_end = math.inf
        queue = self._sim._queue
        max_off = max([rec[0] for rec in queue], default=now) - now
        deltas = [sig[0] for sig in period]
        target = now
        stepped = 0
        while stepped < cycles:
            nxt = target
            for d in deltas:
                nxt += d
            if nxt + max_off >= binade_end or nxt < target:
                break
            target = nxt
            stepped += 1
        if stepped == 0:
            return None

        counter_deltas = [d * stepped for d in per_period]
        aux_per_period = sum([delta for sig in period
                              for _off, delta, _state in sig[4]])
        events_per_period = sum([sig[1] for sig in period])
        skipped_ns = target - now
        self._sim.advance_clock(target)

        stats = self.stats
        stats.jumps += 1
        stats.cycles_skipped += stepped
        stats.units_skipped += counter_deltas[0]
        stats.events_skipped += events_per_period * stepped
        stats.time_skipped_ns += skipped_ns
        # Shift the last boundary across the jump: the clock moved, the
        # counters (the secondary's too) advanced by the skipped deltas.
        # The step ids — and the scan map over them — are delta-based and
        # stay valid, so the
        # verified period stays hot: the very next boundary renominates
        # it, and a fresh verify window (the exactness proof proper) is the
        # only re-arm latency.  Any post-jump deviation (a milestone near,
        # a binade crossing re-rounding the deltas) shows up as a step
        # mismatch and falls back to a full rescan, so the retained history
        # can delay re-arming but never corrupt a jump.
        self._t = now + skipped_ns
        self._counts = tuple(map(add, self._counts, counter_deltas))
        aux_adv = aux_per_period * stepped
        self._aux_pending += aux_adv
        self._aux_last += aux_adv
        return Skip(dict(zip(self._names, counter_deltas)), stepped, units)
