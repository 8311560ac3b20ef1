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
   activity, component timing state) goes into a hash map keyed by value;
   a signature recurring at distance ``p <= max_period`` nominates ``p``,
   which is accepted once the last ``confirm_periods`` periods of cheap
   steps are ``p``-periodic.
2. **Verify (expensive, ~p boundaries)** — for a nominated period the
   probe additionally snapshots the pending-event queue signature (every
   ``(t_event - now, priority, record type)`` offset) and the bit-exact
   position of every RNG stream, over a window of ``p + 2`` boundaries.
   The queue signature must repeat with period ``p`` and the RNG
   fingerprints must be *constant* across the window (a stream only ever
   moves forward, so constancy over a full period proves zero draws per
   cycle).  Any mismatch falls back to scanning, with escalating backoff
   per rejected period and direct escalation to ``2p`` when the cheap
   steps repeat at ``p`` but the queue does not (a sub-harmonic).

Exactness argument
------------------

If the verified signature captured the complete timing-relevant state,
two matching boundaries one period apart would make the evolution provably
periodic (the simulator is deterministic); the cheap ``confirm_periods``
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
Two mechanisms tell "still converging, keep scanning" apart from "jittered,
never periodic":

- A **quantized soft signature** (step floats rounded to 0.1 ns, component
  state dropped).  Settling runs revisit the same soft bucket while their
  exact bits still drift; jittered runs (lognormal draws move boundaries by
  tens of ns) do not.  A run whose soft signatures stop recurring is
  declared aperiodic quickly.
- **Drift projection** over soft-bucket revisits: the relative dt drift per
  revisit contracts geometrically while settling, so the probe fits the
  contraction factor and projects when the bits will pin.  If the
  projection says periodicity cannot arrive in time to pay for itself
  (or the drift is not contracting at all), the probe disarms early.
  The projection is advisory only — *arming* still requires a bit-exact
  recurrence plus the full verify window, so a wrong projection can only
  cost time, never exactness.

Long-idle cores make the settled state *reachable*: the duty governor
flushes EMAs below ``e**-48`` to an exact 0.0 and reports one canonical
"cold" tuple (see ``repro.hw.cpu._COLD_WINDOWS``), so a core abandoned
after setup does not smuggle unbounded staleness into every signature.

Auto-disarm
-----------

The probe refuses to arm (``reason`` says why) whenever exactness cannot
be proven: a :class:`~repro.faults.FaultPlan` attached to the fabric
(``faults``), full trace export in flight (``trace``), RNG draws inside
the verify window (``rng`` — e.g. system A's lognormal syscall jitter),
or no exact period emerging at all (``no-period``): soft signatures stop
recurring, the drift projection rules out timely pinning, or the overall
scan budget runs dry.  Disarmed probes cost one attribute check per
boundary.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional

from repro.sim.events import _fire
from repro.sim.process import _wake

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator

#: Relative drift below which a dt is considered pinned (~4 ulps).
_PIN_TOL = math.ldexp(1.0, -50)


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

    __slots__ = ("jumps", "cycles_skipped", "units_skipped",
                 "events_skipped", "time_skipped_ns")

    def __init__(self) -> None:
        self.jumps = 0
        self.cycles_skipped = 0
        self.units_skipped = 0
        self.events_skipped = 0
        self.time_skipped_ns = 0.0

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class FastForward:
    """Cycle probe + analytic extrapolator for one measurement loop.

    Built by :mod:`repro.perftest.runner` when fast-forward is enabled
    (``REPRO_FASTFORWARD=1`` / ``--fast-forward`` / the config field) and
    handed to the loop, which calls :meth:`begin` once, :meth:`observe` at
    every driver-loop boundary, and — for loops with a coupled secondary
    process, like ``send_bw``'s transmitter — :meth:`observe_aux` /
    :meth:`take_aux` on the secondary side.
    """

    __slots__ = ("_sim", "label", "confirm_periods", "max_period", "stats",
                 "reason", "_enabled", "_primary", "_pidx", "_milestones",
                 "_keys", "_records", "_steps", "_nsteps", "_seen",
                 "_vperiod", "_vfull", "_vfp", "_vfail", "_vbad", "_fruitless",
                 "_soft_seen", "_last_soft", "_last_hard", "_drift",
                 "_last_bound", "_jumped_periods", "_aux_raw", "_aux_last",
                 "_aux_pending", "_since_aux")

    def __init__(
        self,
        sim: "Simulator",
        faults: object = None,
        confirm_periods: int = 3,
        max_period: int = 8,
        label: str = "",
    ):
        self._sim = sim
        self.label = label
        self.confirm_periods = max(2, int(confirm_periods))
        self.max_period = max(1, int(max_period))
        self.stats = FastForwardStats()
        self.reason: Optional[str] = None
        self._enabled = True
        self._primary: Optional[str] = None
        self._pidx: int = 0
        self._milestones: tuple = ()
        self._keys: Optional[tuple] = None
        #: Boundary records: (t, counts, state, comp, seq, aux_sig,
        #: aux_counts).
        self._records: list[tuple] = []
        #: Cheap step signatures between consecutive records (incremental;
        #: _steps[i] covers the step ending at _records[i + 1]).
        self._steps: list[tuple] = []
        #: Total steps ever taken (global index of _steps[-1]).
        self._nsteps: int = 0
        #: Step signature -> global index of its latest occurrence.
        self._seen: dict = {}
        #: Candidate period under verification (0 = scanning).
        self._vperiod: int = 0
        #: Pending-event queue signatures, one per verify boundary.
        self._vfull: list[tuple] = []
        #: RNG fingerprint captured when the verify window opened.  Streams
        #: only move forward, so one comparison against a fresh fingerprint
        #: at window completion proves zero draws across the whole window —
        #: no need to snapshot every boundary (``stream_states`` walks
        #: numpy bit-generator state and is the probe's costliest call).
        self._vfp: tuple = ()
        #: Most informative verify-failure reason seen so far.
        self._vfail: Optional[str] = None
        #: Verify-rejected periods, with escalating backoff: period ->
        #: (step index at failure, block length in steps).  Without this, a
        #: run of identical single-completion boundaries between two tx
        #: bursts nominates period 1 forever and the true period — the
        #: burst spacing — is never tried.  The block doubles on every
        #: repeat failure, so a *transient* rejection (the schedule still
        #: settling) retries within a few boundaries while a structurally
        #: wrong period stops wasting verify windows.
        self._vbad: dict = {}
        #: Boundaries since the last jump / milestone crossing.
        self._fruitless: int = 0
        #: Soft step signatures (the step minus component timing state) ever
        #: seen, and the index of the last boundary whose soft signature
        #: recurred.  A loop with *any* periodic structure — even one whose
        #: governor state is still converging bit by bit — soft-hits within
        #: a couple of periods; a jittered loop (fresh RNG floats in every
        #: time delta) essentially never does, and is disarmed quickly.
        #: Structured loops stay armed: a drifting DVFS duty EMA pins to a
        #: float fixed point after enough contractions, and full hits (and
        #: skipping) begin the moment it does.
        self._soft_seen: dict = {}
        self._last_soft: int = 0
        #: Index of the last *bit-exact* step recurrence.  A soft-recurring
        #: loop whose bits never settle (the EMA contraction per period is
        #: too weak to pin within the run) would otherwise keep the probe
        #: scanning forever; hard recurrences going stale bound that cost.
        self._last_hard: int = 0
        #: Relative dt drift per soft recurrence: (step index, |dt - prev
        #: dt| / |dt|) samples, subsampled.  The decay rate of these is the
        #: governor's contraction factor, which projects when (whether) the
        #: schedule pins bit-exactly — see :meth:`_drift_verdict`.
        self._drift: list = []
        self._last_bound: Optional[int] = None
        #: Periods that already produced a successful jump.  After a
        #: binade-capped jump the next boundaries re-round in the new
        #: binade, miss the translated hash, and would pay a full
        #: ``confirm_periods`` rescan — but a proven period's renomination
        #: skips straight to the verify window (which remains the
        #: exactness proof).  A set, because the same loop can jump both
        #: at its base period and at a sub-harmonic escalation of it.
        self._jumped_periods: set = set()
        self._aux_raw: list[tuple] = []
        self._aux_last: dict[str, dict] = {}
        self._aux_pending: dict[str, dict] = {}
        #: Boundaries since a secondary process last reported.  Folded
        #: into the loop-state part of every signature once any aux
        #: activity has been seen: between two aux reports the primary
        #: loop's visible state can be boundary-for-boundary identical
        #: (the burst phase lives in the *secondary's* loop variables,
        #: which only surface at its reap points), so without this
        #: counter the probe can prove a period-1 schedule inside the
        #: quiet stretch and jump over secondary bursts whose cycles are
        #: longer.  The counter gives every boundary of the true
        #: super-period a distinct signature, so only the aux spacing
        #: itself (or a multiple) can recur.
        self._since_aux: int = 0
        if faults is not None and not getattr(faults, "fastforward_safe", False):
            self.disarm("faults")
        elif sim.trace.enabled:
            self.disarm("trace")

    # -- state -----------------------------------------------------------------

    @property
    def enabled(self) -> bool:
        """True while the probe may still arm."""
        return self._enabled

    def disarm(self, reason: str) -> None:
        """Permanently stop probing (exactness can no longer be proven)."""
        self._enabled = False
        if self.reason is None:
            self.reason = reason
        self._records.clear()
        self._steps.clear()
        self._seen.clear()
        self._soft_seen.clear()
        self._drift.clear()
        self._vperiod = 0
        self._vfull.clear()
        self._aux_raw.clear()

    # -- loop API --------------------------------------------------------------

    def begin(self, primary: str, milestones: tuple,
              max_period: Optional[int] = None) -> None:
        """Declare the loop's primary counter and its do-not-cross marks.

        ``milestones`` are primary-counter values whose crossings carry
        one-shot semantics (the warm-up mark, ``total - tail``): a jump
        always lands at least one full period short of the next one, so
        the crossing itself is simulated.  The largest milestone bounds
        all skipping — once the primary passes it the probe disarms and
        the loop's end-game runs at full fidelity.

        ``max_period`` lets the loop widen the period search when it knows
        its own super-period (e.g. ``send_bw``'s tx bursts recur every
        ``sig`` receive boundaries, well past the default of 8).
        """
        self._primary = primary
        self._milestones = tuple(sorted(milestones))
        if max_period is not None:
            self.max_period = max(self.max_period, int(max_period))

    def observe(self, counters: dict, state: tuple = ()) -> Optional[Skip]:
        """Record one boundary; jump if the steady state is proven.

        ``counters`` are the loop's monotone progress counters (the
        primary among them); ``state`` is the loop's residual scheduling
        state (in-flight count, unsignaled backlog, signal phase...).
        Returns a :class:`Skip` when the clock was advanced — the caller
        must apply ``skip.counters`` — or ``None`` to keep simulating.
        """
        if not self._enabled:
            return None
        sim = self._sim
        if self._keys is None:
            self._keys = tuple(sorted(counters))
            self._pidx = self._keys.index(self._primary)
        counts = tuple(counters[k] for k in self._keys)
        now = sim._now
        aux_sig, aux_counts = self._fold_aux(now)
        if aux_sig:
            self._since_aux = 0
        elif self._aux_last:
            self._since_aux += 1
        if self._aux_last:
            state = (*state, self._since_aux)
        rec = (now, counts, state, sim.component_state(), sim._seq,
               aux_sig, aux_counts)
        recs = self._records
        step = None
        if recs:
            step = self._step_between(recs[-1], rec)
            self._steps.append(step)
            self._nsteps += 1
        recs.append(rec)
        limit = (self.confirm_periods + 1) * self.max_period + 2
        if len(recs) > limit:
            del recs[0]
            del self._steps[0]

        if step is not None:
            # Soft structure: the step with its floats quantized to 0.1 ns
            # and the component timing state masked out.  A *settling*
            # schedule (DVFS duty EMA still contracting toward its float
            # fixed point) drifts by ever-smaller fractions of a ns per
            # boundary, so its soft signature recurs long before the bits
            # pin; a *jittered* schedule (fresh lognormal draws, tens of ns
            # spread) essentially never recurs.  Soft recurrence is what
            # separates "worth waiting for exactness" from "hopeless".
            soft = self._soft_of(step)
            prev_soft = self._soft_seen.get(soft)
            self._soft_seen[soft] = (self._nsteps, step[0])
            if prev_soft is not None:
                self._last_soft = self._nsteps
                # Drift sample: how far the raw dt moved between two
                # occurrences of the same quantized step.  Subsampled so a
                # long scan keeps a bounded, well-spaced series.
                drift = self._drift
                if not drift or self._nsteps - drift[-1][0] >= 8:
                    scale = abs(step[0]) or 1.0
                    drift.append(
                        (self._nsteps, abs(step[0] - prev_soft[1]) / scale))

        skip = None
        if self._vperiod:
            skip = self._verify_boundary(step)
        elif step is not None:
            prev = self._seen.get(step)
            self._seen[step] = self._nsteps
            if prev is not None:
                self._last_hard = self._nsteps
                period = self._nsteps - prev
                blocked = self._vbad.get(period)
                if blocked is not None and \
                        self._nsteps - blocked[0] >= blocked[1]:
                    blocked = None  # expired; entry kept for escalation
                if 1 <= period <= self.max_period and blocked is None \
                        and self._scan_ready(period):
                    self._vperiod = period
                    self._vfp = self._sim.rng.stream_states()
                    self._vfull.append(self._queue_sig())

        # Progress bookkeeping, reset by jumps and by milestone crossings
        # (each phase gets its own chance): a tight budget on *soft* hits
        # — a structured schedule recurs within a couple of periods, a
        # jittered one never — and a generous overall backstop for
        # structured schedules that never become provably exact.
        bound = self._next_bound(counts[self._pidx])
        if bound is None:
            self.disarm("complete")
            return skip
        if skip is not None or bound != self._last_bound:
            self._fruitless = 0
            self._last_soft = self._last_hard = self._nsteps
            self._vbad.clear()
        else:
            self._fruitless += 1
        self._last_bound = bound
        if self._nsteps - self._last_soft > self._soft_budget():
            self.disarm("no-period")
        elif self._nsteps - self._last_hard > 3 * self.max_period + 32 \
                and self._drift_verdict(counts[self._pidx]):
            # Soft structure without bit-exact recurrence: the schedule is
            # periodic in shape but its float state hasn't pinned yet, and
            # the drift projection says it never will (in reach).
            self.disarm("no-period")
        elif self._fruitless > 16 * self.max_period + 256:
            self.disarm(self._vfail or "no-period")
        return skip

    def observe_aux(self, name: str, counters: dict, state: tuple = ()) -> None:
        """Record a secondary process's boundary (folded at the next
        :meth:`observe` into the driver's signature)."""
        if not self._enabled:
            return
        self._aux_raw.append((name, self._sim._now, dict(counters), state))

    def take_aux(self, name: str) -> dict:
        """Counter advances accumulated for a secondary process by jumps
        since its last call (empty when none)."""
        return self._aux_pending.pop(name, None) or {}

    # -- scan phase ------------------------------------------------------------

    def _fold_aux(self, now: float) -> tuple:
        if not self._aux_raw and not self._aux_last:
            return (), {}
        sig_items = []
        for (name, t, counters, state) in self._aux_raw:
            last = self._aux_last.get(name)
            delta = tuple(sorted(
                (k, v - (last[k] if last else 0)) for k, v in counters.items()
            ))
            self._aux_last[name] = counters
            sig_items.append((name, now - t, delta, state))
        self._aux_raw.clear()
        aux_counts = {name: dict(c) for name, c in self._aux_last.items()}
        return tuple(sig_items), aux_counts

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
            return 6 * self.max_period + 64
        return 2 * self.max_period + 16

    def _drift_verdict(self, prim: int) -> bool:
        """Should a long hard-hit drought disarm the probe?

        The per-recurrence dt drift decays with the DVFS governor's
        contraction factor ``c`` (the duty EMA converges geometrically to
        its float fixed point).  Fitting ``c`` to the sampled drift series
        projects the boundary where the schedule pins bit-exactly.  Returns
        True — disarm — when the series shows no convergence, or the
        projected pin lands too late to skip anything before the *final*
        milestone (pinning mid-run still pays: every remaining phase
        benefits, so the horizon is the whole run, not the next mark);
        returns False — keep scanning — while an in-reach pin is still
        plausible.  The projection is advisory only: arming still
        requires real bit-exact recurrences plus the full verify pass, so
        a wrong guess costs time, never exactness.
        """
        drift = self._drift
        if len(drift) < 5:
            # Too few samples to fit anything: keep scanning — the hard
            # drought re-evaluates every boundary and the fruitless
            # backstop bounds the total cost of never deciding.
            return False
        (n2, d2) = drift[-1]
        (n1, d1) = drift[len(drift) // 2]
        if n2 - n1 < 32:
            return False
        if d2 == 0.0:
            # dt already pinned; residual state (core duty bits) lags it by
            # a small factor — allow a proportional grace window.
            return self._nsteps > 2.5 * n2 + 128
        if d1 <= d2:
            return True
        c = (d2 / d1) ** (1.0 / (n2 - n1))
        if c >= 0.9995:
            return True
        # Project to drift below ~an ulp of the dt (2**-50 relative).
        steps_left = math.log(_PIN_TOL / d2) / math.log(c)
        projected = n2 + steps_left
        # Boundaries left before the *final* milestone, via the recent
        # primary rate — a pin landing anywhere inside the run pays off.
        recs = self._records
        span = len(recs) - 1
        rate = (recs[-1][1][self._pidx] - recs[0][1][self._pidx]) / span \
            if span > 0 else 1.0
        remaining = (self._milestones[-1] - prim) / max(rate, 1e-9)
        if projected - self._nsteps > 0.7 * remaining:
            return True
        return self._nsteps > 2.5 * projected + 128

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
            aux = tuple((name, round(off, 1), delta, state)
                        for (name, off, delta, state) in aux)
        return (round(step[0], 1), step[1], step[2], step[3], aux)

    @staticmethod
    def _step_between(a: tuple, b: tuple) -> tuple:
        """Cheap signature of the step from boundary record ``a`` to ``b``.

        Fields ordered cheapest/most-discriminating first so mismatch
        comparisons short-circuit early.
        """
        return (
            b[0] - a[0],                                   # time delta
            b[4] - a[4],                                   # records scheduled
            tuple(x - y for x, y in zip(b[1], a[1])),      # counter deltas
            b[2],                                          # loop state
            b[5],                                          # aux signature
            b[3],                                          # component state
        )

    def _scan_ready(self, period: int) -> bool:
        """Cheap steps p-periodic over the confirm window, and a jump at
        the end of a verify pass would still have room to skip?

        A period that already produced a successful jump needs no fresh
        confirm window: it is a proven property of this schedule, and the
        verify pass (the exactness proof proper) re-checks it anyway.
        That matters after every binade-capped jump — the new binade
        re-rounds the step deltas, so the translated history misses and a
        full confirm would cost ``confirm_periods`` extra periods per
        crossing."""
        steps = self._steps
        n = len(steps)
        confirm = 1 if period in self._jumped_periods else self.confirm_periods
        if n < confirm * period:
            return False
        if any(steps[n - k] != steps[n - k - period]
               for k in range(1, (confirm - 1) * period + 1)):
            return False
        return self._worth_it(period)

    def _worth_it(self, period: int) -> bool:
        """Project the primary to the end of the verify window (~2 more
        periods): would at least one whole cycle still be skippable?"""
        recs = self._records
        if len(recs) < period + 1:
            return False
        prim = recs[-1][1][self._pidx]
        units = prim - recs[-1 - period][1][self._pidx]
        if units <= 0:
            return False
        bound = self._next_bound(prim)
        if bound is None:
            return False
        return (bound - (prim + 2 * units) - units) // units >= 1

    # -- verify phase ----------------------------------------------------------

    def _queue_sig(self) -> tuple:
        """Pending records in relative time, tagged by kind: the event
        class, ``_Resume`` for a sleep or a first step, one ``_Callback``
        for every callback stage.  A wake record's argument is a
        ``Process``, so it takes its own tag: the class name would collide
        with a joinable process's end record."""
        sim = self._sim
        now = sim._now
        return tuple(sorted(
            (t - now, prio, type(arg).__name__ if fn is _fire
             else "_Resume" if fn is _wake else "_Callback")
            for (t, prio, _seq, fn, arg) in sim._queue
        ))

    def _verify_boundary(self, step: Optional[tuple]) -> Optional[Skip]:
        period = self._vperiod
        n = len(self._steps)
        if step is None or n < period + 1 or \
                step != self._steps[n - 1 - period]:
            # A mismatch only in low-order float bits (soft signatures
            # equal) is the settling schedule still converging — renominate
            # quickly instead of escalating the backoff.
            settling = (step is not None and n >= period + 1 and
                        self._soft_of(step) ==
                        self._soft_of(self._steps[n - 1 - period]))
            self._abort_verify("drift", settling=settling)
            return None
        self._last_hard = self._nsteps
        self._vfull.append(self._queue_sig())
        if len(self._vfull) < period + 2:
            return None
        full = self._vfull
        if self._sim.rng.stream_states() != self._vfp:
            # Some stream advanced since the window opened: monotone
            # forward movement means a single start-vs-now comparison
            # covers every boundary in between (and, on a rolled window,
            # every boundary since the original proof attempt).
            self._abort_verify("rng")
            return None
        if any(full[j] != full[j - period]
               for j in range(period, period + 2)):
            self._abort_verify("queue")
            return None
        # The proof succeeded: the period is an established property of
        # this schedule (recorded even if the jump below declines — future
        # renominations of it skip the confirm window and shrug off
        # binade-crossing aborts with a minimal penalty).
        self._jumped_periods.add(period)
        skip = self._jump(period)
        if skip is None:
            # Declined — binade cap or milestone straddle, not a failed
            # proof.  Roll the window one boundary and retry: the decline
            # clears within about a period (the clock crosses the binade
            # end / the primary clears the straddle), far cheaper than a
            # fresh verify pass from scratch.
            del self._vfull[0]
            return None
        self._end_verify()
        return skip

    def _abort_verify(self, why: str, settling: bool = False) -> None:
        period = self._vperiod
        if why != "drift":
            self._vfail = why
        if period in self._jumped_periods:
            # A proven period aborting is a transition artifact (binade
            # crossing re-rounding the deltas, a milestone phase change),
            # not evidence against the period — retry almost immediately.
            penalty = 2
        elif settling:
            penalty = period + 2
        else:
            prev = self._vbad.get(period)
            penalty = 2 * period + 6 if prev is None \
                else min(prev[1] * 2, 16 * self.max_period)
        self._vbad[period] = (self._nsteps, penalty)
        self._end_verify()
        if why == "queue" and 2 * period <= self.max_period \
                and 2 * period not in self._vbad \
                and len(self._steps) > 2 * period \
                and self._worth_it(2 * period):
            # Cheap steps repeating at p with the full state rejecting p is
            # the sub-harmonic signature: the queue's true period is a
            # multiple of p (e.g. tx signals once per 2 rx periods).  The
            # hash only ever nominates the *smallest* recurrence distance,
            # so escalate to 2p directly.  p-periodic cheap steps are
            # already 2p-periodic, so no fresh confirm window is needed —
            # the 2p verify window re-checks continuity every boundary.
            self._vperiod = 2 * period
            self._vfp = self._sim.rng.stream_states()
            self._vfull.append(self._queue_sig())

    def _end_verify(self) -> None:
        self._vperiod = 0
        self._vfull.clear()
        self._vfp = ()

    # -- extrapolation ---------------------------------------------------------

    def _next_bound(self, prim: int) -> Optional[int]:
        for mark in self._milestones:
            if mark > prim:
                return mark
        return None

    def _jump(self, p: int) -> Optional[Skip]:
        recs = self._records
        last = recs[-1]
        base = recs[-1 - p]
        prim = last[1][self._pidx]
        units = prim - base[1][self._pidx]
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

        now = last[0]
        # Period time deltas, in order, from the most recent full period.
        start = len(recs) - 1 - p
        deltas = [recs[start + i + 1][0] - recs[start + i][0] for i in range(p)]
        # Binade cap: stay where the ulp grid — and thus the observed
        # arithmetic — is unchanged, for the clock and every shifted offset.
        if now > 0:
            binade_end = math.ldexp(1.0, math.frexp(now)[1])
        else:
            binade_end = math.inf
        queue = self._sim._queue
        max_off = max((rec[0] for rec in queue), default=now) - now
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

        counter_deltas = {
            key: (last[1][i] - base[1][i]) * stepped
            for i, key in enumerate(self._keys)
        }
        aux_shift: dict = {}
        for name, now_counts in last[6].items():
            then_counts = base[6].get(name)
            if then_counts is None:
                continue
            pend = self._aux_pending.setdefault(name, {})
            adv = aux_shift.setdefault(name, {})
            for key, value in now_counts.items():
                delta = (value - then_counts.get(key, 0)) * stepped
                pend[key] = pend.get(key, 0) + delta
                adv[key] = delta
        events_per_period = last[4] - base[4]
        skipped_ns = target - now
        self._sim.advance_clock(target)
        self._jumped_periods.add(p)

        stats = self.stats
        stats.jumps += 1
        stats.cycles_skipped += stepped
        stats.units_skipped += counter_deltas[self._primary]
        stats.events_skipped += events_per_period * stepped
        stats.time_skipped_ns += skipped_ns
        # Translate the detector's history across the jump instead of
        # discarding it: boundary times shift with the clock, counters by
        # the skipped deltas; the step signatures — and the hash map over
        # them — are delta-based and survive verbatim.  The verified period
        # therefore stays hot: the very next boundary renominates it, and a
        # fresh verify window (the exactness proof proper) is the only
        # re-arm latency.  Any post-jump deviation (a milestone near, a
        # binade crossing re-rounding the deltas) shows up as a step
        # mismatch and falls back to a full rescan, so the retained history
        # can delay re-arming but never corrupt a jump.
        shift = skipped_ns
        delta_tuple = tuple(counter_deltas[k] for k in self._keys)
        self._records = [
            (t + shift,
             tuple(c + d for c, d in zip(counts, delta_tuple)),
             state, comp, seq, aux_sig,
             {name: {k: v + aux_shift.get(name, {}).get(k, 0)
                     for k, v in c.items()}
              for name, c in aux_counts.items()})
            for (t, counts, state, comp, seq, aux_sig, aux_counts)
            in self._records
        ]
        for name, adv in aux_shift.items():
            lastc = self._aux_last.get(name)
            if lastc is not None:
                for key, delta in adv.items():
                    lastc[key] = lastc.get(key, 0) + delta
        return Skip(counter_deltas, stepped, units)
