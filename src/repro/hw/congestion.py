"""DCQCN-style per-QP rate limiting (Zhu et al., SIGCOMM'15).

One :class:`DcqcnLimiter` per RC queue pair at the initiator NIC, created
lazily when the fabric runs with a :class:`~repro.hw.profiles.CcProfile`.
The control loop:

- **CNP arrival** (:meth:`on_cnp`): the congestion estimate ``alpha``
  rises by EWMA gain ``g``; the current rate is remembered as the
  recovery ``target`` and cut multiplicatively (``rate *= 1 - alpha/2``,
  floored at ``min_rate``).  Cuts are throttled to one per
  ``cut_interval_ns`` (DCQCN's rate-reduce period) so a burst of
  notifications counts as one congestion event.
- **ACK timeout** (:meth:`on_timeout`): loss is the strongest signal the
  initiator ever gets — a tail-dropped message is never delivered, so it
  can never carry an ECN mark back, and without this hook every sender
  whose messages all dropped re-blasts its retransmits at the very rate
  that caused the loss (the synchronized retransmit storms behind
  congestion collapse).  RTO-style response: ``alpha`` pins to 1 and the
  rate drops to the floor; the increase timer rebuilds it additively.
  Real RoCE deployments avoid needing this by running DCQCN over a
  PFC-lossless fabric; a bounded tail-dropping buffer does not have that
  luxury.
- **alpha timer**: while elevated, ``alpha`` decays by ``1 - g`` every
  ``alpha_update_ns``; the timer disarms itself once alpha is negligible.
- **rate-increase timer**: every ``rate_increase_ns`` the rate moves
  halfway to ``target`` (fast recovery); after ``fast_recovery_rounds``
  the target itself grows additively (``rai_bytes_per_ns``), then
  hyper-actively (``hai_bytes_per_ns``) after ``hyper_after_rounds``
  more.  At line rate both rate and target pin there and the timer
  disarms — the limiter is quiescent (and free) until the next CNP.
- **token bucket** (:meth:`pace`): WQE fetch is paced by a bucket of
  ``burst_bytes`` refilled at the current rate.  A fully recovered, idle
  limiter paces nothing.

Everything is driven by simulated time only: no wall clock, no RNG (the
WRED marking randomness lives in the fabric's dedicated streams).

**Lazy timers.**  The two timers push no heap records.  Each keeps its
next tick time (``_alpha_next``, ``_inc_next``; ``inf`` when disarmed),
and every reader — :meth:`pace`, :meth:`on_cnp`, :meth:`on_timeout`,
:meth:`state`, :meth:`snapshot` — first applies, in order, every tick due
at or before ``sim.now``.  Next-tick times accumulate as ``next +
period``, the same float a self-rescheduling record chain computes, so
the catch-up replays the record-driven recurrences bit for bit.  Tie
rule: a tick due exactly at the reader's instant applies first.  Its
record would always have run first, because it was pushed a whole period
(20 µs or 100 µs) earlier, far longer than any NIC stage lead.  The tick
times and the other absolute timestamps shift with the clock through an
``on_time_shift`` hook, so steady-state fast-forward jumps keep every
``now - t`` valid.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.hw.profiles import CcProfile

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator

#: Alpha below this is congestion-free for timer purposes: the decay
#: timer disarms (a CNP re-arms it).  Rate math still uses the raw value.
_ALPHA_FLOOR = 1e-3

#: Rate within this fraction of line rate snaps to line rate exactly,
#: ending recovery (avoids an asymptotic tail of timer events).
_LINE_SNAP = 0.999

_INF = float("inf")


class DcqcnLimiter:
    """DCQCN rate state machine + token-bucket pacer for one QP."""

    __slots__ = ("sim", "cc", "line_rate", "min_rate", "rate", "target",
                 "alpha", "tokens", "_last_ns", "_last_cut_ns",
                 "_alpha_next", "_inc_next", "_inc_rounds", "cnps",
                 "rate_cuts", "timeout_cuts", "lowest_rate", "paced_ns")

    def __init__(self, sim: "Simulator", cc: CcProfile, line_rate: float):
        self.sim = sim
        self.cc = cc
        #: Uncongested sending rate (bytes/ns) — the link bandwidth.
        self.line_rate = line_rate
        self.min_rate = max(cc.min_rate_fraction * line_rate, 1e-6)
        #: Conservative start (see ``CcProfile.initial_rate_fraction``):
        #: the increase timer is armed below so an uncongested flow ramps
        #: to line rate instead of idling at the initial rate forever.
        self.rate = max(cc.initial_rate_fraction * line_rate, self.min_rate)
        #: Recovery target: the rate just before the last cut.
        self.target = self.rate
        #: Congestion estimate, initialized to 1 as in the DCQCN paper:
        #: the *first* CNP halves the rate (a shallow first cut lets an
        #: incast keep overrunning the queue for many CNP intervals).
        self.alpha = 1.0
        self.tokens = float(cc.burst_bytes)
        self._last_ns = 0.0
        #: When the last rate cut landed (CNP or timeout); cuts within
        #: ``cut_interval_ns`` of it are one congestion event.
        self._last_cut_ns = float("-inf")
        #: Next alpha-decay / rate-increase tick (``inf``: disarmed).
        self._alpha_next = _INF
        self._inc_next = _INF
        #: Rate-increase rounds since the last cut (selects the stage).
        self._inc_rounds = 0
        self.cnps = 0
        self.rate_cuts = 0
        self.timeout_cuts = 0
        #: Deepest rate any cut reached (line rate until the first cut).
        self.lowest_rate = line_rate
        #: Total pacing delay imposed (ns) — the ``cc_pace`` stage budget.
        self.paced_ns = 0.0
        sim.on_time_shift(self._shift_time)
        if self.rate < line_rate:
            # Skip fast recovery for the startup ramp (there was no cut
            # to recover from): go straight to additive increase.
            self._inc_rounds = cc.fast_recovery_rounds
            self._inc_next = sim.now + cc.rate_increase_ns

    def _shift_time(self, shift: float) -> None:
        self._last_ns += shift
        self._last_cut_ns += shift  # -inf + shift stays -inf
        self._alpha_next += shift  # inf + shift stays inf
        self._inc_next += shift

    # -- pacing -------------------------------------------------------------

    def pace(self, now: float, nbytes: int) -> float:
        """Charge ``nbytes`` to the bucket; return the fetch delay (ns).

        A recovered limiter (rate back at line, increase timer disarmed)
        short-circuits with the bucket pinned full, so steady state costs
        two compares per message.
        """
        self._catch_up()
        if self.rate >= self.line_rate and self._inc_next == _INF:
            self.tokens = float(self.cc.burst_bytes)
            self._last_ns = now
            return 0.0
        tokens = self.tokens + (now - self._last_ns) * self.rate
        burst = float(self.cc.burst_bytes)
        if tokens > burst:
            tokens = burst
        if tokens >= nbytes:
            self.tokens = tokens - nbytes
            self._last_ns = now
            return 0.0
        delay = (nbytes - tokens) / self.rate
        self.tokens = 0.0
        self._last_ns = now + delay
        self.paced_ns += delay
        return delay

    # -- CNP reaction -------------------------------------------------------

    def on_cnp(self, now: float) -> None:
        """One congestion notification: estimate up, rate cut, timers on.

        ``alpha`` rises on every CNP; the rate cut itself is throttled to
        one per ``cut_interval_ns`` so a burst of notifications from one
        queue excursion is a single multiplicative decrease.
        """
        cc = self.cc
        t = self._catch_up()
        self.cnps += 1
        self.alpha = (1.0 - cc.g) * self.alpha + cc.g
        if self._alpha_next == _INF:
            self._alpha_next = t + cc.alpha_update_ns
        if now - self._last_cut_ns < cc.cut_interval_ns:
            return
        self.target = self.rate
        cut = self.rate * (1.0 - 0.5 * self.alpha)
        self._apply_cut(now, cut if cut > self.min_rate else self.min_rate)

    def on_timeout(self, now: float) -> None:
        """ACK-timeout loss: drop to the floor rate (RTO-style).

        ``alpha`` pins to 1 (maximal congestion estimate) and both rate
        and recovery target fall to ``min_rate``, so recovery is a clean
        additive rebuild — a synchronized wave of cut-then-fast-recovered
        senders would otherwise re-overflow the queue that dropped them.
        Throttled like CNP cuts: the near-simultaneous timers of one loss
        burst count once.
        """
        t = self._catch_up()
        if now - self._last_cut_ns < self.cc.cut_interval_ns:
            return
        self.alpha = 1.0
        if self._alpha_next == _INF:
            self._alpha_next = t + self.cc.alpha_update_ns
        self.timeout_cuts += 1
        self.target = self.min_rate
        self._apply_cut(now, self.min_rate)

    def _apply_cut(self, now: float, new_rate: float) -> None:
        # Settle the bucket at the old rate up to now so the cut applies
        # from this instant, then let it refill at the new rate.
        tokens = self.tokens + (now - self._last_ns) * self.rate
        burst = float(self.cc.burst_bytes)
        self.tokens = tokens if tokens < burst else burst
        self._last_ns = now
        self._last_cut_ns = now
        self.rate = new_rate
        self.rate_cuts += 1
        if self.rate < self.lowest_rate:
            self.lowest_rate = self.rate
        self._inc_rounds = 0
        if self._inc_next == _INF:
            self._inc_next = self.sim._now + self.cc.rate_increase_ns

    # -- timers -------------------------------------------------------------

    def _catch_up(self) -> float:
        """Apply every alpha and rate-increase tick due at or before
        ``sim.now``, and return ``sim.now``.  The two timers touch disjoint
        state (``alpha`` against rate, target and rounds), so running one's
        ticks before the other's matches any interleaving of their
        records."""
        now = self.sim._now
        cc = self.cc
        t = self._alpha_next
        if t <= now:
            alpha = self.alpha
            while t <= now:
                alpha *= 1.0 - cc.g
                if alpha <= _ALPHA_FLOOR:
                    alpha = 0.0
                    t = _INF
                    break
                t = t + cc.alpha_update_ns
            self.alpha = alpha
            self._alpha_next = t
        t = self._inc_next
        while t <= now:
            self._inc_rounds += 1
            stage = self._inc_rounds - cc.fast_recovery_rounds
            if stage > 0:
                step = (cc.hai_bytes_per_ns if stage > cc.hyper_after_rounds
                        else cc.rai_bytes_per_ns)
                target = self.target + step
                self.target = target if target < self.line_rate else self.line_rate
            self.rate = 0.5 * (self.rate + self.target)
            if self.rate >= self.line_rate * _LINE_SNAP:
                # Recovered: pin at line rate and go quiescent.  The target
                # grows by at least ``rai_bytes_per_ns`` per round once past
                # fast recovery, so this terminates in bounded rounds.
                self.rate = self.line_rate
                self.target = self.line_rate
                t = _INF
            else:
                t = t + cc.rate_increase_ns
        self._inc_next = t
        return now

    # -- observability ------------------------------------------------------

    def state(self) -> tuple:
        """Timing-relevant levels for fast-forward cycle signatures.

        Token count is reported *as of now* (the raw pair ``(tokens,
        _last_ns)`` mixes an absolute timestamp into the fingerprint and
        could never recur).  The last-cut age is clamped to the throttle
        interval: beyond it the throttle is inert, so all older ages are
        behaviorally identical (and an unclamped age grows forever,
        defeating cycle detection).  Each timer appears as the time left
        to its next tick (``inf`` when disarmed), as a pending record's
        offset would.
        """
        now = self._catch_up()
        tokens = self.tokens + (now - self._last_ns) * self.rate
        burst = float(self.cc.burst_bytes)
        if tokens > burst:
            tokens = burst
        cut_age = min(now - self._last_cut_ns, self.cc.cut_interval_ns)
        return (self.rate, self.target, self.alpha, tokens, cut_age,
                self._alpha_next - now, self._inc_next - now,
                self._inc_rounds)

    def snapshot(self) -> dict[str, float]:
        """Rate state and cut totals for the metrics snapshot."""
        self._catch_up()
        return {
            "rate": self.rate,
            "lowest_rate": self.lowest_rate,
            "rate_cuts": self.rate_cuts,
            "timeout_cuts": self.timeout_cuts,
            "cnps": self.cnps,
            "paced_ns": self.paced_ns,
        }
