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
  ``alpha_update_ns``; the timer disarms itself once alpha is negligible
  so an idle simulator drains.
- **rate-increase timer**: every ``rate_increase_ns`` the rate moves
  halfway to ``target`` (fast recovery); after ``fast_recovery_rounds``
  the target itself grows additively (``rai_bytes_per_ns``), then
  hyper-actively (``hai_bytes_per_ns``) after ``hyper_after_rounds``
  more.  At line rate both rate and target pin there and the timer
  disarms — the limiter is quiescent (and free) until the next CNP.
- **token bucket** (:meth:`pace`): WQE fetch is paced by a bucket of
  ``burst_bytes`` refilled at the current rate.  A fully recovered, idle
  limiter paces nothing.

Everything is driven by simulated time only: timers via ``sim.call_later``,
no wall clock, no RNG (the WRED marking randomness lives in the fabric's
dedicated streams).  Absolute timestamps register an ``on_time_shift``
hook so steady-state fast-forward clock jumps keep ``now - t`` math valid.
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


class DcqcnLimiter:
    """DCQCN rate state machine + token-bucket pacer for one QP."""

    __slots__ = ("sim", "cc", "line_rate", "min_rate", "rate", "target",
                 "alpha", "tokens", "_last_ns", "_last_cut_ns",
                 "_alpha_armed", "_inc_armed", "_inc_rounds", "cnps",
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
        self._alpha_armed = False
        self._inc_armed = False
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
            self._inc_armed = True
            sim.call_later(cc.rate_increase_ns, self._inc_fired, None)

    def _shift_time(self, shift: float) -> None:
        self._last_ns += shift
        self._last_cut_ns += shift  # -inf + shift stays -inf

    # -- pacing -------------------------------------------------------------

    def pace(self, now: float, nbytes: int) -> float:
        """Charge ``nbytes`` to the bucket; return the fetch delay (ns).

        A recovered limiter (rate back at line, increase timer disarmed)
        short-circuits with the bucket pinned full, so steady state costs
        two compares per message.
        """
        if self.rate >= self.line_rate and not self._inc_armed:
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
        self.cnps += 1
        self.alpha = (1.0 - cc.g) * self.alpha + cc.g
        if not self._alpha_armed:
            self._alpha_armed = True
            self.sim.call_later(cc.alpha_update_ns, self._alpha_fired, None)
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
        if now - self._last_cut_ns < self.cc.cut_interval_ns:
            return
        self.alpha = 1.0
        if not self._alpha_armed:
            self._alpha_armed = True
            self.sim.call_later(self.cc.alpha_update_ns, self._alpha_fired, None)
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
        if not self._inc_armed:
            self._inc_armed = True
            self.sim.call_later(self.cc.rate_increase_ns, self._inc_fired, None)

    # -- timers -------------------------------------------------------------

    def _alpha_fired(self, _arg: object) -> None:
        self.alpha *= 1.0 - self.cc.g
        if self.alpha <= _ALPHA_FLOOR:
            self.alpha = 0.0
            self._alpha_armed = False
            return
        self.sim.call_later(self.cc.alpha_update_ns, self._alpha_fired, None)

    def _inc_fired(self, _arg: object) -> None:
        cc = self.cc
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
            self._inc_armed = False
        else:
            self.sim.call_later(cc.rate_increase_ns, self._inc_fired, None)

    # -- observability ------------------------------------------------------

    def state(self) -> tuple:
        """Timing-relevant levels for fast-forward cycle signatures.

        Token count is reported *as of now* (the raw pair ``(tokens,
        _last_ns)`` mixes an absolute timestamp into the fingerprint and
        could never recur).  The last-cut age is clamped to the throttle
        interval: beyond it the throttle is inert, so all older ages are
        behaviorally identical (and an unclamped age grows forever,
        defeating cycle detection).
        """
        now = self.sim.now
        tokens = self.tokens + (now - self._last_ns) * self.rate
        burst = float(self.cc.burst_bytes)
        if tokens > burst:
            tokens = burst
        cut_age = min(now - self._last_cut_ns, self.cc.cut_interval_ns)
        return (self.rate, self.target, self.alpha, tokens, cut_age,
                self._alpha_armed, self._inc_armed, self._inc_rounds)

    def snapshot(self) -> dict[str, float]:
        """Rate state and cut totals for the metrics snapshot."""
        return {
            "rate": self.rate,
            "lowest_rate": self.lowest_rate,
            "rate_cuts": self.rate_cuts,
            "timeout_cuts": self.timeout_cuts,
            "cnps": self.cnps,
            "paced_ns": self.paced_ns,
        }
