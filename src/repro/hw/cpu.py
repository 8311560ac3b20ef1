"""CPU cores with a DVFS/turbo model.

Each simulated thread is pinned to a :class:`Core` (the paper pins all
benchmark processes).  A core is a capacity-1 resource: oversubscribed cores
serialize their threads' work.  Work durations are scaled by the current
effective frequency, which a simple duty-cycle EMA governs:

- Turbo disabled (system L): frequency is nominal, always.
- Turbo enabled (system A): a core that is *not* saturated runs up to
  ``turbo_headroom`` faster.  Sustained busy-polling drives the duty cycle
  to 1 and forfeits the headroom; syscalls grant a small idle credit
  (``dvfs_syscall_credit_ns``).  This reproduces the paper's observation
  that CoRD can marginally outperform kernel bypass on large-message
  bandwidth when Turbo is on (§5: "system calls interact with DVFS").
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Generator, Optional

from repro.errors import HardwareError
from repro.hw.profiles import CpuProfile, SystemProfile
from repro.sim.events import Event
from repro.sim.resources import Resource

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator

#: Idle gaps beyond this many DVFS windows leave a residual duty of at most
#: ``e**-48`` ~ 1.4e-21 — below half an ulp of every expression the duty
#: feeds (``1 - duty`` in :meth:`Core.frequency_factor`, ``duty * frac``
#: against ``1 - frac`` in :meth:`Core._absorb_busy` for any busy slice
#: longer than a nanosecond; the shortest slice in any profile is the 28 ns
#: poll check, a 38x margin) — so the governor flushes the EMA to an exact
#: 0.0.  That makes "cold" an absorbing, canonical state: a core left idle
#: this long behaves bit-identically to a freshly built one no matter how
#: much *longer* it idled, which is what lets the steady-state fast-forward
#: signature treat all such cores as equal (see :meth:`Core._timing_state`).
_COLD_WINDOWS = 48.0


class Core:
    """One CPU core: exclusive execution resource + frequency governor."""

    def __init__(
        self,
        sim: "Simulator",
        system: SystemProfile,
        index: int = 0,
        name: str = "",
    ):
        self.sim = sim
        self.system = system
        self.profile: CpuProfile = system.cpu
        self.index = index
        self.name = name or f"core{index}"
        self.res = Resource(sim, capacity=1, name=self.name)
        self._jitter = sim.rng.jitter_stream(f"cpu:{self.name}")
        # Per-hold constants of the profile (frozen dataclasses), so the hot
        # paths below do no attribute chains, method calls or exp() for
        # them.  Each is the exact float its profile expression yields.
        cpu = self.profile
        self._turbo = system.turbo_enabled
        self._window = cpu.dvfs_window_ns
        self._cold_gap = _COLD_WINDOWS * cpu.dvfs_window_ns
        self._headroom = cpu.turbo_headroom - 1.0
        self._syscall_base = system.syscall_cost()
        self._jitter_cv = system.syscall_jitter_cv
        #: Duty multiplier of one syscall's DVFS idle credit (None: no credit).
        self._syscall_credit: Optional[float] = None
        if self._turbo and cpu.dvfs_syscall_credit_ns > 0:
            self._syscall_credit = math.exp(
                -cpu.dvfs_syscall_credit_ns / cpu.dvfs_window_ns)
        # Duty-cycle EMA state for the DVFS governor.
        self._duty: float = 0.0
        self._duty_t: float = sim.now
        #: Absolute start of an in-progress busy-poll (None outside one).
        self._poll_t0: Optional[float] = None
        # Accounting.
        self.busy_ns: float = 0.0
        self.syscalls: int = 0
        # Hooks are registered lazily at first dispatch: an idle core's duty
        # EMA is pinned at 0.0 (decay multiplies zero), so it has no
        # timing-relevant state to shift or to publish — and a many-core
        # host would otherwise make every steady-state signature pay for
        # hundreds of inert providers.
        self._hooked = False

    def _ensure_hooks(self) -> None:
        """Register clock-shift / state hooks at first dispatch.

        Absolute timestamps must survive bulk clock advances (steady-state
        fast-forward): shift them with the clock so every ``now - t`` gap
        the core computes is translation-invariant.  The duty EMA feeds
        back into timing only with turbo on, so only those cores publish
        governor state into steady-state signatures.
        """
        self._hooked = True
        self.sim.on_time_shift(self._on_time_shift)
        if self.system.turbo_enabled:
            self.sim.register_state_provider(self._timing_state)

    def _on_time_shift(self, shift: float) -> None:
        self._duty_t += shift
        if self._poll_t0 is not None:
            self._poll_t0 += shift

    def _timing_state(self) -> tuple:
        """Timing-relevant governor state for steady-state signatures.

        The pending idle gap is part of the state (decay is lazy), which
        would make an abandoned core — busy during setup, never touched
        again — look aperiodic forever as its staleness grows.  Once the
        pending decay is past ``_COLD_WINDOWS`` the flush in
        :meth:`_decay_duty` guarantees the next query yields an exact 0.0
        regardless of how stale the core got, so every such state is
        reported as one canonical cold tuple.
        """
        gap = self.sim.now - self._duty_t
        if self._duty == 0.0 or gap >= self._cold_gap:
            return (self.name, "cold")
        return (self.name, self._duty, gap)

    # -- DVFS -------------------------------------------------------------------

    def _decay_duty(self) -> float:
        """Decay the duty EMA over the idle gap since the last update.

        Returns the decayed duty.  Gaps past ``_COLD_WINDOWS`` flush to an
        exact 0.0: the residual (< 1.6e-28) is beneath half an ulp of
        everything downstream, so the flush is bit-invisible to timing
        while making long-idle cores canonically cold.  :meth:`run` inlines
        this step; the two must stay in step.
        """
        now = self.sim.now
        gap = now - self._duty_t
        if gap > 0:
            if gap >= self._cold_gap:
                self._duty = 0.0
            else:
                self._duty *= math.exp(-gap / self._window)
            self._duty_t = now
        return self._duty

    def _absorb_busy(self, duration: float) -> None:
        """Fold a busy interval ending now into the duty EMA."""
        frac = math.exp(-duration / self._window)
        self._duty = (1.0 - frac) + self._duty * frac
        self._duty_t = self.sim.now

    @property
    def duty_cycle(self) -> float:
        """Current duty-cycle estimate in [0, 1]."""
        return self._decay_duty()

    @property
    def frequency_factor(self) -> float:
        """Effective frequency relative to nominal (>= 1.0)."""
        if not self._turbo:
            return 1.0
        return 1.0 + self._headroom * (1.0 - self._decay_duty())

    def grant_idle_credit(self, credit_ns: float) -> None:
        """Pretend the core idled for ``credit_ns`` (DVFS syscall effect)."""
        if credit_ns <= 0 or not self._turbo:
            return
        self._decay_duty()
        self._duty *= math.exp(-credit_ns / self._window)

    # -- execution -----------------------------------------------------------------

    def run(self, work_ns: float,
            credit: Optional[float] = None) -> Generator[Event, object, None]:
        """Execute ``work_ns`` of nominal-frequency work on this core.

        Acquires the core (queueing behind other pinned threads), advances
        time by the frequency-scaled duration, updates DVFS accounting.
        After the release, a ``credit`` (a syscall's duty multiplier, see
        :meth:`syscall`) is folded into the duty EMA.
        """
        if work_ns < 0:
            raise HardwareError(f"negative work: {work_ns}")
        if not self._hooked:
            self._ensure_hooks()
        res = self.res
        tok = res.try_hold()
        if tok is None:
            tok = yield from res.acquire()
        try:
            if not self._turbo:
                # Frequency is pinned to nominal, so the duty EMA can never
                # feed back into timing — skip the per-slice exp() updates.
                if work_ns > 0:
                    yield work_ns
                    self.busy_ns += work_ns
            else:
                # Slice long work so duty and frequency co-evolve: a long
                # compute block saturates the core and decays to nominal
                # frequency instead of riding its entry-time turbo factor.
                # Each slice is one inline governor step: _decay_duty, the
                # frequency factor, the scaled sleep, then _absorb_busy —
                # the same float operations in the same order.
                sim = self.sim
                window = self._window
                remaining = work_ns
                while remaining > 0:
                    slice_nominal = window if window < remaining else remaining
                    now = sim._now
                    gap = now - self._duty_t
                    if gap > 0:
                        if gap >= self._cold_gap:
                            self._duty = 0.0
                        else:
                            self._duty *= math.exp(-gap / window)
                        self._duty_t = now
                    scaled = slice_nominal / (
                        1.0 + self._headroom * (1.0 - self._duty))
                    yield scaled
                    frac = math.exp(-scaled / window)
                    self._duty = (1.0 - frac) + self._duty * frac
                    self._duty_t = sim._now
                    self.busy_ns += scaled
                    remaining -= slice_nominal
        finally:
            res.release(tok)
        if credit is not None:
            # Inlined grant_idle_credit(dvfs_syscall_credit_ns).  A run that
            # did any work left the EMA current, so the decay step is only
            # needed after zero work.
            if self._duty_t < self.sim._now:
                self._decay_duty()
            self._duty *= credit

    def syscall(
        self, kernel_work_ns: float = 0.0
    ) -> Generator[Event, object, None]:
        """One syscall round trip plus ``kernel_work_ns`` of kernel work.

        Applies KPTI cost when the system profile enables it and lognormal
        jitter on virtualized systems.  The cost is drawn when this is
        called, and the returned generator is :meth:`run` itself.
        """
        cost = self._jitter.draw(self._syscall_base + kernel_work_ns,
                                 self._jitter_cv)
        self.syscalls += 1
        return self.run(cost, self._syscall_credit)

    def busy_poll(self, until: Event, check_ns: float) -> Generator[Event, object, float]:
        """Busy-poll on the core until ``until`` fires.

        Returns the polling CPU time burnt.  The waiting time counts as busy
        for the DVFS governor (the defining property of polling), and the
        caller pays one final ``check_ns`` to observe the result.
        """
        if not self._hooked:
            self._ensure_hooks()
        res = self.res
        tok = res.try_hold()
        if tok is None:
            tok = yield from res.acquire()
        try:
            # The start mark lives on the core (not a generator local) so a
            # bulk clock advance can translate it: the measured wait then
            # never includes fast-forwarded time another process skipped.
            self._poll_t0 = self.sim.now
            if not until.processed:
                yield until
            waited = self.sim.now - self._poll_t0
            self._poll_t0 = None
            if self._turbo:
                tail = check_ns / (1.0 + self._headroom * (1.0 - self._decay_duty()))
                if tail > 0:
                    yield tail
                burnt = waited + tail
                if burnt > 0:
                    self._absorb_busy(burnt)
                    self.busy_ns += burnt
            else:
                if check_ns > 0:
                    yield check_ns
                burnt = waited + check_ns
                self.busy_ns += burnt
            return burnt
        finally:
            res.release(tok)


class CpuSet:
    """The cores of one host, with simple pinning allocation."""

    def __init__(self, sim: "Simulator", system: SystemProfile, host_name: str = "host"):
        self.sim = sim
        self.system = system
        self._host_name = host_name
        # Cores materialize on first pin: a 120-core profile (Azure HB120)
        # would otherwise build hundreds of Core objects — and as many named
        # rng streams — that no benchmark ever touches.  Stream seeds derive
        # from (master seed, name) alone, so creation order cannot perturb
        # any draw.
        self._cores: list[Optional[Core]] = [None] * system.cpu.cores
        self._next_pin = 0

    def _core(self, index: int) -> Core:
        core = self._cores[index]
        if core is None:
            core = self._cores[index] = Core(
                self.sim, self.system, index=index,
                name=f"{self._host_name}.core{index}",
            )
        return core

    @property
    def cores(self) -> list[Core]:
        """All cores, materializing any not yet pinned (telemetry export)."""
        return [self._core(i) for i in range(len(self._cores))]

    def pin(self, core_index: Optional[int] = None) -> Core:
        """Claim a core: explicit index, or round-robin when None."""
        if core_index is None:
            index = self._next_pin % len(self._cores)
            self._next_pin += 1
            return self._core(index)
        if not 0 <= core_index < len(self._cores):
            raise HardwareError(
                f"core index {core_index} out of range 0..{len(self._cores) - 1}"
            )
        return self._core(core_index)

    def __len__(self) -> int:
        return len(self._cores)
