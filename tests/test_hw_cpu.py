"""CPU core model: execution, syscalls, DVFS governor, pinning."""

import math
from dataclasses import replace

import pytest

from repro.errors import HardwareError
from repro.hw.cpu import Core, CpuSet
from repro.hw.profiles import SYSTEM_A, SYSTEM_L
from repro.sanitize import drain_global_findings, findings_of
from repro.sim import Simulator
from repro.units import us


def make_core(system=SYSTEM_L, seed=0):
    sim = Simulator(seed=seed)
    return sim, Core(sim, system, index=0)


def run(sim, gen):
    return sim.run(sim.process(gen))


def test_run_advances_time_by_work():
    sim, core = make_core()

    def proc():
        yield from core.run(1234.0)
        return sim.now

    assert run(sim, proc()) == pytest.approx(1234.0)
    assert core.busy_ns == pytest.approx(1234.0)


def test_negative_work_rejected():
    sim, core = make_core()

    def proc():
        yield from core.run(-1.0)

    with pytest.raises(HardwareError):
        run(sim, proc())


def test_core_serializes_two_threads():
    sim, core = make_core()
    ends = []

    def proc(tag):
        yield from core.run(100.0)
        ends.append((tag, sim.now))

    sim.process(proc("a"))
    sim.process(proc("b"))
    sim.run()
    assert ends == [("a", 100.0), ("b", 200.0)]


def test_syscall_cost_deterministic_without_jitter():
    sim, core = make_core(SYSTEM_L)

    def proc():
        yield from core.syscall(0.0)
        return sim.now

    # KPTI off on L: the null syscall costs exactly syscall_ns.
    assert run(sim, proc()) == pytest.approx(SYSTEM_L.cpu.syscall_ns)
    assert core.syscalls == 1


def test_kpti_adds_to_syscall():
    system = SYSTEM_L.with_overrides(kpti=True)
    sim = Simulator()
    core = Core(sim, system)

    def proc():
        yield from core.syscall(0.0)
        return sim.now

    expected = SYSTEM_L.cpu.syscall_ns + SYSTEM_L.cpu.kpti_extra_ns
    assert run(sim, proc()) == pytest.approx(expected)


def test_syscall_jitter_on_virtualized_system():
    sim, core = make_core(SYSTEM_A, seed=3)
    costs = []

    def proc():
        for _ in range(50):
            t0 = sim.now
            yield from core.syscall(0.0)
            costs.append(sim.now - t0)

    run(sim, proc())
    assert len(set(round(c, 3) for c in costs)) > 10  # actually noisy
    import numpy as np

    # Mean within 25% of the profile's syscall cost.
    assert abs(np.mean(costs) / SYSTEM_A.cpu.syscall_ns - 1) < 0.25


def test_turbo_disabled_frequency_is_nominal():
    sim, core = make_core(SYSTEM_L)
    assert core.frequency_factor == 1.0
    core.grant_idle_credit(us(100))
    assert core.frequency_factor == 1.0


def test_turbo_idle_core_runs_faster():
    sim, core = make_core(SYSTEM_A)
    # Fresh core: duty 0 -> full turbo headroom.
    assert core.frequency_factor == pytest.approx(SYSTEM_A.cpu.turbo_headroom)

    def proc():
        yield from core.run(1000.0)
        return sim.now

    elapsed = run(sim, proc())
    assert elapsed < 1000.0  # ran faster than nominal


def test_turbo_decays_under_sustained_load():
    sim, core = make_core(SYSTEM_A)

    def proc():
        yield from core.run(SYSTEM_A.cpu.dvfs_window_ns * 20)

    run(sim, proc())
    # After sustained work the duty cycle saturates and turbo is gone.
    assert core.duty_cycle > 0.95
    assert core.frequency_factor < 1.01


def test_idle_credit_restores_turbo():
    sim, core = make_core(SYSTEM_A)

    def proc():
        yield from core.run(SYSTEM_A.cpu.dvfs_window_ns * 20)

    run(sim, proc())
    saturated = core.frequency_factor
    core.grant_idle_credit(SYSTEM_A.cpu.dvfs_window_ns * 10)
    assert core.frequency_factor > saturated


@pytest.mark.parametrize("syscall_ns", [0.0, 300.0])
def test_syscall_credit_keeps_the_governor_arithmetic(syscall_ns):
    """A syscall on a turbo core leaves the duty EMA bit-equal to the
    governor's own steps: decay over the idle gap, absorb the scaled
    work, then multiply in the idle credit (after a decay only when no
    work ran)."""
    cpu = SYSTEM_A.cpu
    system = SYSTEM_A.with_overrides(
        cpu=replace(cpu, syscall_ns=syscall_ns), kpti=False,
        syscall_jitter_cv=0.0)
    sim, core = make_core(system)
    window = cpu.dvfs_window_ns
    head = cpu.turbo_headroom - 1.0

    def proc():
        yield from core.run(1000.0)
        yield 300.0
        yield from core.syscall(0.0)

    run(sim, proc())
    duty = 1.0 - math.exp(-(1000.0 / cpu.turbo_headroom) / window)
    duty *= math.exp(-300.0 / window)
    if syscall_ns > 0:
        scaled = syscall_ns / (1.0 + head * (1.0 - duty))
        frac = math.exp(-scaled / window)
        duty = (1.0 - frac) + duty * frac
    duty *= math.exp(-cpu.dvfs_syscall_credit_ns / window)
    assert core._duty == duty
    assert core.syscalls == 1


def test_busy_poll_counts_wait_as_duty():
    sim = Simulator()
    core = Core(sim, SYSTEM_A)
    ev = sim.event()

    def firer():
        yield sim.timeout(SYSTEM_A.cpu.dvfs_window_ns * 5)
        ev.succeed(None)

    def proc():
        yield from core.busy_poll(ev, 50.0)
        return core.duty_cycle

    sim.process(firer())
    duty = sim.run(sim.process(proc()))
    assert duty > 0.9  # spinning saturated the core


def test_cpuset_pin_round_robin_and_explicit():
    sim = Simulator()
    cpus = CpuSet(sim, SYSTEM_L)
    assert len(cpus) == SYSTEM_L.cpu.cores
    picked = [cpus.pin().index for _ in range(SYSTEM_L.cpu.cores + 1)]
    assert picked[0] == picked[-1]  # wrapped around
    assert cpus.pin(2).index == 2
    with pytest.raises(HardwareError):
        cpus.pin(99)


# -- hold protocol ---------------------------------------------------------------


def test_uncontended_run_holds_inline():
    sim, core = make_core(SYSTEM_A)
    seen = []

    def proc():
        gen = core.run(300.0)
        next(gen)  # the first yield is already the work slice
        seen.append(core.res.users is core.res._held)
        yield from gen

    run(sim, proc())
    assert seen == [True]
    assert core.res.users == []


def test_same_instant_race_on_core_is_sim101_with_sanitizer():
    sim = Simulator(sanitize=True)
    core = Core(sim, SYSTEM_L, index=0, name="h0.core0")

    def worker():
        yield sim.timeout(10.0)
        yield from core.run(5.0)

    sim.process(worker(), name="thread_a")
    sim.process(worker(), name="thread_b")
    sim.run()
    findings = findings_of(sim)
    drain_global_findings()
    assert [f.rule for f in findings] == ["SIM101"]
    assert "resource 'h0.core0'" in findings[0].message
    assert sim.now == 20.0


def test_inline_governor_matches_reference_replay():
    # Core.run folds decay -> frequency factor -> sleep -> absorb into one
    # inline step per slice; replaying the governor's formulas slice by
    # slice (cold flush included) must give the same bits.
    sim, core = make_core(SYSTEM_A, seed=3)
    window = SYSTEM_A.cpu.dvfs_window_ns
    headroom = SYSTEM_A.cpu.turbo_headroom - 1.0
    gaps = (0.0, 37.5, window * 0.3, window * 60.0, 1.0)
    works = (window * 2.5, 28.0, 900.0, window * 0.7, 123.4)

    def proc():
        for gap, work in zip(gaps, works):
            if gap:
                yield gap
            yield from core.run(work)

    run(sim, proc())

    rsim = Simulator(seed=3)
    ref = {"duty": 0.0, "t": 0.0, "busy": 0.0}

    def replay():
        for gap, work in zip(gaps, works):
            if gap:
                yield gap
            remaining = work
            while remaining > 0:
                slice_nominal = min(remaining, window)
                idle = rsim.now - ref["t"]
                if idle > 0:
                    ref["duty"] = (0.0 if idle >= 48.0 * window
                                   else ref["duty"] * math.exp(-idle / window))
                    ref["t"] = rsim.now
                scaled = slice_nominal / (1.0 + headroom * (1.0 - ref["duty"]))
                yield scaled
                frac = math.exp(-scaled / window)
                ref["duty"] = 1.0 * (1.0 - frac) + ref["duty"] * frac
                ref["t"] = rsim.now
                ref["busy"] += scaled
                remaining -= slice_nominal

    rsim.run(rsim.process(replay()))
    assert (sim.now, core.busy_ns, core._duty, core._duty_t) == (
        rsim.now, ref["busy"], ref["duty"], ref["t"])
