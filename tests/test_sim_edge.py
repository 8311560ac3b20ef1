"""Discrete-event engine edge cases."""

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator


def test_run_until_already_processed_event_returns_value():
    sim = Simulator()
    t = sim.timeout(5.0, value="v")
    sim.run()
    assert sim.run(t) == "v"


def test_run_until_failed_event_raises():
    sim = Simulator()
    ev = sim.event()

    def failer():
        yield sim.timeout(1.0)
        ev.fail(KeyError("x"))

    sim.process(failer())
    with pytest.raises(KeyError):
        sim.run(ev)


def test_run_until_unreachable_event_raises():
    sim = Simulator()
    never = sim.event()
    with pytest.raises(SimulationError, match="never be triggered"):
        sim.run(never)


def test_event_value_before_trigger_raises():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimulationError):
        _ = ev.value
    with pytest.raises(SimulationError):
        _ = ev.ok


def test_fail_requires_exception():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.event().fail("not an exception")


def test_trigger_copies_other_events_outcome():
    sim = Simulator()
    src = sim.timeout(1.0, value=42)
    dst = sim.event()

    def proc():
        yield src
        dst.trigger(src)
        value = yield dst
        return value

    assert sim.run(sim.process(proc())) == 42


def test_yielding_foreign_simulator_event_fails():
    sim1 = Simulator()
    sim2 = Simulator()

    def proc():
        yield sim2.timeout(1.0)

    sim1.process(proc())
    with pytest.raises(SimulationError, match="another simulator"):
        sim1.run()
