"""Unit tests for the discrete-event engine core."""

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()

    def proc():
        yield sim.timeout(100.0)
        return sim.now

    p = sim.process(proc())
    assert sim.run(p) == 100.0
    assert sim.now == 100.0


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1.0)


def test_run_until_time_stops_between_events():
    sim = Simulator()
    seen = []

    def proc():
        for _ in range(10):
            yield sim.timeout(10.0)
            seen.append(sim.now)

    sim.process(proc())
    sim.run(until=35.0)
    assert seen == [10.0, 20.0, 30.0]
    assert sim.now == 35.0


def test_run_until_past_raises():
    sim = Simulator()
    sim.process(iter_timeout(sim, 50.0))
    sim.run(until=50.0)
    with pytest.raises(SimulationError):
        sim.run(until=10.0)


def iter_timeout(sim, delay):
    yield sim.timeout(delay)


def test_process_return_value_propagates():
    sim = Simulator()

    def child():
        yield sim.timeout(5.0)
        return "payload"

    def parent():
        value = yield sim.process(child())
        return value

    assert sim.run(sim.process(parent())) == "payload"


def test_events_same_time_fifo_order():
    sim = Simulator()
    order = []

    def proc(tag):
        yield sim.timeout(10.0)
        order.append(tag)

    for tag in range(5):
        sim.process(proc(tag))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_event_succeed_delivers_value():
    sim = Simulator()
    ev = sim.event()

    def waiter():
        value = yield ev
        return value

    def firer():
        yield sim.timeout(3.0)
        ev.succeed(42)

    p = sim.process(waiter())
    sim.process(firer())
    assert sim.run(p) == 42


def test_event_double_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_failed_event_raises_in_waiter():
    sim = Simulator()
    ev = sim.event()

    def waiter():
        try:
            yield ev
        except ValueError as exc:
            return f"caught:{exc}"

    def firer():
        yield sim.timeout(1.0)
        ev.fail(ValueError("boom"))

    p = sim.process(waiter())
    sim.process(firer())
    assert sim.run(p) == "caught:boom"


def test_unhandled_process_exception_propagates_from_run():
    sim = Simulator()

    def bad():
        yield sim.timeout(1.0)
        raise RuntimeError("crash")

    sim.process(bad())
    with pytest.raises(RuntimeError, match="crash"):
        sim.run()


def test_joined_process_exception_delivered_to_parent():
    sim = Simulator()

    def bad():
        yield sim.timeout(1.0)
        raise RuntimeError("crash")

    def parent():
        try:
            yield sim.process(bad())
        except RuntimeError:
            return "handled"

    assert sim.run(sim.process(parent())) == "handled"


def test_yield_non_event_is_an_error():
    sim = Simulator()

    def bad():
        yield "not an event"

    sim.process(bad())
    with pytest.raises(SimulationError):
        sim.run()


def _start(sim, generator, detached):
    """Run ``generator`` as a detached (``spawn``) or joinable process."""
    return sim.spawn(generator) if detached else sim.process(generator)


@pytest.mark.parametrize("detached", [True, False])
def test_scalar_yield_is_a_delay(detached):
    sim = Simulator()
    seen = []

    def proc():
        yield 100.0
        yield 50  # ints work too
        seen.append(sim.now)

    _start(sim, proc(), detached)
    sim.run()
    assert seen == [150.0]


@pytest.mark.parametrize("detached", [True, False])
def test_scalar_yield_zero_delay(detached):
    sim = Simulator()
    order = []

    def a():
        yield 0.0
        order.append("a")

    def b():
        yield 0.0
        order.append("b")

    _start(sim, a(), detached)
    _start(sim, b(), detached)
    sim.run()
    assert order == ["a", "b"]


@pytest.mark.parametrize("detached", [True, False])
def test_negative_scalar_yield_is_an_error(detached):
    sim = Simulator()

    def bad():
        yield -1.0

    _start(sim, bad(), detached)
    with pytest.raises(SimulationError, match="negative delay"):
        sim.run()


def test_bool_yield_is_not_a_delay():
    # bool is an int subclass; yielding one is almost certainly a bug, so it
    # takes the non-event error path rather than sleeping 0/1 ns.
    sim = Simulator()

    def bad():
        yield True

    sim.process(bad())
    with pytest.raises(SimulationError):
        sim.run()


@pytest.mark.parametrize("detached", [True, False])
def test_scalar_and_timeout_interleave_identically(detached):
    sim = Simulator()
    order = []

    def scalar():
        yield 10.0
        order.append(("scalar", sim.now))

    def timeout():
        yield sim.timeout(10.0)
        order.append(("timeout", sim.now))

    # call_later orders like a callback hung off a Timeout made at the same
    # point: FIFO by creation, whichever comes first.
    sim.call_later(10.0, lambda _: order.append(("call_later", sim.now)))
    sim.timeout(10.0).callbacks.append(
        lambda _ev: order.append(("timeout_cb", sim.now)))
    sim.call_later(10.0, lambda _: order.append(("call_later", sim.now)))
    _start(sim, scalar(), detached)
    _start(sim, timeout(), detached)
    sim.run()
    # Same timestamp: FIFO by creation order regardless of yield style.
    assert order == [("call_later", 10.0), ("timeout_cb", 10.0),
                     ("call_later", 10.0), ("scalar", 10.0),
                     ("timeout", 10.0)]


def test_spawn_leaves_no_termination_record():
    def body():
        yield 5.0

    scheduled = {}
    for kind in ("spawn", "process"):
        sim = Simulator()
        getattr(sim, kind)(body())
        sim.run()
        scheduled[kind] = sim.events_scheduled
    # Start record + one sleep; a joinable process adds its termination.
    assert scheduled == {"spawn": 2, "process": 3}


def test_spawn_crash_propagates_from_run():
    sim = Simulator()

    def boom():
        yield 1.0
        raise RuntimeError("boom")

    sim.spawn(boom())
    with pytest.raises(RuntimeError, match="boom"):
        sim.run()
    assert sim.now == 1.0


@pytest.mark.parametrize("finished", [False, True])
def test_detached_process_cannot_be_joined(finished):
    sim = Simulator()

    def body():
        yield 1.0

    handle = sim.spawn(body())
    if finished:
        sim.run()

    def waiter():
        try:
            yield handle
        except SimulationError as err:
            return str(err)
        return "joined"

    assert "detached" in sim.run(sim.process(waiter()))
    with pytest.raises(SimulationError, match="detached"):
        sim.run(handle)


@pytest.mark.parametrize("until", ["10", [10.0], object()])
def test_run_until_rejects_non_numbers(until):
    sim = Simulator()
    sim.timeout(5.0)
    with pytest.raises(SimulationError, match="until"):
        sim.run(until=until)


def test_call_later_runs_callback():
    sim = Simulator()
    seen = []
    sim.call_later(25.0, seen.append, "hello")
    sim.run()
    assert sim.now == 25.0
    assert seen == ["hello"]


def test_call_later_rejects_negative_delay():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.call_later(-1.0, lambda _: None)


def test_all_of_waits_for_all():
    sim = Simulator()

    def proc():
        t1 = sim.timeout(20.0, value="a")
        t2 = sim.timeout(10.0, value="b")
        result = yield sim.all_of([t1, t2])
        return result, sim.now

    assert sim.run(sim.process(proc())) == (["a", "b"], 20.0)


def test_all_of_empty_fires_immediately():
    sim = Simulator()

    def proc():
        result = yield sim.all_of([])
        return len(result)

    assert sim.run(sim.process(proc())) == 0


def test_condition_fails_if_member_fails():
    sim = Simulator()
    ev = sim.event()

    def firer():
        yield sim.timeout(1.0)
        ev.fail(KeyError("bad"))

    def proc():
        try:
            yield sim.all_of([ev, sim.timeout(50.0)])
        except KeyError:
            return "failed"

    sim.process(firer())
    assert sim.run(sim.process(proc())) == "failed"


def test_rng_streams_independent_and_deterministic():
    sim1 = Simulator(seed=7)
    sim2 = Simulator(seed=7)
    a1 = [sim1.rng.stream("a").random() for _ in range(5)]
    # Interleave another stream in sim2 before drawing from "a".
    sim2.rng.stream("b").normals(100)
    a2 = [sim2.rng.stream("a").random() for _ in range(5)]
    assert a1 == a2


def test_rng_different_seed_differs():
    assert (
        [Simulator(seed=1).rng.stream("x").random() for _ in range(3)]
        != [Simulator(seed=2).rng.stream("x").random() for _ in range(3)]
    )


def test_peek_reports_next_event_time():
    sim = Simulator()
    sim.timeout(30.0)
    sim.timeout(10.0)
    assert sim.peek() == 10.0
    sim.run()
    assert sim.peek() == float("inf")


def test_step_on_empty_schedule_raises_simulation_error():
    with pytest.raises(SimulationError, match="empty schedule"):
        Simulator().step()


def test_step_consults_an_attached_chooser():
    from repro.verify import ScriptedChooser

    sim = Simulator()
    log = []
    sim.call_later(5.0, log.append, "first")
    sim.call_later(5.0, log.append, "second")
    sim.attach_chooser(ScriptedChooser((1,)))
    sim.step()
    assert log == ["second"]
    sim.step()
    assert log == ["second", "first"]
