"""The SIM101-SIM103 runtime sanitizers: races, RNG discipline, time travel."""

import heapq

import pytest

from repro.errors import SimulationError
from repro.sanitize import drain_global_findings, findings_of
from repro.sanitize.runtime import GLOBAL_FINDINGS, env_sanitize
from repro.sim import Resource, Simulator, Store
from repro.sim.engine import _describe_event
from repro.sim.fastforward import _record_kind
from repro.verbs.cq import CompletionQueue
from repro.verify import Chooser


@pytest.fixture(autouse=True)
def _clean_global_findings():
    drain_global_findings()
    yield
    drain_global_findings()


def _rules(findings):
    return [f.rule for f in findings]


# -- activation -------------------------------------------------------------------


def test_sanitizer_off_by_default(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    assert Simulator()._sanitize is None


def test_env_var_activates(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    assert env_sanitize()
    sim = Simulator()
    assert sim._sanitize is not None
    # Explicit argument wins over the environment.
    assert Simulator(sanitize=False)._sanitize is None
    monkeypatch.setenv("REPRO_SANITIZE", "0")
    assert not env_sanitize()
    assert Simulator()._sanitize is None


def test_findings_of_unsanitized_sim_is_empty():
    assert findings_of(Simulator()) == []


# -- SIM101: same-timestamp races -------------------------------------------------


def _two_requesters(stagger=0.0, chooser=None):
    sim = Simulator(sanitize=True)
    sim.attach_chooser(chooser)
    core = Resource(sim, capacity=1, name="core0")

    def worker(delay):
        yield sim.timeout(delay)
        req = core.request()
        yield req
        yield sim.timeout(5.0)
        core.release(req)

    sim.process(worker(10.0), name="proc_a")
    sim.process(worker(10.0 + stagger), name="proc_b")
    sim.run()
    return findings_of(sim)


def test_resource_race_at_same_timestamp_names_both_events():
    findings = _two_requesters(stagger=0.0)
    assert _rules(findings) == ["SIM101"]
    msg = findings[0].message
    assert "resource 'core0'" in msg
    assert "t=10.0" in msg
    assert "resume:proc_a" in msg and "resume:proc_b" in msg
    assert "`request`" in msg
    assert findings[0].source == "runtime"


def test_staggered_requests_are_clean():
    assert _two_requesters(stagger=1.0) == []


def test_racing_findings_reach_the_global_registry():
    _two_requesters(stagger=0.0)
    assert _rules(drain_global_findings()) == ["SIM101"]
    # ...and draining really clears it.
    assert GLOBAL_FINDINGS == []


def test_store_getter_race_flagged():
    sim = Simulator(sanitize=True)
    queue = Store(sim, name="cq0")

    def consumer():
        yield sim.timeout(7.0)
        yield queue.get()

    sim.process(consumer(), name="poll_a")
    sim.process(consumer(), name="poll_b")
    sim.call_later(20.0, lambda _: queue.put("cqe1"))
    sim.call_later(21.0, lambda _: queue.put("cqe2"))
    sim.run()
    findings = findings_of(sim)
    assert _rules(findings) == ["SIM101"]
    assert "store 'cq0'" in findings[0].message
    assert "`get`" in findings[0].message


def test_producer_consumer_handoff_is_not_a_race():
    # A put serving a parked get is cross-kind: the outcome commutes.
    sim = Simulator(sanitize=True)
    queue = Store(sim, name="wq0")

    def consumer():
        item = yield queue.get()
        assert item == "wqe"

    sim.process(consumer(), name="poller")
    sim.call_later(10.0, lambda _: queue.put("wqe"))
    sim.run()
    assert findings_of(sim) == []


def test_chooser_keeps_the_race_detector_on():
    # Chooser and sanitizer share one instrumented loop: attaching the
    # model checker's hook must not switch the race detector off.
    assert _rules(_two_requesters(stagger=0.0, chooser=Chooser())) == ["SIM101"]


# -- SIM102: rng stream discipline ------------------------------------------------


def test_stream_shared_by_two_components_flagged():
    sim = Simulator(seed=1, sanitize=True)

    def comp_a(_):
        sim.rng.stream("shared").integers(0, 10)

    def comp_b(_):
        sim.rng.stream("shared").integers(0, 10)

    sim.call_later(1.0, comp_a)
    sim.call_later(2.0, comp_b)
    sim.run()
    findings = findings_of(sim)
    assert _rules(findings) == ["SIM102"]
    msg = findings[0].message
    assert "'shared'" in msg and "comp_a" in msg and "comp_b" in msg


def test_one_stream_per_component_is_clean():
    sim = Simulator(seed=1, sanitize=True)

    def comp(_):
        sim.rng.stream("mine").integers(0, 10)

    sim.call_later(1.0, comp)
    sim.call_later(2.0, comp)
    sim.run()
    assert findings_of(sim) == []


def test_draw_outside_dispatch_flagged():
    sim = Simulator(seed=1, sanitize=True)
    sim.rng.stream("setup").integers(0, 10)  # setup draws are legal
    sim.call_later(1.0, lambda _: None)
    sim.run()
    sim.rng.stream("setup").integers(0, 10)  # ...post-run draws are not
    findings = findings_of(sim)
    assert _rules(findings) == ["SIM102"]
    assert "outside engine execution" in findings[0].message


def test_step_dispatch_is_inside_the_sanitizer_window():
    sim = Simulator(seed=1, sanitize=True)
    sim.call_later(1.0, lambda _: None)
    sim.call_later(2.0, lambda _: sim.rng.stream("late").integers(0, 10))
    sim.run(until=1.5)
    sim.step()  # the draw happens inside this dispatch, so it is legal
    assert findings_of(sim) == []


def test_sanitized_draws_match_unsanitized_draws():
    plain = Simulator(seed=42).rng.stream("flow")
    wrapped = Simulator(seed=42, sanitize=True).rng.stream("flow")
    assert list(plain.integers(0, 1 << 30, size=8)) \
        == list(wrapped.integers(0, 1 << 30, size=8))


# -- SIM103: time travel ----------------------------------------------------------


def test_past_dispatch_recorded_before_engine_raises():
    sim = Simulator(sanitize=True)

    def plant(_):
        heapq.heappush(sim._queue, (5.0, 1, sim._seq, lambda _a: None, None))
        sim._seq += 1

    sim.call_later(10.0, plant)
    with pytest.raises(SimulationError):
        sim.run()
    findings = findings_of(sim)
    assert _rules(findings) == ["SIM103"]
    assert "t=5.0" in findings[0].message
    assert "t=10.0" in findings[0].message


# -- record tags ------------------------------------------------------------------


def _stage(_arg):
    pass


def _tagged_schedule(sanitize):
    """One pending record of each kind: call_soon, a CQ wake, call_later
    and a scalar sleep, in that heap order."""
    sim = Simulator(sanitize=sanitize)
    wake = CompletionQueue(sim, name="cq0").wait_nonempty()

    def sleeper():
        yield 40.0

    def waiter():
        yield wake

    sim.spawn(sleeper(), name="sleeper")
    sim.spawn(waiter(), name="waiter")
    sim.run(until=1.0)
    sim.call_later(30.0, _stage)
    sim.call_soon(_stage)
    wake.succeed()
    return sim


TAGS = ["call_later:_stage", "Event:cq0.nonempty->resume:waiter",
        "call_later:_stage", "resume:sleeper"]


def test_record_tags_are_stable():
    """Race reports, explore fingerprints and fast-forward signatures all
    name heap records through one heap signature; these names are part of
    their contracts."""
    sim = _tagged_schedule(sanitize=False)
    assert sim.heap_signature(_describe_event) == (
        (0.0, 0, TAGS[0]), (0.0, 1, TAGS[1]),
        (30.0, 1, TAGS[2]), (39.0, 1, TAGS[3]))
    # Fast-forward keeps one coarse tag per callback: a finer one would
    # change which boundaries match.
    assert sim.heap_signature(_record_kind) == (
        (0.0, 0, "_Callback"), (0.0, 1, "Event"),
        (30.0, 1, "_Callback"), (39.0, 1, "_Resume"))

    sim = _tagged_schedule(sanitize=True)
    seen = []
    for _ in TAGS:
        sim.step()
        seen.append(sim._sanitize._dispatch_desc)
    assert seen == TAGS


# -- determinism of the sanitizers themselves -------------------------------------


def test_sanitized_run_is_bit_identical_to_unsanitized():
    def measure(sanitize):
        sim = Simulator(seed=7, sanitize=sanitize)
        core = Resource(sim, capacity=2, name="core")
        queue = Store(sim, name="q")
        done = []

        def producer():
            rng = sim.rng.stream("producer")
            for i in range(50):
                yield sim.timeout(float(rng.integers(1, 9)))
                yield queue.put(i)

        def consumer():
            rng = sim.rng.stream("consumer")
            while len(done) < 50:
                item = yield queue.get()
                req = core.request()
                yield req
                yield sim.timeout(float(rng.integers(1, 5)))
                core.release(req)
                done.append((sim.now, item))

        sim.process(producer(), name="prod")
        sim.process(consumer(), name="cons")
        sim.run()
        return done

    assert measure(False) == measure(True)
