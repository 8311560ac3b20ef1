"""Trace utilities."""

from repro.sim import Simulator, Trace
from repro.sim.trace import TraceRecord


def test_disabled_trace_records_nothing():
    trace = Trace(enabled=False)
    trace.emit(1.0, "tx", size=64)
    assert len(trace) == 0


def test_emit_and_select():
    trace = Trace()
    trace.emit(1.0, "tx", size=64)
    trace.emit(2.0, "rx", size=64)
    trace.emit(3.0, "syscall")
    assert len(trace.select()) == 3
    assert len(trace.select(event="tx")) == 1
    assert trace.select(event="syscall")[0].time == 3.0


def test_record_field_access():
    rec = TraceRecord(1.0, "tx", (("size", 64), ("qp", 7)))
    assert rec.get("size") == 64
    assert rec.get("missing", "dflt") == "dflt"
    d = rec.asdict()
    assert d == {"time": 1.0, "event": "tx", "size": 64, "qp": 7}


def test_trace_clear():
    trace = Trace()
    trace.emit(1.0, "b")
    trace.clear()
    assert len(trace) == 0


def test_simulator_owns_a_disabled_trace_by_default():
    sim = Simulator()
    assert sim.trace.enabled is False
    assert sim.trace.scopes == {}
