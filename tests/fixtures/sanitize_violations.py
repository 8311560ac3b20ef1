"""Deliberate determinism violations — one per SIM lint rule.

This module is *never imported*: it exists so ``tests/test_sanitize_lint.py``
can assert that each rule of :mod:`repro.sanitize.lint` reports exactly the
violation seeded here (and nothing else).  The ``fixtures`` directory is
excluded from the repo-wide lint (see DEFAULT_EXCLUDES) and from ruff.

The tests lint this file under a virtual ``src/repro/sim/...`` path so the
path-scoped rules (SIM002/SIM004/SIM005/SIM006) apply.
"""

import random  # SIM001: global RNG module


def read_wallclock():
    import time

    return time.perf_counter()  # SIM002: wall-clock read in simulated code


def drain_in_set_order(events, schedule):
    chosen = set(events)
    for ev in chosen:  # SIM003: hash-order iteration feeds scheduling
        schedule(ev)


def completed_exactly_at(sim, deadline_ns):
    return sim.now == deadline_ns  # SIM004: float == on simulated time


def count_op(trace):
    trace.scope("host0").counter("dataplane.ops").inc()  # SIM005: no enabled-guard branch


class HotPathRecord:  # SIM006: per-event class without __slots__
    def __init__(self, payload):
        self.payload = payload
