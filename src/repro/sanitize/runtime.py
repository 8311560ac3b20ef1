"""Runtime sanitizers: same-timestamp races, RNG discipline, time travel.

Enabled per-simulator with ``Simulator(sanitize=True)`` or globally with
``REPRO_SANITIZE=1`` in the environment.  When enabled the engine runs its
one instrumented dispatch loop instead of the hot loop (the same loop a
model-checking chooser uses; the two hooks compose, so a chooser-driven
schedule is sanitized too) and the resource/store primitives report their
touches here; when disabled every hook site costs a single ``is None``
branch and the hot loop is byte-for-byte the optimized one.

The three checks (rule ids continue the SIM lint pack):

- **SIM101 — same-timestamp race.**  Touches of one resource/store (and
  therefore of the QP/CQ work queues built on them) are bucketed per
  ``(now, priority)``.  If, inside one bucket, two *different* event
  dispatches contend for the same object — one wins a slot/item inline
  while another parks, or two park on the same queue — then the winner
  is decided by heap-insertion ``seq``.  That is deterministic, but it is
  exactly the fragile coupling the determinism contract exists to keep
  out of model code: reordering two unrelated ``put``/``request`` calls
  in a refactor silently changes results.  Both event descriptions are reported.
- **SIM102 — RNG stream discipline.**  Every named stream must be drawn
  by a single component (call site); a stream shared by two components
  couples their draw sequences, so adding a draw in one silently perturbs
  the other.  Draws are also only legal during engine dispatch or initial
  setup — drawing after/between ``run()`` calls perturbs streams outside
  simulated causality.
- **SIM103 — time travel.**  An event popping with a timestamp below the
  current clock means the heap invariant broke; the sanitizer records the
  pair before the engine raises.

Observation only: the sanitizer never draws randomness, schedules events
or mutates simulation state, so a sanitizers-on run is bit-identical to a
sanitizers-off run (asserted by ``tests/test_golden_determinism.py``).
"""

from __future__ import annotations

import os
import sys
from typing import TYPE_CHECKING

from repro.sanitize.findings import Finding
from repro.sim.engine import _describe_event, env_flag

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    import numpy as np

    from repro.sim.engine import Simulator

#: Findings from every sanitized simulator in the process, in creation
#: order.  Lets tests and benchmarks assert cleanliness of runs whose
#: simulators live inside library calls (e.g. the perftest runner).
GLOBAL_FINDINGS: list[Finding] = []


def env_sanitize() -> bool:
    """Is ``REPRO_SANITIZE`` switched on in the environment?"""
    return env_flag("REPRO_SANITIZE")


def drain_global_findings() -> list[Finding]:
    """Return and clear the process-wide finding list."""
    out = list(GLOBAL_FINDINGS)
    GLOBAL_FINDINGS.clear()
    return out


class _Touch:
    __slots__ = ("dispatch", "desc", "op", "contended")

    def __init__(self, dispatch: int, desc: str, op: str, contended: bool):
        self.dispatch = dispatch
        self.desc = desc
        self.op = op
        self.contended = contended


class _StreamProxy:
    """Forwarding wrapper around one ``np.random.Generator`` stream.

    Attribute access returns a thin closure that notifies the sanitizer
    and then calls the real method, so draw *values* are untouched.
    """

    __slots__ = ("_gen", "_name", "_san")

    def __init__(self, gen: "np.random.Generator", name: str,
                 san: "RuntimeSanitizer"):
        self._gen = gen
        self._name = name
        self._san = san

    def __getattr__(self, attr: str):
        value = getattr(self._gen, attr)
        if not callable(value):
            return value
        san = self._san
        name = self._name

        def _recorded(*args, _m=value, **kwargs):
            san.note_draw(name)
            return _m(*args, **kwargs)

        return _recorded

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<sanitized {self._gen!r} stream={self._name!r}>"


class RuntimeSanitizer:
    """Per-simulator recorder for the SIM101/102/103 checks."""

    __slots__ = (
        "sim", "findings", "in_dispatch", "run_started",
        "_bucket_key", "_touches", "_dispatch_id", "_dispatch_desc",
        "_stream_owner", "_reported_streams",
    )

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.findings: list[Finding] = []
        self.in_dispatch = False
        self.run_started = False
        self._bucket_key: tuple[float, int] = (-1.0, -1)
        #: object id -> (label, [touches]) for the current bucket.
        self._touches: dict[int, tuple[str, list[_Touch]]] = {}
        self._dispatch_id = 0
        self._dispatch_desc = "<setup>"
        #: stream name -> owning component ("file:qualname").
        self._stream_owner: dict[str, str] = {}
        self._reported_streams: set[tuple[str, str]] = set()

    def _emit(self, rule: str, message: str, hint: str = "") -> None:
        finding = Finding(rule=rule, path="<runtime>", line=0,
                          message=message, hint=hint, source="runtime")
        self.findings.append(finding)
        GLOBAL_FINDINGS.append(finding)

    # -- engine hooks ----------------------------------------------------------

    def on_dispatch(self, when: float, priority: int, fn: object,
                    arg: object) -> None:
        """Called by the instrumented loop before each record executes."""
        if when < self.sim._now:
            self._emit(
                "SIM103",
                f"event {_describe_event(fn, arg)} dispatched at t={when} "
                f"while the clock is at t={self.sim._now}",
                "something pushed a heap entry into the past",
            )
        key = (when, priority)
        if key != self._bucket_key:
            self._flush_bucket()
            self._bucket_key = key
        self._dispatch_id += 1
        self._dispatch_desc = _describe_event(fn, arg)

    def begin_run(self) -> None:
        self.run_started = True

    def finish(self) -> None:
        """Close the open bucket (end of a ``run()``)."""
        self._flush_bucket()
        self._bucket_key = (-1.0, -1)
        self._dispatch_desc = "<between runs>"

    # -- touch recording -------------------------------------------------------

    def note_touch(self, obj: object, label: str, op: str, contended: bool) -> None:
        """Record one resource/store touch by the current dispatch."""
        entry = self._touches.get(id(obj))
        if entry is None:
            entry = self._touches[id(obj)] = (label, [])
        entry[1].append(
            _Touch(self._dispatch_id, self._dispatch_desc, op, contended)
        )

    def _flush_bucket(self) -> None:
        touches = self._touches
        if not touches:
            return
        when, priority = self._bucket_key
        for label, tlist in touches.values():
            if len(tlist) < 2:
                continue
            contended = [t for t in tlist if t.contended]
            if not contended:
                continue
            # A race needs a second, *different* dispatch doing the *same
            # kind* of touch: two requesters, two getters, two putters.
            # Cross-kind pairs (producer/consumer puts serving a parked
            # get, a release handing a slot to the FIFO head) commute —
            # the bucket's outcome is the same either way.
            for t in contended:
                other = next(
                    (o for o in tlist
                     if o.dispatch != t.dispatch and o.op == t.op), None
                )
                if other is None:
                    continue
                first, second = sorted((t, other), key=lambda x: x.dispatch)
                self._emit(
                    "SIM101",
                    f"same-timestamp race on {label} at t={when} "
                    f"(priority {priority}): [{first.desc}] did "
                    f"`{first.op}` and [{second.desc}] did `{second.op}`; "
                    f"the outcome depends on heap-insertion seq",
                    "separate the contenders in time or priority, or make "
                    "the ordering explicit through one queue",
                )
                break  # one finding per object per bucket
        touches.clear()

    # -- rng hooks -------------------------------------------------------------

    def wrap_stream(self, name: str, gen: "np.random.Generator") -> _StreamProxy:
        return _StreamProxy(gen, name, self)

    def note_draw(self, name: str) -> None:
        """Record one draw from stream ``name`` by the calling component."""
        frame = sys._getframe(2)  # note_draw <- _recorded <- component
        here = os.path.dirname(os.path.abspath(__file__))
        rng_impl = os.path.join(os.path.dirname(here), "sim", "rng.py")
        while frame is not None and (
            frame.f_code.co_filename.startswith(here)
            or frame.f_code.co_filename == rng_impl
        ):
            frame = frame.f_back
        if frame is None:  # pragma: no cover - defensive
            component = "<unknown>"
        else:
            code = frame.f_code
            component = f"{os.path.basename(code.co_filename)}:{code.co_qualname}"

        owner = self._stream_owner.get(name)
        if owner is None:
            self._stream_owner[name] = component
        elif owner != component and (name, component) not in self._reported_streams:
            self._reported_streams.add((name, component))
            self._emit(
                "SIM102",
                f"rng stream {name!r} drawn by two components: first "
                f"{owner}, now {component}",
                "give each component its own named stream",
            )
        if self.run_started and not self.in_dispatch and \
                ("<outside>", name) not in self._reported_streams:
            self._reported_streams.add(("<outside>", name))
            self._emit(
                "SIM102",
                f"rng stream {name!r} drawn outside engine execution "
                f"(component {component})",
                "only draw while the simulator is dispatching events",
            )
