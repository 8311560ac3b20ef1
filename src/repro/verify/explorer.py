"""Explicit-state DFS over schedule and fault nondeterminism.

The :class:`Explorer` runs one :class:`~repro.verify.scenarios.Scenario`
to completion once per *schedule* — a tuple of choice indices answering,
in order, every choice point the run encounters (same-timestamp dispatch
ties and budgeted drop decisions, in one shared numbering).  Enumeration
is iterative-deepening-free DFS over prefixes:

1. run the empty prefix (the default schedule: every answer 0);
2. from the recorded ``(n, chosen)`` trail, enqueue every untaken sibling
   ``prefix[:d] + (alt,)`` for ``alt`` in ``chosen+1 .. n-1`` at every
   depth ``d`` at or past the forced prefix;
3. pop the next prefix (LIFO, so exploration is depth-first) and repeat
   until the frontier drains or ``max_schedules`` trips.

With dedup enabled, a canonical :func:`~repro.verify.hashing.fingerprint`
of the pre-choice state is taken at every *free* engine-loop choice point
(never at forced-prefix depths — those states were recorded by ancestor
runs — and never at fault choice points, which occur mid-dispatch where a
suspended generator holds unfingerprinted locals).  A repeated fingerprint
means the entire subtree was already explored from an identical state, so
the run is abandoned; siblings discovered before the abandonment are still
expanded.

Any :class:`~repro.errors.ProtocolViolation` (strict monitors are always
attached) or crash becomes a :class:`Counterexample` carrying the exact
schedule.  :meth:`Explorer.replay` re-runs a schedule with tracing on and
writes two artifacts: the Chrome trace of the failing run and a JSON
description of the schedule, so a human can load the interleaving in a
trace viewer and see the violation happen.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.errors import ProtocolViolation, ReproError
from repro.telemetry.export import chrome_trace
from repro.verify.choice import (
    ChoiceFaultInjector,
    ScheduleDivergence,
    ScriptedChooser,
)
from repro.verify.hashing import fingerprint
from repro.verify.monitors import ProtocolMonitor
from repro.verify.scenarios import Scenario, ScenarioSpec


class _Pruned(Exception):
    """Internal: abandon a run whose state was already explored."""


@dataclass
class Counterexample:
    """A schedule that violates an invariant, plus how it violated it."""

    scenario: str
    schedule: tuple[int, ...]
    rule: str
    message: str
    trace_path: str = ""
    schedule_path: str = ""


@dataclass
class ExploreResult:
    scenario: str
    schedules_run: int = 0
    pruned: int = 0
    max_depth: int = 0
    exhausted: bool = False  # frontier drained (vs. max_schedules tripped)
    counterexample: Optional[Counterexample] = None
    #: Distinct drop choice-point labels seen (coverage evidence).
    fault_labels: set[str] = field(default_factory=set)

    @property
    def ok(self) -> bool:
        return self.counterexample is None


_RULE_RE = re.compile(r"\bPROTO\d{3}\b")


def _rule_of(message: str) -> str:
    m = _RULE_RE.search(message)
    return m.group(0) if m else "CRASH"


class Explorer:
    """Exhaustively explore one scenario's schedule/fault tree."""

    def __init__(
        self,
        spec: ScenarioSpec,
        max_schedules: int = 20000,
        dedup: bool = True,
        artifacts_dir: Optional[str] = None,
    ) -> None:
        self.spec = spec
        self.max_schedules = max_schedules
        self.dedup = dedup
        self.artifacts_dir = artifacts_dir

    # -- single run --------------------------------------------------------------

    def _build(self, prefix: tuple[int, ...], seen: Optional[set],
               trace: bool = False) -> tuple[Scenario, ScriptedChooser,
                                             Optional[ChoiceFaultInjector],
                                             ProtocolMonitor]:
        scen = self.spec(trace=trace)
        monitor = ProtocolMonitor(scen.sim, strict=True)
        scen.sim.attach_monitor(monitor)
        scen.prepare()

        injector: Optional[ChoiceFaultInjector] = None
        holder: list[ChoiceFaultInjector] = []

        def observer(depth: int, n: int,
                     front: Sequence[object]) -> None:
            if seen is None or depth < len(prefix):
                return
            fp = fingerprint(scen.sim, scen.qps, scen.cqs, scen.fabric,
                             holder[0] if holder else None)
            if fp in seen:
                raise _Pruned()
            seen.add(fp)

        chooser = ScriptedChooser(prefix, observer=None if trace else observer)
        scen.sim.attach_chooser(chooser)
        if self.spec.drop_budget > 0:
            injector = ChoiceFaultInjector(chooser,
                                           budget=self.spec.drop_budget)
            holder.append(injector)
            scen.fabric.inject_faults(injector)
        return scen, chooser, injector, monitor

    def _run_one(
        self, prefix: tuple[int, ...], seen: Optional[set],
        result: ExploreResult,
    ) -> tuple[ScriptedChooser, Optional[Counterexample], bool]:
        scen, chooser, injector, monitor = self._build(prefix, seen)
        pruned = False
        cex: Optional[Counterexample] = None
        try:
            scen.go()
            monitor.finalize()
        except _Pruned:
            pruned = True
        except ScheduleDivergence:
            raise
        except ProtocolViolation as exc:
            cex = Counterexample(
                scenario=self.spec.name, schedule=chooser.chosen(),
                rule=_rule_of(str(exc)), message=str(exc),
            )
        except ReproError as exc:
            cex = Counterexample(
                scenario=self.spec.name, schedule=chooser.chosen(),
                rule="CRASH", message=f"{type(exc).__name__}: {exc}",
            )
        if injector is not None and injector.drops:
            result.fault_labels.add(f"drops={injector.drops}")
        return chooser, cex, pruned

    # -- exploration -------------------------------------------------------------

    def explore(self) -> ExploreResult:
        """DFS the schedule tree; stop at the first counterexample."""
        result = ExploreResult(scenario=self.spec.name)
        seen: Optional[set] = set() if self.dedup else None
        frontier: list[tuple[int, ...]] = [()]
        while frontier and result.schedules_run < self.max_schedules:
            prefix = frontier.pop()
            chooser, cex, pruned = self._run_one(prefix, seen, result)
            result.schedules_run += 1
            result.pruned += 1 if pruned else 0
            trail = chooser.trail
            result.max_depth = max(result.max_depth, len(trail))
            # Enqueue untaken siblings at every free depth this run reached.
            for d in range(len(prefix), len(trail)):
                n, chosen = trail[d]
                if n < 2 or chosen + 1 >= n:
                    continue
                base = tuple(c for (_m, c) in trail[:d])
                for alt in range(chosen + 1, n):
                    frontier.append(base + (alt,))
            if cex is not None:
                if self.artifacts_dir:
                    self.replay(cex)
                result.counterexample = cex
                return result
        result.exhausted = not frontier
        return result

    # -- counterexample replay ---------------------------------------------------

    def replay(self, cex: Counterexample) -> None:
        """Re-run a counterexample schedule with tracing; write artifacts."""
        assert self.artifacts_dir is not None
        os.makedirs(self.artifacts_dir, exist_ok=True)
        scen, chooser, _injector, monitor = self._build(
            cex.schedule, seen=None, trace=True
        )
        violation = ""
        try:
            scen.go()
            monitor.finalize()
        except ReproError as exc:
            violation = str(exc)
        stem = os.path.join(self.artifacts_dir,
                            f"counterexample_{self.spec.name}")
        cex.trace_path = stem + ".trace.json"
        with open(cex.trace_path, "w", encoding="utf-8") as fh:
            json.dump(chrome_trace(scen.sim.trace), fh)
        cex.schedule_path = stem + ".schedule.json"
        with open(cex.schedule_path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "scenario": cex.scenario,
                    "schedule": list(cex.schedule),
                    "rule": cex.rule,
                    "message": cex.message,
                    "replay_violation": violation,
                    "choice_points": [
                        {"depth": i, "arity": n, "chosen": c}
                        for i, (n, c) in enumerate(chooser.trail)
                    ],
                },
                fh, indent=2,
            )
