"""Protocol verifier: model checker, invariant monitors, lint rulepack.

Three layers over the same RC protocol contract:

- :mod:`repro.verify.explorer` — a small-scope explicit-state model
  checker that exhausts schedule and fault nondeterminism over the tiny
  worlds in :mod:`repro.verify.scenarios`;
- :mod:`repro.verify.monitors` — runtime invariant monitors (PROTO101–
  PROTO107) attachable to any simulation;
- the PROTO001–PROTO004 static rules in :mod:`repro.sanitize.lint`.

``repro verify explore|monitors|lint`` is the CLI surface;
:mod:`repro.verify.mutants` holds the seeded bugs that prove the stack
actually catches violations.
"""

from repro.verify.choice import (
    Chooser,
    ChoiceFaultInjector,
    DROPPABLE_KINDS,
    ScheduleDivergence,
    ScriptedChooser,
)
from repro.verify.explorer import (
    Counterexample,
    Explorer,
    ExploreResult,
)
from repro.verify.hashing import fingerprint
from repro.verify.monitors import ProtocolMonitor
from repro.verify.mutants import MUTANTS, Mutant
from repro.verify.scenarios import SCENARIOS, Scenario, ScenarioSpec

__all__ = [
    "Chooser",
    "ChoiceFaultInjector",
    "Counterexample",
    "DROPPABLE_KINDS",
    "Explorer",
    "ExploreResult",
    "MUTANTS",
    "Mutant",
    "ProtocolMonitor",
    "SCENARIOS",
    "Scenario",
    "ScenarioSpec",
    "ScheduleDivergence",
    "ScriptedChooser",
    "fingerprint",
]
