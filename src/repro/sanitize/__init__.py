"""Determinism correctness tooling: static lint + runtime sanitizers.

Two halves, one finding model (see DESIGN.md "Determinism contract &
sanitizers"):

- :mod:`repro.sanitize.lint` — the SIM001–SIM006 AST rulepack over
  ``src/``, ``benchmarks/``, ``tests/`` and ``tools/`` (CLI:
  ``repro sanitize lint``).
- :mod:`repro.sanitize.runtime` — the SIM101–SIM103 runtime checkers
  (same-timestamp races, RNG stream discipline, time travel), enabled by
  ``REPRO_SANITIZE=1`` or ``Simulator(sanitize=True)``.

Each half loads on first access: a sanitized run never imports the
lint rulepack, and an unsanitized one imports neither.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro import lazy_exports

if TYPE_CHECKING:  # pragma: no cover
    from repro.sanitize.findings import RULES, Finding, format_json, format_text
    from repro.sanitize.lint import lint_source, run_lint
    from repro.sanitize.runtime import (
        RuntimeSanitizer,
        drain_global_findings,
        env_sanitize,
    )

__getattr__ = lazy_exports(__name__, {
    **dict.fromkeys(("RULES", "Finding", "format_json", "format_text"),
                    "findings"),
    **dict.fromkeys(("lint_source", "run_lint"), "lint"),
    **dict.fromkeys(("RuntimeSanitizer", "drain_global_findings",
                     "env_sanitize"), "runtime"),
})

__all__ = [
    "RULES",
    "Finding",
    "RuntimeSanitizer",
    "drain_global_findings",
    "env_sanitize",
    "findings_of",
    "format_json",
    "format_text",
    "lint_source",
    "run_lint",
]


def findings_of(sim) -> list[Finding]:
    """Runtime findings recorded so far by ``sim`` (closes the open bucket)."""
    san = sim._sanitize
    if san is None:
        return []
    san.finish()
    return list(san.findings)
