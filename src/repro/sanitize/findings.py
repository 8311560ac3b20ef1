"""The shared finding model for lint and runtime sanitizers.

Both halves of :mod:`repro.sanitize` — the AST linter and the runtime
race/RNG checkers — report problems as :class:`Finding` records so the CLI,
CI and tests consume one shape: human-readable text lines and
machine-readable JSON objects carrying ``file:line``, the rule id and a fix
hint.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Iterable

#: rule id -> (pragma name, one-line summary).  SIM0xx are static (lint)
#: rules, SIM1xx are runtime sanitizer rules (no pragma: fix the code).
RULES: dict[str, tuple[str, str]] = {
    "SIM000": ("", "malformed, reason-less or unused sanitizer pragma"),
    "SIM001": ("allow-random", "global RNG use outside repro.sim.rng"),
    "SIM002": ("allow-wallclock", "wall-clock read inside src/repro"),
    "SIM003": ("allow-set-iter", "iteration order taken from an unordered set"),
    "SIM004": ("allow-float-eq", "float ==/!= on simulated-time expressions"),
    "SIM005": ("allow-unguarded-hook", "trace/fault hook not behind an enabled-guard"),
    "SIM006": ("allow-no-slots", "hot-path sim class missing __slots__"),
    "SIM101": ("", "same-timestamp outcome depends on heap-insertion seq"),
    "SIM102": ("", "rng stream-discipline violation"),
    "SIM103": ("", "event dispatched before the current simulated time"),
    # PROTO0xx are protocol-aware static (lint) rules; PROTO1xx are the
    # runtime invariant monitors in repro.verify.monitors (no pragma:
    # a protocol violation is a bug, fix the code).
    "PROTO001": ("allow-qp-state-write", "QP state assigned outside QueuePair.modify()"),
    "PROTO002": ("allow-raw-psn-arith", "raw arithmetic/compare on a PSN bypassing the Psn helper"),
    "PROTO003": ("allow-no-cqe-path", "completion-consuming function with no CQE-posting call"),
    "PROTO004": ("allow-unguarded-monitor", "protocol-monitor hook not behind an `is None` guard"),
    "PROTO101": ("", "completion discipline: signaled WR must complete exactly once"),
    "PROTO102": ("", "responder PSN discipline: expected_psn rewound or ACK for unaccepted PSN"),
    "PROTO103": ("", "QP state machine: illegal transition or out-of-modify() state write"),
    "PROTO104": ("", "error flush: flush CQE before ERROR or out of SQ order"),
    "PROTO105": ("", "retransmission bound: retries exceed retry_cnt/rnr_retries"),
    "PROTO106": ("", "atomic exactly-once: replayed response differs from original value"),
    "PROTO107": ("", "SQ occupancy out of [0, sq_depth]"),
}

#: Rule-id prefixes of the protocol-aware static rules (``repro verify lint``).
PROTO_LINT_RULES = tuple(r for r in RULES if r.startswith("PROTO0"))

#: pragma name -> rule id it suppresses.
PRAGMAS: dict[str, str] = {
    pragma: rule for rule, (pragma, _summary) in RULES.items() if pragma
}


@dataclass(frozen=True)
class Finding:
    """One violation of the determinism contract."""

    rule: str
    path: str
    line: int
    message: str
    hint: str = ""
    source: str = "lint"  # "lint" | "runtime"

    def text(self) -> str:
        out = f"{self.path}:{self.line}: {self.rule} {self.message}"
        if self.hint:
            out += f" [hint: {self.hint}]"
        return out

    def asdict(self) -> dict[str, object]:
        return asdict(self)


def sort_key(finding: Finding) -> tuple[str, int, str]:
    return (finding.path, finding.line, finding.rule)


def format_text(findings: Iterable[Finding]) -> str:
    """Human-readable report, one line per finding plus a summary line."""
    items = sorted(findings, key=sort_key)
    if not items:
        return "repro.sanitize: clean (0 findings)"
    lines = [f.text() for f in items]
    by_rule: dict[str, int] = {}
    for f in items:
        by_rule[f.rule] = by_rule.get(f.rule, 0) + 1
    summary = ", ".join(f"{rule}={n}" for rule, n in sorted(by_rule.items()))
    lines.append(f"repro.sanitize: {len(items)} finding(s) ({summary})")
    return "\n".join(lines)


def format_json(findings: Iterable[Finding]) -> str:
    """Machine-readable report: a JSON object with a ``findings`` array."""
    items = sorted(findings, key=sort_key)
    return json.dumps(
        {"findings": [f.asdict() for f in items], "count": len(items)},
        indent=2,
        sort_keys=True,
    )
