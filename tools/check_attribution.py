#!/usr/bin/env python3
"""CI gate: recorded stage-attribution baselines must reproduce exactly.

``results/BENCH_attribution.json`` holds per-stage blame tables (queueing
vs service nanoseconds) for a pinned slice of every figure's sweep.
This tool is its only writer (``--update``); nothing else a CI job runs
touches it, so the gate always compares against the committed record.
Each entry embeds the full probe spec, so this gate re-runs every
measurement from scratch and fails unless:

- stage totals (``total_ns``/``queue_ns``/``service_ns`` per stage) match
  the recorded baseline — bit-exact for deterministic configs
  (``spec.exact``), within ``--rel-tol`` for the jittered system-A probes
  (whose lognormal syscall jitter goes through libm and may differ in the
  last bits across platforms);
- every op in every probe is at least ``--min-explained`` explained by
  named stage time (the residual accounting contract);
- no probe's trace dropped records (attribution over a truncated ring is
  never acceptable).

The probes use pinned iteration counts independent of
``REPRO_BENCH_SCALE``, so this gate is equally exact at smoke scale.
Run with ``--update`` to regenerate the baseline file instead of gating.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.telemetry.attribution import ATTRIBUTION_PROBES, ProbeSpec, run_probe

DEFAULT_PATH = Path("results") / "BENCH_attribution.json"

#: Stage-total keys compared between baseline and recomputation.  The
#: distributional keys (p50/p99) are derived from the same durations, but
#: comparing the totals keeps the exact check independent of percentile
#: interpolation details.
_STAGE_KEYS = ("count", "total_ns", "queue_ns", "service_ns")


def _close(a: float, b: float, rel_tol: float) -> bool:
    if a == b:
        return True
    scale = max(abs(a), abs(b))
    return scale > 0 and abs(a - b) / scale <= rel_tol


def _compare(baseline: dict, fresh: dict, exact: bool,
             rel_tol: float) -> list[str]:
    problems = []
    for key in ("ops", "total_latency_ns", "residual_ns"):
        got, want = fresh[key], baseline[key]
        ok = got == want if exact else _close(got, want, rel_tol)
        if not ok:
            problems.append(f"{key}: recorded {want!r}, recomputed {got!r}")
    base_stages, new_stages = baseline["stages"], fresh["stages"]
    for name in sorted(set(base_stages) | set(new_stages)):
        if name not in new_stages:
            problems.append(f"stage {name}: in baseline, not recomputed")
            continue
        if name not in base_stages:
            problems.append(f"stage {name}: recomputed, not in baseline")
            continue
        for key in _STAGE_KEYS:
            got, want = new_stages[name][key], base_stages[name][key]
            ok = got == want if exact else _close(got, want, rel_tol)
            if not ok:
                problems.append(
                    f"stage {name}.{key}: recorded {want!r}, "
                    f"recomputed {got!r}")
    return problems


def run_gate(path: Path, figures: list[str], rel_tol: float,
             min_explained: float, update: bool) -> int:
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        if not update:
            print(f"cannot read {path}: {exc}", file=sys.stderr)
            return 1
        data = {}
    probes = data.get("probes", {}) if isinstance(data, dict) else {}

    failures = 0
    fresh_entries: dict[str, dict] = {}
    for figure in figures:
        for spec in ATTRIBUTION_PROBES[figure]:
            t0 = time.perf_counter()
            entry = run_probe(spec)
            wall = time.perf_counter() - t0
            fresh_entries[spec.key] = entry

            problems = []
            if entry["dropped"]:
                problems.append(f"trace dropped {entry['dropped']} records")
            if entry["explained_min"] < min_explained:
                problems.append(
                    f"only {entry['explained_min'] * 100:.1f}% of some op "
                    f"explained (< {min_explained * 100:.0f}%)")
            baseline = probes.get(spec.key)
            if not update:
                if baseline is None:
                    problems.append("no recorded baseline (run --update)")
                else:
                    recorded = ProbeSpec.fromdict(baseline["spec"])
                    if recorded != spec:
                        problems.append("recorded spec differs from the "
                                        "pinned probe table")
                    problems += _compare(baseline, entry, spec.exact, rel_tol)

            tag = "FAIL" if problems else "ok"
            mode = "exact" if spec.exact else f"tol={rel_tol:g}"
            print(f"{tag:4s} {spec.key:28s} ops={entry['ops']:<4d} "
                  f"explained>={entry['explained_min'] * 100:5.1f}% "
                  f"{mode:9s} wall={wall:.2f}s"
                  + ("" if not problems else
                     "\n     <- " + "\n     <- ".join(problems)))
            failures += bool(problems)

    if update and not failures:
        data = data if isinstance(data, dict) else {}
        data.setdefault("probes", {}).update(fresh_entries)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        print(f"\nwrote {len(fresh_entries)} probe baseline(s) -> {path}")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--path", type=Path, default=DEFAULT_PATH,
                        help=f"baseline JSON (default {DEFAULT_PATH})")
    parser.add_argument("--figures", nargs="+",
                        choices=sorted(ATTRIBUTION_PROBES),
                        default=sorted(ATTRIBUTION_PROBES),
                        help="figures to gate (default: all)")
    parser.add_argument("--rel-tol", type=float, default=0.05,
                        help="relative tolerance for non-exact (jittered) "
                             "probes (default 0.05)")
    parser.add_argument("--min-explained", type=float, default=0.95,
                        help="minimum explained fraction per op (default 0.95)")
    parser.add_argument("--update", action="store_true",
                        help="write recomputed baselines instead of gating")
    args = parser.parse_args(argv)
    failures = run_gate(args.path, args.figures, args.rel_tol,
                        args.min_explained, args.update)
    if failures:
        print(f"\n{failures} probe(s) failed the attribution gate",
              file=sys.stderr)
        return 1
    if not args.update:
        print("\nattribution gate: all stage baselines reproduced")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
