#!/usr/bin/env python3
"""CI gate: the figure-suite wall-clock record must hold its budget.

Reads the JSON record ``repro.bench_support.figure_bench`` writes to
``REPRO_BENCH_JSON`` (each figure keyed by ``base`` / ``ff`` mode, plus a
cross-figure summary) and fails unless:

- the recorded base-vs-fast-forward ``speedup`` is at least
  ``--min-speedup`` (when the file holds at least one paired figure);
- the paired fast-forward wall-clock total stays under ``--max-ff-wall``
  seconds, when given;
- every figure named via ``--require-paired`` has both a base and a
  fast-forward measurement recorded.

CI runs it on a fresh base/fast-forward pair of one figure at reduced
scale, which guards against wall-clock regressions on the runner itself.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def check(path: Path, min_speedup: float, max_ff_wall: float | None,
          require_paired: list[str]) -> list[str]:
    try:
        data = json.loads(path.read_text())
    except OSError as exc:
        return [f"cannot read {path}: {exc}"]
    except ValueError as exc:
        return [f"{path} is not valid JSON: {exc}"]

    problems = []
    benchmarks = data.get("benchmarks", {})
    summary = data.get("summary", {})
    paired = summary.get("paired_benchmarks", [])
    mismatched = summary.get("mismatched_benchmarks", [])

    for name in require_paired:
        if name in mismatched:
            modes = benchmarks.get(name, {})
            detail = {m: (e.get("scale"), e.get("workers"))
                      for m, e in sorted(modes.items())}
            problems.append(
                f"figure {name!r} has a base/ff pair at mismatched "
                f"scale/workers: {detail}")
        elif name not in paired:
            modes = sorted(benchmarks.get(name, {}))
            problems.append(
                f"figure {name!r} lacks a base/ff pair (recorded: {modes})")

    if not paired:
        problems.append("no figure has both a base and a fast-forward run")
        return problems

    speedup = summary.get("speedup")
    base_s = summary.get("base_wall_s")
    ff_s = summary.get("ff_wall_s")
    print(f"{path}: {len(paired)} paired figure(s), "
          f"base={base_s}s ff={ff_s}s speedup={speedup}x")
    for name in paired:
        modes = benchmarks[name]
        print(f"  {name}: base={modes['base']['wall_s']}s "
              f"ff={modes['ff']['wall_s']}s "
              f"units_skipped={modes['ff'].get('ff_units_skipped', 0)}")

    if speedup is None or speedup < min_speedup:
        problems.append(
            f"suite speedup {speedup} is below the required {min_speedup}x")
    if max_ff_wall is not None and (ff_s is None or ff_s > max_ff_wall):
        problems.append(
            f"fast-forward suite wall {ff_s}s exceeds budget {max_ff_wall}s")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("json_path", type=Path,
                        help="figure_bench JSON record to validate")
    parser.add_argument("--min-speedup", type=float, default=1.0,
                        help="minimum recorded base/ff speedup (default 1.0)")
    parser.add_argument("--max-ff-wall", type=float, default=None,
                        help="maximum paired fast-forward wall seconds")
    parser.add_argument("--require-paired", action="append", default=[],
                        metavar="FIG",
                        help="figure name that must have base+ff recorded "
                             "(repeatable)")
    args = parser.parse_args(argv)
    problems = check(args.json_path, args.min_speedup, args.max_ff_wall,
                     args.require_paired)
    for p in problems:
        print(f"BUDGET FAIL: {p}", file=sys.stderr)
    if not problems:
        print("bench budget: ok")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
