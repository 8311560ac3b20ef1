#!/usr/bin/env python3
"""CI gate: every committed result regenerates exactly.

Every tracked file under ``results/`` (the ``*.txt`` tables and the
``BENCH_*.json`` records) is written by one of the scripts in
``benchmarks/`` through ``bench_support.emit`` or ``emit_record``.  This
gate re-runs each of those scripts at full scale, serially, into a
temporary directory (``REPRO_RESULTS_DIR``) and fails when a regenerated
file differs from its tracked copy by one byte, a tracked file is no
longer produced, a script produces a file that is not tracked, or a
script fails (a full-scale run asserts its shape checks).

A change that moves a result commits the regenerated files and explains
them.  The scripts run with every other ``REPRO_*`` knob cleared, so the
results are the defaults' (full scale, fast-forward off, no telemetry).

    python tools/check_results.py
"""

from __future__ import annotations

import argparse
import difflib
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "benchmarks"
RESULTS = ROOT / "results"


def result_scripts() -> list[Path]:
    """The benchmark scripts that write committed results."""
    return [path for path in sorted(BENCH_DIR.glob("bench_*.py"))
            if re.search(r"\bemit(_record)?\(", path.read_text())]


def tracked_results() -> list[str]:
    """Names of the files git tracks under ``results/``."""
    out = subprocess.run(["git", "ls-files", "-z", "--", "results"], cwd=ROOT,
                         check=True, capture_output=True, text=True).stdout
    return sorted(str(Path(p).relative_to("results"))
                  for p in out.split("\0") if p)


def regenerate(outdir: Path) -> list[str]:
    """Run every result script into ``outdir``; returns the ones that
    failed."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_RESULTS_DIR"] = str(outdir)
    env["REPRO_BENCH_WORKERS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p)
    failed = []
    for script in result_scripts():
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, str(script)], cwd=ROOT,
                              env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            failed.append(script.name)
            sys.stderr.write(proc.stderr[-2000:])
        print(f"  {script.name}: exit {proc.returncode} "
              f"({time.perf_counter() - t0:.1f} s)")
    return failed


def compare(committed: Path, tracked: list[str], fresh: Path) -> list[str]:
    """Differences between the tracked files in ``committed`` and the
    regenerated ones in ``fresh``."""
    want = set(tracked)
    got = {str(p.relative_to(fresh)) for p in fresh.rglob("*") if p.is_file()}
    problems = []
    for name in sorted(want - got):
        problems.append(f"{name}: tracked but no script produced it")
    for name in sorted(got - want):
        problems.append(f"{name}: produced but not tracked")
    for name in sorted(want & got):
        old = (committed / name).read_bytes()
        new = (fresh / name).read_bytes()
        if old != new:
            diff = difflib.unified_diff(
                old.decode().splitlines(), new.decode().splitlines(),
                f"results/{name}", f"regenerated/{name}", lineterm="", n=0)
            problems.append(f"{name}: differs\n" + "\n".join(list(diff)[:12]))
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.parse_args(argv)
    tracked = tracked_results()
    with tempfile.TemporaryDirectory(prefix="check_results_") as tmp:
        failed = regenerate(Path(tmp))
        problems = [f"{name}: script failed" for name in failed]
        problems += compare(RESULTS, tracked, Path(tmp))
    if problems:
        print(f"results: {len(problems)} problem(s)")
        for problem in problems:
            print(f"  {problem}")
        return 1
    print(f"results: all {len(tracked)} tracked files regenerate "
          "byte-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
