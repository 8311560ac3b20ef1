#!/usr/bin/env python3
"""CI gate: the committed result tables regenerate exactly.

Every ``results/*.txt`` table is written by one of the figure scripts in
``benchmarks/`` (through ``bench_support.emit``).  This gate re-runs each
of those scripts at full scale, serially, into a temporary directory
(``REPRO_RESULTS_DIR``) and fails when a regenerated table differs from
its committed copy by one byte, a committed table is no longer produced,
a script produces a table that is not committed, or a script fails.

A change that moves a table commits the regenerated tables and explains
them.  The scripts run with every other ``REPRO_*`` knob cleared, so the
tables are the defaults' (full scale, fast-forward off, no telemetry).

    python tools/check_results.py
"""

from __future__ import annotations

import argparse
import difflib
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "benchmarks"
RESULTS = ROOT / "results"


def table_scripts() -> list[Path]:
    """The figure scripts that write tables (the ones calling ``emit``)."""
    return [path for path in sorted(BENCH_DIR.glob("bench_*.py"))
            if "emit(" in path.read_text()]


def regenerate(outdir: Path) -> list[str]:
    """Run every table script into ``outdir``; returns the ones that
    failed."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_RESULTS_DIR"] = str(outdir)
    env["REPRO_BENCH_WORKERS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p)
    failed = []
    for script in table_scripts():
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, str(script)], cwd=ROOT,
                              env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            failed.append(script.name)
            sys.stderr.write(proc.stderr[-2000:])
        print(f"  {script.name}: exit {proc.returncode} "
              f"({time.perf_counter() - t0:.1f} s)")
    return failed


def compare_tables(committed: Path, fresh: Path) -> list[str]:
    """Differences between the committed tables and the regenerated ones."""
    problems = []
    want = {p.name for p in committed.glob("*.txt")}
    got = {p.name for p in fresh.glob("*.txt")}
    for name in sorted(want - got):
        problems.append(f"{name}: committed but no script produced it")
    for name in sorted(got - want):
        problems.append(f"{name}: produced but not committed")
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
    with tempfile.TemporaryDirectory(prefix="check_results_") as tmp:
        failed = regenerate(Path(tmp))
        problems = [f"{name}: script failed" for name in failed]
        problems += compare_tables(RESULTS, Path(tmp))
    if problems:
        print(f"results: {len(problems)} problem(s)")
        for problem in problems:
            print(f"  {problem}")
        return 1
    ntables = len(list(RESULTS.glob("*.txt")))
    print(f"results: all {ntables} tables regenerate byte-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
