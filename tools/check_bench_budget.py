#!/usr/bin/env python3
"""CI gate: steady-state fast-forward keeps its wall-clock budget.

Times fig3's sweep (``benchmarks/bench_fig3_latency_overhead.py``) twice
in this process, at ``REPRO_BENCH_SCALE=0.3`` with 2 workers: once with
fast-forward off (base), once on.  Only the sweeps are timed, not the
imports, and nothing is written.  Fails unless fast-forward is at least
``MIN_SPEEDUP`` times faster than base and its sweep takes at most
``MAX_FF_WALL_S`` seconds.  Wall time belongs to the machine that
measures it, so this gate guards regressions on whichever machine runs it
and records nothing.

    python tools/check_bench_budget.py
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MIN_SPEEDUP = 1.5
MAX_FF_WALL_S = 300.0
KNOBS = {"REPRO_BENCH_SCALE": "0.3", "REPRO_BENCH_WORKERS": "2"}


def verdict(base_s: float, ff_s: float) -> list[str]:
    """The budget's problems with one timed base/fast-forward pair."""
    problems = []
    speedup = base_s / ff_s
    if speedup < MIN_SPEEDUP:
        problems.append(f"fast-forward speedup {speedup:.2f}x is below "
                        f"{MIN_SPEEDUP}x")
    if ff_s > MAX_FF_WALL_S:
        problems.append(f"fast-forward sweep took {ff_s:.1f} s, over the "
                        f"{MAX_FF_WALL_S:.0f} s budget")
    return problems


def time_fig3_pair() -> tuple[float, float]:
    """Wall seconds of fig3's sweep with fast-forward off, then on."""
    for name in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[name]
    os.environ.update(KNOBS)
    # Imported by name, so the fork workers can unpickle its sweep point.
    sys.path.insert(0, str(ROOT / "benchmarks"))
    fig3 = importlib.import_module("bench_fig3_latency_overhead")
    walls = []
    for fastforward in ("0", "1"):
        os.environ["REPRO_FASTFORWARD"] = fastforward
        t0 = time.perf_counter()
        fig3._sweep()
        walls.append(time.perf_counter() - t0)
    return walls[0], walls[1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.parse_args(argv)
    base_s, ff_s = time_fig3_pair()
    print(f"fig3 at scale {KNOBS['REPRO_BENCH_SCALE']}, "
          f"{KNOBS['REPRO_BENCH_WORKERS']} workers: base {base_s:.2f} s, "
          f"fast-forward {ff_s:.2f} s ({base_s / ff_s:.2f}x)")
    problems = verdict(base_s, ff_s)
    for problem in problems:
        print(f"BUDGET FAIL: {problem}", file=sys.stderr)
    if not problems:
        print("bench budget: ok")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
