"""Shared plumbing for the figure benchmarks in ``benchmarks/``.

Each benchmark regenerates one table/figure of the paper: it runs the
simulation sweep, prints the series as an ASCII table (the same rows the
paper plots), writes the table under ``results/``, and evaluates the
paper's qualitative claims as PASS/FAIL shape checks.

``REPRO_BENCH_SCALE`` (float, default 1.0) scales iteration counts for
quick smoke runs (e.g. ``REPRO_BENCH_SCALE=0.2 pytest benchmarks/``).

``REPRO_BENCH_WORKERS`` (int, default = CPU count) sets how many worker
processes :func:`parallel_sweep` fans sweep points over.  ``1`` forces
serial execution in-process.

:func:`figure_bench` wraps one figure's sweep in wall-clock + simulation
accounting and, when ``REPRO_BENCH_JSON`` names a path, merges the
measurement into that JSON file, keyed by figure name and by whether
steady-state fast-forward was on — so a base/fast-forward pair of runs
yields a recorded speedup (see ``tools/check_bench_budget.py``).  Only
same-scale, same-worker-count pairs enter the summary speedup.  Without
``REPRO_BENCH_JSON`` nothing is recorded: wall time belongs to the host
that measured it, so no such record is committed.

The per-stage blame baselines in ``results/BENCH_attribution.json`` are
not written here: ``tools/check_attribution.py --update`` is their one
writer, so a benchmark run can never refresh what that gate compares to.
"""

from __future__ import annotations

import gc
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence, TypeVar

from repro.analysis.compare import CheckResult
from repro.errors import ConfigError

_T = TypeVar("_T")
_R = TypeVar("_R")


def results_dir() -> Path:
    """Output directory for tables, read from ``REPRO_RESULTS_DIR`` at
    *call* time — setting the variable after import works."""
    return Path(os.environ.get("REPRO_RESULTS_DIR", "results"))


def bench_scale() -> float:
    """Global iteration-count multiplier from the environment."""
    raw = os.environ.get("REPRO_BENCH_SCALE", "").strip()
    if not raw:
        return 1.0
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(
            f"REPRO_BENCH_SCALE must be a number, got {raw!r}"
        ) from None
    if value < 0:
        raise ConfigError(f"REPRO_BENCH_SCALE must be non-negative, got {raw!r}")
    return value


def scaled(n: int, minimum: int = 1) -> int:
    return max(minimum, int(round(n * bench_scale())))


def bench_workers() -> int:
    """Worker-process count for :func:`parallel_sweep`.

    ``REPRO_BENCH_WORKERS`` wins when set; otherwise all CPUs.
    """
    raw = os.environ.get("REPRO_BENCH_WORKERS", "").strip()
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            raise ConfigError(
                f"REPRO_BENCH_WORKERS must be an integer, got {raw!r}"
            ) from None
    return os.cpu_count() or 1


BENCH_JSON_ENV = "REPRO_BENCH_JSON"


def bench_json_path() -> Optional[Path]:
    """Where :func:`figure_bench` records its measurements: the path
    ``REPRO_BENCH_JSON`` names, or None (record nothing)."""
    raw = os.environ.get(BENCH_JSON_ENV, "").strip()
    return Path(raw) if raw else None


def _load_bench_json(path: Path) -> dict:
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError):
        return {"benchmarks": {}, "summary": {}}
    if not isinstance(data, dict):
        return {"benchmarks": {}, "summary": {}}
    data.setdefault("benchmarks", {})
    data.setdefault("summary", {})
    return data


def _summarize(benchmarks: dict) -> dict:
    """Aggregate base-vs-fast-forward speedup over figures with both runs.

    A pair only counts when both runs were taken at the same ``scale`` and
    ``workers`` — a smoke-scale ff run against a full-scale base would
    record a meaningless speedup (and the CI gate evaluates it).
    Mismatched pairs are listed separately so the gate can name them.
    """
    base_s = ff_s = 0.0
    paired = []
    mismatched = []
    scales = set()
    for name, modes in sorted(benchmarks.items()):
        if "base" not in modes or "ff" not in modes:
            continue
        base, ff = modes["base"], modes["ff"]
        if (base.get("scale"), base.get("workers")) != \
                (ff.get("scale"), ff.get("workers")):
            mismatched.append(name)
            continue
        base_s += base["wall_s"]
        ff_s += ff["wall_s"]
        paired.append(name)
        scales.add(base.get("scale"))
    summary = {"paired_benchmarks": paired}
    if mismatched:
        summary["mismatched_benchmarks"] = mismatched
    if paired and ff_s > 0:
        summary.update({
            "base_wall_s": round(base_s, 3),
            "ff_wall_s": round(ff_s, 3),
            "speedup": round(base_s / ff_s, 3),
        })
        if len(scales) == 1:
            (summary["scale"],) = scales
    return summary


def record_figure_bench(name: str, entry: dict) -> Optional[Path]:
    """Merge one figure measurement into the benchmark JSON (see module
    docstring) and refresh the cross-figure summary.  Returns the path
    written, or ``None`` when ``REPRO_BENCH_JSON`` is unset.
    """
    path = bench_json_path()
    if path is None:
        return None
    path.parent.mkdir(parents=True, exist_ok=True)
    data = _load_bench_json(path)
    mode = "ff" if entry.get("fastforward") else "base"
    data["benchmarks"].setdefault(name, {})[mode] = entry
    data["summary"] = _summarize(data["benchmarks"])
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return path


@contextmanager
def figure_bench(name: str):
    """Account one figure's sweep: wall-clock seconds plus simulation-side
    run stats (events simulated, fast-forward skips), recorded into the
    JSON file ``REPRO_BENCH_JSON`` names, if any.

    Wall-clock here is benchmark instrumentation *about* the simulator,
    never an input to it — results stay bit-identical with or without the
    wrapper.
    """
    from repro.perftest.runner import FASTFORWARD_ENV, run_stats_snapshot
    from repro.sim.engine import env_flag

    before = run_stats_snapshot()
    t0 = time.perf_counter()  # sim: allow-wallclock(benchmark harness timing, not simulation input)
    yield
    wall = time.perf_counter() - t0  # sim: allow-wallclock(benchmark harness timing, not simulation input)
    after = run_stats_snapshot()
    entry = {
        "wall_s": round(wall, 4),
        "scale": bench_scale(),
        "workers": bench_workers(),
        "fastforward": env_flag(FASTFORWARD_ENV),
    }
    for key, value in after.items():
        delta = value - before.get(key, 0)
        entry[key] = round(delta, 3) if isinstance(delta, float) else delta
    record_figure_bench(name, entry)


def _instrumented_point(task):
    """Worker-side wrapper: run one sweep point and ship the per-point run
    stats back with the result (the parent merges them, so figure_bench
    totals are identical for any worker count)."""
    from repro.perftest.runner import reset_run_stats, run_stats_snapshot

    point, p = task
    reset_run_stats()
    result = point(p)
    return result, run_stats_snapshot()


def _worker_init() -> None:
    # Sweep workers churn through millions of short-lived simulation
    # objects with reference cycles (process <-> event).  The default gen-0
    # threshold (700) makes the cycle collector a measurable fraction of a
    # run; a worker's entire heap dies with the process anyway, so trade
    # peak RSS for speed.  Collection still happens, just rarely.
    gc.set_threshold(200_000, 200, 200)


def parallel_sweep(
    point: Callable[[_T], _R],
    points: Sequence[_T],
    workers: int | None = None,
) -> list[_R]:
    """Run ``point(p)`` for every sweep point, fanned over worker processes.

    Results come back in the order of ``points`` regardless of which worker
    finishes first, and every point builds its own fresh, seeded
    ``Simulator`` — so the output is bit-identical to a serial run for any
    worker count (including the serial fallback).  ``point`` must be a
    module-level function and each point picklable.

    Worker count: explicit ``workers`` argument, else ``REPRO_BENCH_WORKERS``,
    else the CPU count.  One worker (or one point, or a platform without
    ``fork``) degrades gracefully to a plain in-process loop.
    """
    points = list(points)
    if workers is None:
        workers = bench_workers()
    workers = min(workers, len(points))
    if workers <= 1:
        return [point(p) for p in points]
    try:
        import multiprocessing

        # fork keeps already-imported benchmark modules (and __main__
        # entrypoints) picklable by reference and skips re-import cost.
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return [point(p) for p in points]
    with ProcessPoolExecutor(
        max_workers=workers, mp_context=ctx, initializer=_worker_init
    ) as pool:
        out = list(pool.map(_instrumented_point,
                            [(point, p) for p in points], chunksize=1))
    from repro.perftest.runner import merge_run_stats

    for _result, snap in out:
        merge_run_stats(snap)
    return [result for result, _snap in out]


def emit(name: str, text: str) -> None:
    """Print a result block and persist it under results/."""
    print()
    print(text)
    outdir = results_dir()
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / f"{name}.txt"
    path.write_text(text + "\n")


def report_checks(name: str, checks: Iterable[CheckResult], strict: bool = True) -> str:
    """Render shape checks; assert them when ``strict``.

    The quantitative bounds are calibrated at full iteration counts, so
    scaled-down smoke runs (``REPRO_BENCH_SCALE`` < 0.5) report PASS/FAIL
    without asserting — the sweep still exercises every code path.
    """
    strict = strict and bench_scale() >= 0.5
    checks = list(checks)
    lines = ["shape checks vs paper:"]
    lines += [c.line() for c in checks]
    text = "\n".join(lines)
    print(text)
    failed = [c for c in checks if not c.passed]
    if strict and failed:
        raise AssertionError(
            f"{name}: {len(failed)} shape check(s) failed:\n"
            + "\n".join(c.line() for c in failed)
        )
    return text
