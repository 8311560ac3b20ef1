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

Every tracked file under ``results/`` is written through :func:`emit` (a
table) or :func:`emit_record` (a JSON record) and regenerated
byte-for-byte by ``tools/check_results.py``.  Wall time belongs to the
host that measured it, so no wall-clock record is committed.
"""

from __future__ import annotations

import gc
import json
import os
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Callable, Iterable, Sequence, TypeVar

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
        return list(pool.map(point, points, chunksize=1))


def _write_result(filename: str, text: str) -> Path:
    outdir = results_dir()
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / filename
    path.write_text(text)
    return path


def emit(name: str, text: str) -> None:
    """Print a result block and persist it under results/."""
    print()
    print(text)
    _write_result(f"{name}.txt", text + "\n")


def emit_record(name: str, doc: dict) -> None:
    """Persist a JSON record under results/ (sorted keys, so the bytes
    depend on the values only)."""
    path = _write_result(f"{name}.json",
                         json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"[bench] recorded {path}")


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
