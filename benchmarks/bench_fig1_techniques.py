"""Figure 1 — "removing" performance techniques (paper §2, system L).

Point-to-point RC send latency (fig. 1a) and throughput (fig. 1b) for the
baseline and for each technique removed: zero-copy (extra memcpy),
kernel-bypass (extra null syscall), polling (interrupt-driven waits).

Paper claims checked:

- baseline small-message throughput is only ~1.4 Gbit/s of the 100 Gbit/s
  link (CPU-bound);
- removing zero-copy adds latency proportional to size, ~140 us/MiB;
- removing kernel-bypass adds only a small constant (the least critical);
- removing polling adds a large size-independent constant;
- every removal significantly hurts small-message throughput;
- large-message throughput only collapses without zero-copy.

Iteration counts match the perftest defaults the paper ran (5000 bw /
1000 lat iterations) — affordable because steady-state fast-forward
(``REPRO_FASTFORWARD=1``) skips the periodic bulk of each loop exactly.
"""

import pytest

from repro.analysis import SweepTable, check_between, format_table
from repro.bench_support import (
    emit,
    figure_bench,
    parallel_sweep,
    report_checks,
    scaled,
)
from repro.perftest.runner import PerftestConfig, run_bw, run_lat
from repro.perftest.techniques import FIG1_VARIANTS
from repro.units import MiB, pretty_size

LAT_SIZES = [2, 64, 1024, 4096, 65536, 1 << 20, 4 << 20]
BW_SIZES = [64, 256, 1024, 4096, 16384, 65536, 1 << 20]


def _lat_point(point):
    cfg, size = point
    return run_lat(cfg, size).avg_us


def _bw_point(point):
    cfg, size = point
    return run_bw(cfg, size).gbit_per_s


def _lat_sweep():
    points = [
        (PerftestConfig(system="L", iters=scaled(1000), warmup=15, techniques=tech),
         size)
        for tech in FIG1_VARIANTS for size in LAT_SIZES
    ]
    values = iter(parallel_sweep(_lat_point, points))
    table = SweepTable("Fig 1a: send latency with techniques removed (us)", "size")
    for tech in FIG1_VARIANTS:
        s = table.new_series(tech.label)
        for size in LAT_SIZES:
            s.add(pretty_size(size), next(values))
    return table


def _bw_sweep():
    points = [
        (PerftestConfig(system="L", iters=scaled(5000), warmup=200,
                        window=64, techniques=tech), size)
        for tech in FIG1_VARIANTS for size in BW_SIZES
    ]
    values = iter(parallel_sweep(_bw_point, points))
    table = SweepTable("Fig 1b: send throughput with techniques removed (Gbit/s)", "size")
    for tech in FIG1_VARIANTS:
        s = table.new_series(tech.label)
        for size in BW_SIZES:
            s.add(pretty_size(size), next(values))
    return table


def _report_fig1a(table):
    header, rows = table.rows()
    text = format_table(header, rows, table.title)
    base = table.get("baseline")
    nozc = table.get("no zero-copy")
    nokb = table.get("no kernel-bypass")
    nopoll = table.get("no polling")
    big = pretty_size(4 << 20)
    small = pretty_size(2)
    copy_us_per_mib = (nozc.y_at(big) - base.y_at(big)) / 4.0
    checks = [
        check_between("extra-copy tax us/MiB (paper ~140)", copy_us_per_mib, 90, 200),
        check_between("no-kernel-bypass constant (us), small",
                      nokb.y_at(small) - base.y_at(small), 0.02, 0.6),
        check_between("no-polling constant at 2B (us)",
                      nopoll.y_at(small) - base.y_at(small), 1.5, 12.0),
        check_between("no-polling constant at 4MiB (us) — size-independent",
                      nopoll.y_at(big) - base.y_at(big), 1.5, 12.0),
    ]
    emit("fig1a_latency", text + "\n" + report_checks("fig1a", checks))


def _report_fig1b(table):
    header, rows = table.rows()
    text = format_table(header, rows, table.title)
    base = table.get("baseline")
    small = pretty_size(64)
    big = pretty_size(1 << 20)
    checks = [
        check_between("baseline small-message Gbit/s (paper ~1.4)",
                      base.y_at(small), 0.9, 2.1),
        check_between("baseline large-message Gbit/s (wire-limited)",
                      base.y_at(big), 80, 100),
    ]
    for label in ("no zero-copy", "no kernel-bypass", "no polling"):
        rel = table.get(label).y_at(small) / base.y_at(small)
        checks.append(check_between(f"{label}: small-msg throughput hit", rel, 0.05, 0.90))
    # Large messages: only zero-copy removal collapses throughput.
    checks.append(check_between(
        "no zero-copy large-message collapse",
        table.get("no zero-copy").y_at(big) / base.y_at(big), 0.2, 0.8))
    checks.append(check_between(
        "no kernel-bypass large-message unaffected",
        table.get("no kernel-bypass").y_at(big) / base.y_at(big), 0.9, 1.05))
    checks.append(check_between(
        "no polling large-message unaffected",
        table.get("no polling").y_at(big) / base.y_at(big), 0.85, 1.05))
    emit("fig1b_throughput", text + "\n" + report_checks("fig1b", checks))


@pytest.mark.benchmark(group="fig1")
def test_fig1a_latency(benchmark):
    _report_fig1a(benchmark.pedantic(_lat_sweep, rounds=1, iterations=1))


@pytest.mark.benchmark(group="fig1")
def test_fig1b_throughput(benchmark):
    _report_fig1b(benchmark.pedantic(_bw_sweep, rounds=1, iterations=1))


def main():
    with figure_bench("fig1"):
        _report_fig1a(_lat_sweep())
        _report_fig1b(_bw_sweep())


if __name__ == "__main__":
    main()
