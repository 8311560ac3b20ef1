"""Figure 5 — latency overhead and relative throughput on system A (§5).

Same experiments as figs. 3/4, but on the virtualized Azure HB120 profile
(200 Gbit/s IB, noisy syscalls, CoRD without inline support).

Paper claims checked:

- per-message overhead is larger than on system L and noisier;
- the overhead is *bimodal*: messages <= 1 KiB pay more (CoRD lacks inline
  there), larger messages pay less;
- bandwidth reduction becomes negligible from a certain message size.

Note on the paper's "system L shows a higher throughput reduction than
system A" sentence: taken literally it contradicts the arithmetic of a
fixed per-message CPU cost on a faster wire (which binds *longer*).  We
reproduce the physical behaviour and read the sentence as comparing
opposite-direction anchors (see EXPERIMENTS.md).

Iteration counts match the perftest defaults the paper ran (5000 bw /
1000 lat iterations).  System A draws per-op syscall jitter, so most of
this figure cannot be fast-forwarded (the probe proves that and disarms);
it is the suite's irreducible full-fidelity core.
"""

import pytest

from repro import stats
from repro.analysis import SweepTable, check_between, format_table
from repro.bench_support import (
    emit,
    figure_bench,
    parallel_sweep,
    report_checks,
    scaled,
)
from repro.perftest.runner import PerftestConfig, run_bw, run_lat
from repro.units import pretty_size

LAT_SIZES = [64, 256, 512, 1024, 2048, 4096, 16384]
BW_SIZES = [256, 1024, 4096, 16384, 65536, 262144, 1 << 20]


def _lat_point(point):
    cfg, size = point
    return run_lat(cfg, size).avg_us


def _bw_point(point):
    cfg, size = point
    return run_bw(cfg, size).gbit_per_s


def _lat_sweep():
    points = []
    for size in LAT_SIZES:
        points.append((PerftestConfig(system="A", iters=scaled(1000), warmup=25),
                       size))
        points.append((PerftestConfig(system="A", client="cord", server="cord",
                                      iters=scaled(1000), warmup=25), size))
    values = iter(parallel_sweep(_lat_point, points))
    table = SweepTable(
        "Fig 5a: CoRD latency overhead on system A (us, CD->CD vs BP->BP)", "size"
    )
    over = table.new_series("RC-send overhead")
    for size in LAT_SIZES:
        bp = next(values)
        cd = next(values)
        over.add(pretty_size(size), cd - bp)
    return table


def _bw_sweep():
    combos = []
    points = []
    for transport, op in (("RC", "send"), ("RC", "write"), ("UD", "send")):
        for size in BW_SIZES:
            if transport == "UD" and size > 4096:
                continue
            bp_cfg = PerftestConfig(system="A", transport=transport, op=op,
                                    iters=scaled(5000), warmup=300, window=64)
            combos.append((transport, op, size))
            points.append((bp_cfg, size))
            points.append((bp_cfg.with_(client="cord", server="cord"), size))
    values = iter(parallel_sweep(_bw_point, points))
    table = SweepTable("Fig 5b: CoRD relative throughput on system A", "size")
    series = {}
    for transport, op, size in combos:
        name = f"{transport}-{op}"
        if name not in series:
            series[name] = table.new_series(name)
        bp = next(values)
        cd = next(values)
        series[name].add(pretty_size(size), cd / bp)
    return table


def _report_fig5a(table):
    header, rows = table.rows()
    text = format_table(header, rows, table.title)
    over = table.get("RC-send overhead")
    small_mode = stats.mean([over.y_at(pretty_size(s)) for s in (64, 256, 512, 1024)])
    large_mode = stats.mean([over.y_at(pretty_size(s)) for s in (2048, 4096, 16384)])
    checks = [
        check_between("small-message mode (<=1 KiB) larger than large mode",
                      small_mode / large_mode, 1.15, 3.0),
        check_between("large-mode overhead exceeds system L's (~1.1 us)",
                      large_mode, 1.2, 4.0),
        check_between("small-mode overhead (us)", small_mode, 1.6, 5.0),
    ]
    emit("fig5a_latency_overhead", text + "\n" + report_checks("fig5a", checks))


def _report_fig5b(table):
    header, rows = table.rows()
    text = format_table(header, rows, table.title)
    checks = []
    for name in ("RC-send", "RC-write"):
        s = table.get(name)
        checks.append(check_between(
            f"{name}: small messages degraded", s.y_at("1 KiB"), 0.1, 0.8))
        checks.append(check_between(
            f"{name}: negligible from some size on", s.y_at("1 MiB"), 0.93, 1.05))
    emit("fig5b_throughput", text + "\n" + report_checks("fig5b", checks))


@pytest.mark.benchmark(group="fig5")
def test_fig5a_latency_overhead(benchmark):
    _report_fig5a(benchmark.pedantic(_lat_sweep, rounds=1, iterations=1))


@pytest.mark.benchmark(group="fig5")
def test_fig5b_throughput(benchmark):
    _report_fig5b(benchmark.pedantic(_bw_sweep, rounds=1, iterations=1))


def main():
    with figure_bench("fig5"):
        _report_fig5a(_lat_sweep())
        _report_fig5b(_bw_sweep())


if __name__ == "__main__":
    main()
