"""NPB world-size scale-out on a four-host switched cluster.

Sweeps MPI world size (4/8/16 ranks) for the comm-heavy IS (alltoall/v)
and CG (halo exchange) skeletons on a four-host cluster, bypass vs CoRD.
The many-to-one phases of these collectives contend for each receiver's
switch output port.

Shape checks (loose — skeleton timings, not the paper's absolutes):

- strong scaling: per-iteration time falls as ranks split the fixed
  class-A problem;
- CoRD stays within 2x of bypass at every point.
"""

import pytest

from repro.analysis import SweepTable, check_between, format_table
from repro.bench_support import emit, parallel_sweep, report_checks
from repro.npb.base import NpbConfig
from repro.npb.runner import run_npb

RANKS = [4, 8, 16]
NAMES = ["IS", "CG"]
PLANES = [("BP", "bypass"), ("CD", "cord")]
HOSTS = 4
SYSTEM = "A"
ITER_SCALE = 0.1


def _point(point):
    cfg, transport = point
    return run_npb(cfg, transport=transport, system=SYSTEM, hosts_n=HOSTS)


def _sweep():
    points = []
    for name in NAMES:
        for ranks in RANKS:
            cfg = NpbConfig(name=name, klass="A", ranks=ranks,
                            iter_scale=ITER_SCALE)
            for _label, transport in PLANES:
                points.append((cfg, transport))
    return points, parallel_sweep(_point, points)


def _report(points, results):
    tables = {name: SweepTable(
        f"NPB {name}.A on {HOSTS} hosts: time per iteration (us)", "ranks")
        for name in NAMES}
    by_key = {}
    it = iter(results)
    for name in NAMES:
        series = {label: tables[name].new_series(label)
                  for label, _t in PLANES}
        for ranks in RANKS:
            for label, _t in PLANES:
                r = next(it)
                by_key[(name, ranks, label)] = r
                series[label].add(str(ranks), r.per_iter_ns / 1e3)

    parts = []
    for name in NAMES:
        h, rows = tables[name].rows()
        parts.append(format_table(h, rows, tables[name].title))
    text = "\n\n".join(parts)

    checks = []
    for name in NAMES:
        for label, _t in PLANES:
            times = [by_key[(name, r, label)].per_iter_ns for r in RANKS]
            checks.append(check_between(
                f"{name}/{label}: strong scaling (per-iter time falls)",
                1.0 if all(a > b for a, b in zip(times, times[1:]))
                else 0.0, 1.0, 1.0))
        for ranks in RANKS:
            rel = (by_key[(name, ranks, "CD")].per_iter_ns
                   / by_key[(name, ranks, "BP")].per_iter_ns)
            checks.append(check_between(
                f"{name} x{ranks}: CoRD within 2x of bypass", rel, 0.9, 2.0))
    emit("scaleout_npb", text + "\n" + report_checks("scaleout_npb", checks))


@pytest.mark.benchmark(group="scaleout")
def test_scaleout_npb(benchmark):
    results = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    _report(*results)


def main():
    _report(*_sweep())


if __name__ == "__main__":
    main()
