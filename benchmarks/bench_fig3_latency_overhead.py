"""Figure 3 — CoRD's per-side latency overhead on system L (paper §5).

4 KiB messages over RC (Send/Read/Write) and UD (Send); client and server
independently run bypass (BP) or CoRD (CD).  Reported as *absolute overhead*
versus the BP->BP baseline of the same operation, exactly like the figure.

Paper claims checked:

- RDMA read with CoRD only at the server adds ~zero (the server CPU never
  participates in a read);
- for all other operations, each CoRD side contributes roughly equally;
- the overhead is a constant, not proportional to message size.

Iteration counts match the perftest defaults the paper ran (1000 lat
iterations); steady-state fast-forward keeps them affordable.
"""

import pytest

from repro.analysis import SweepTable, check_between, format_table
from repro.bench_support import (
    emit,
    parallel_sweep,
    report_checks,
    scaled,
)
from repro.perftest.runner import PerftestConfig, run_lat

SIZE = 4096
COMBOS = [("bypass", "bypass"), ("cord", "bypass"), ("bypass", "cord"), ("cord", "cord")]
OPS = [("RC", "send"), ("RC", "read"), ("RC", "write"), ("UD", "send")]


def _lat_point(point):
    cfg, size = point
    return run_lat(cfg, size).avg_us


def _sweep():
    points = []
    for transport, op in OPS:
        for client, server in COMBOS:
            cfg = PerftestConfig(system="L", transport=transport, op=op,
                                 client=client, server=server,
                                 iters=scaled(1000), warmup=20)
            points.append((cfg, SIZE))
    # The size-independence probe points ride the same fan-out.
    for size in (256, 65536):
        points.append((PerftestConfig(system="L", iters=scaled(1000), warmup=20),
                       size))
        points.append((PerftestConfig(system="L", client="cord", server="cord",
                                      iters=scaled(1000), warmup=20), size))
    values = iter(parallel_sweep(_lat_point, points))

    table = SweepTable(
        "Fig 3: latency overhead vs BP->BP at 4 KiB on system L (us)", "config"
    )
    combo_label = {c: f"{a[:2].upper()}->{b[:2].upper()}" for c, (a, b) in
                   zip(range(4), COMBOS)}
    for transport, op in OPS:
        series = table.new_series(f"{transport}-{op}")
        base = None
        for idx in range(len(COMBOS)):
            lat = next(values)
            if base is None:
                base = lat
            series.add(combo_label[idx], lat - base)
    deltas = []
    for _size in (256, 65536):
        bp = next(values)
        cd = next(values)
        deltas.append(cd - bp)
    return table, deltas


def _report(table, deltas):
    header, rows = table.rows()
    text = format_table(header, rows, table.title)
    read = table.get("RC-read")
    send = table.get("RC-send")
    ud = table.get("UD-send")
    checks = [
        # Server-side CoRD adds nothing to RDMA read.
        check_between("read BP->CD overhead ~ 0 us", read.y_at("BY->CO"), -0.05, 0.05),
        # But client-side CoRD does.
        check_between("read CO->BY overhead > 0", read.y_at("CO->BY"), 0.2, 3.0),
        # Send: each side contributes ~equally; both together ~ sum.
        check_between("send sides equal (CO->BY vs BY->CO)",
                      send.y_at("CO->BY") / send.y_at("BY->CO"), 0.7, 1.4),
        check_between("send CO->CO ~ sum of sides",
                      send.y_at("CO->CO") /
                      (send.y_at("CO->BY") + send.y_at("BY->CO")), 0.7, 1.3),
        check_between("UD sides equal",
                      ud.y_at("CO->BY") / ud.y_at("BY->CO"), 0.7, 1.4),
        # Magnitude: sub-2us per side on system L.
        check_between("send one-side overhead (us)", send.y_at("CO->BY"), 0.1, 2.0),
        # Size-independence: send CO->CO overhead at two more sizes.
        check_between("overhead size-independent (65KiB vs 256B)",
                      deltas[1] / deltas[0], 0.7, 1.4),
    ]
    emit("fig3_latency_overhead", text + "\n" + report_checks("fig3", checks))


@pytest.mark.benchmark(group="fig3")
def test_fig3_latency_overhead(benchmark):
    table, deltas = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    _report(table, deltas)


def main():
    _report(*_sweep())


if __name__ == "__main__":
    main()
