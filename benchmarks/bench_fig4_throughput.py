"""Figure 4 — CoRD throughput relative to bypass on system L (paper §5).

Bandwidth sweep over message sizes for RC Send/Read/Write and UD Send
(UD caps at the 4 KiB MTU), plotting CD->CD throughput divided by BP->BP,
plus the bypass message rate (the figure's overlay lines).

Paper claims checked:

- constant per-message overhead => large degradation for small messages;
- degradation becomes insignificant with larger messages (for every
  transport/operation);
- at 32 KiB sends: ~370k msg/s and only ~1% degradation.

Iteration counts match the perftest defaults the paper ran (5000 bw
iterations); steady-state fast-forward keeps them affordable.
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
from repro.perftest.runner import PerftestConfig, run_bw
from repro.units import pretty_size

SIZES = [64, 256, 1024, 4096, 8192, 16384, 32768, 131072, 1 << 20]
OPS = [("RC", "send"), ("RC", "read"), ("RC", "write"), ("UD", "send")]


def _bw_point(point):
    cfg, size = point
    return run_bw(cfg, size)


def _sweep():
    keyed_points = []
    for transport, op in OPS:
        for size in SIZES:
            if transport == "UD" and size > 4096:
                continue
            bp_cfg = PerftestConfig(system="L", transport=transport, op=op,
                                    iters=scaled(5000), warmup=300, window=64)
            cd_cfg = bp_cfg.with_(client="cord", server="cord")
            keyed_points.append(((transport, op, size), (bp_cfg, size)))
            keyed_points.append(((transport, op, size), (cd_cfg, size)))
    results = parallel_sweep(_bw_point, [p for _, p in keyed_points])
    values = iter(zip((k for k, _ in keyed_points), results))

    table = SweepTable("Fig 4: CoRD relative throughput on system L", "size")
    rate = SweepTable("Fig 4 overlay: bypass message rate (Mmsg/s)", "size")
    for transport, op in OPS:
        rel = table.new_series(f"{transport}-{op}")
        mr = rate.new_series(f"{transport}-{op}")
        for size in SIZES:
            if transport == "UD" and size > 4096:
                continue
            (key, bp), (_, cd) = next(values), next(values)
            assert key == (transport, op, size)
            rel.add(pretty_size(size), cd.gbit_per_s / bp.gbit_per_s)
            mr.add(pretty_size(size), bp.msg_rate_per_s / 1e6)
    return table, rate


def _report(table, rate):
    h1, r1 = table.rows()
    h2, r2 = rate.rows()
    text = format_table(h1, r1, table.title) + "\n\n" + format_table(h2, r2, rate.title)
    checks = []
    for transport, op in OPS:
        s = table.get(f"{transport}-{op}")
        checks.append(check_between(
            f"{transport}-{op}: small messages degraded", s.y_at("64 B"), 0.15, 0.85))
        if transport == "UD":
            # UD tops out at the MTU, before the crossover completes.
            checks.append(check_between(
                "UD-send: degradation shrinking by 4 KiB",
                s.y_at("4 KiB") / s.y_at("64 B"), 1.0, 4.0))
        else:
            checks.append(check_between(
                f"{transport}-{op}: large messages ~unaffected",
                s.y_at("1 MiB"), 0.93, 1.05))
    send = table.get("RC-send")
    send_rate = rate.get("RC-send")
    checks.append(check_between(
        "32 KiB send msg rate (paper ~370k/s)",
        send_rate.y_at("32 KiB") * 1e6, 280_000, 450_000))
    checks.append(check_between(
        "32 KiB send degradation ~1%", send.y_at("32 KiB"), 0.95, 1.01))
    emit("fig4_throughput", text + "\n" + report_checks("fig4", checks))


@pytest.mark.benchmark(group="fig4")
def test_fig4_relative_throughput(benchmark):
    table, rate = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    _report(table, rate)


def main():
    with figure_bench("fig4"):
        _report(*_sweep())


if __name__ == "__main__":
    main()
