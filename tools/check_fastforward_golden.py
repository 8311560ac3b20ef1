#!/usr/bin/env python3
"""CI gate: steady-state fast-forward must be bit-exact and actually skip.

Runs a representative slice of the perftest matrix twice — fast-forward
off, then on — and fails unless:

- every result (including sample vectors) is bit-identical across the two
  runs;
- system L configurations arm and skip a substantial share of the run
  (the probe is not allowed to silently degrade into a no-op);
- system A CoRD configurations (lognormal syscall jitter inside the loop)
  never jump: the probe must prove extrapolation unsafe and disarm.

This is the same contract ``tests/test_fastforward.py`` pins, packaged as
a standalone gate so CI can run it against the installed package without
the pytest fixtures, and so it can be pointed at bigger iteration counts
(``--iters-scale``) when hunting rare late-arming bugs.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.perftest.runner import (
    PerftestConfig,
    reset_run_stats,
    run_bw,
    run_lat,
    run_stats_snapshot,
)

#: (system, dataplane, op, kind, expect_skip).  System L must skip; system
#: A CoRD must refuse.  One bypass and one CoRD config per op kind keeps
#: the gate under ~30 s while covering both dataplanes' loop shapes.
MATRIX = [
    ("L", "bypass", "send", "lat", True),
    ("L", "cord", "write", "lat", True),
    ("L", "bypass", "write", "bw", True),
    ("L", "cord", "send", "bw", True),
    ("A", "cord", "send", "lat", False),
    ("A", "cord", "write", "bw", False),
]


def _fields(result) -> tuple:
    return tuple(sorted(
        (k, tuple(v) if isinstance(v, list) else v)
        for k, v in vars(result).items()
    ))


def config_for(system: str, dataplane: str, op: str, kind: str,
               iters_scale: float = 1.0) -> tuple:
    """One MATRIX row's ``(PerftestConfig, run function)``."""
    if kind == "lat":
        extra = dict(iters=max(1, int(150 * iters_scale)), warmup=20)
        run = run_lat
    else:
        extra = dict(iters=max(1, int(900 * iters_scale)), warmup=200,
                     window=64)
        run = run_bw
    return PerftestConfig(system=system, op=op, client=dataplane,
                          server=dataplane, **extra), run


def ledger(stats: dict) -> tuple:
    """One fast-forwarded run's skip ledger from its run stats: jumps,
    cycles, units, events skipped, events scheduled, disarm reason."""
    reason = next((k[len("ff_disarm_"):] for k in stats
                   if k.startswith("ff_disarm_")), None)
    return (stats["ff_jumps"], stats["ff_cycles_skipped"],
            stats["ff_units_skipped"], stats["ff_events_skipped"],
            stats["events_scheduled"], reason)


def run_gate(iters_scale: float = 1.0, size: int = 4096) -> int:
    failures = 0
    for system, dataplane, op, kind, expect_skip in MATRIX:
        cfg, run = config_for(system, dataplane, op, kind, iters_scale)
        t0 = time.perf_counter()
        base = run(cfg.with_(fastforward=False), size)
        reset_run_stats()
        ff = run(cfg.with_(fastforward=True), size)
        stats = run_stats_snapshot()
        wall = time.perf_counter() - t0

        problems = []
        if _fields(base) != _fields(ff):
            problems.append("results differ")
        if expect_skip:
            if stats["ff_jumps"] < 1 or stats["ff_cycles_skipped"] <= 0:
                problems.append(
                    f"expected skipping, got jumps={stats['ff_jumps']}")
        else:
            if stats["ff_jumps"] != 0 or stats["ff_cycles_skipped"] != 0:
                problems.append(
                    f"expected disarm, got jumps={stats['ff_jumps']} "
                    f"cycles={stats['ff_cycles_skipped']}")

        tag = "FAIL" if problems else "ok"
        print(f"{tag:4s} {system}/{dataplane:6s} {op}_{kind:3s} "
              f"jumps={stats['ff_jumps']} units={stats['ff_units_skipped']} "
              f"reason={ledger(stats)[-1]} wall={wall:.2f}s"
              + ("" if not problems else "  <- " + "; ".join(problems)))
        failures += bool(problems)
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--iters-scale", type=float, default=1.0,
                        help="multiply iteration counts (default 1.0)")
    parser.add_argument("--size", type=int, default=4096,
                        help="message size in bytes (default 4096)")
    args = parser.parse_args(argv)
    failures = run_gate(args.iters_scale, args.size)
    if failures:
        print(f"\n{failures} configuration(s) failed the fast-forward gate",
              file=sys.stderr)
        return 1
    print("\nfast-forward golden gate: all configurations bit-identical")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
