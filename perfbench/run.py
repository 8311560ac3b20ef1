#!/usr/bin/env python3
"""Benchmark of the CoRD simulator: host time plus the paper's headline.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig5-systemA --seed 1 --seconds 20 --trace 0

Workloads are defined in ``workloads.py``.  One run measures one workload
in this process, serially, with one worker:

- ``--trace 0`` times fresh child processes that import the simulator and
  build the workload's first testbed (``setup_s``, median), then repeats
  the workload's measurement list until ``--seconds`` have passed.  It
  reports one pass's host time (``wall_s``, see :func:`_pass_wall`), peak
  resident memory and CoRD's simulated relative throughput
  (``sim_bw_ratio``).
- ``--trace 1`` makes the same unprofiled passes, then one more pass under
  ``cProfile`` with the testbed builders wrapped, and the attribution pass;
  it reports the per-layer metrics (``layers.py``).

Every run checks its outputs: no measurement may fail, the paper's shape
checks must pass, and every pass must reproduce the first pass's
``sim_digest`` (a hash over every simulated output).  The last line of
stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the full record, with its manifest, is written
to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import cProfile
import dataclasses
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

#: Environment knobs that change the measured program; every ``REPRO_*``
#: variable is cleared before the simulator is imported, and these are
#: always recorded (``None`` when unset).
KNOBS = ("REPRO_TELEMETRY", "REPRO_FASTFORWARD", "REPRO_SANITIZE",
         "REPRO_VERIFY_MONITORS", "REPRO_SIM_FASTPATH", "REPRO_BENCH_SCALE",
         "REPRO_BENCH_WORKERS")
#: Fresh processes timed for ``setup_s`` (the median is reported).
SETUP_PROBES = 5
#: Event wakeups per host calibration loop (the best of three is kept).
CALIB_EVENTS = 50_000

#: Workload-specific simulated results: printed on every run, reported
#: with the per-layer metrics, 0 on workloads that do not define them.
SIM_UNITS = {"sim_lat_p50_us": "us", "sim_lat_p99_us": "us",
             "sim_cord_overhead_us": "us", "sim_goodput_gbps": "Gbit/s",
             "sim_drop_ratio": "ratio", "sim_iter_us": "us"}


def _parse(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="iteration-count multiplier (self-test only; shape "
                        "checks decide correctness only at >= 0.5)")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _scrub_knobs() -> dict:
    found = {name: None for name in KNOBS}
    for name in sorted(os.environ):
        if name.startswith("REPRO_"):
            found[name] = os.environ.pop(name)
    return found


# -- manifest ------------------------------------------------------------------


def _git_revision():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _calibrate() -> float:
    """Event wakeups per host second: best of three short runs of
    ``benchmarks/bench_engine_micro.py``'s event-wakeup loop."""
    sys.path.insert(0, str(ROOT / "benchmarks"))
    from bench_engine_micro import bench_event_wakeups

    return max(bench_event_wakeups(CALIB_EVENTS) for _ in range(3))


# -- measuring -----------------------------------------------------------------


def _setup_samples(args) -> list[float]:
    """Seconds from spawning a process to its first testbed being built."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - t0
            child.stdout.read()
            code = child.wait(timeout=120)
        if code != 0 or line.strip() != b"ready":
            raise RuntimeError(f"setup probe exited {code}: {line!r}")
        samples.append(elapsed)
    return samples


def _op_failed(result) -> bool:
    """A measurement fails if any of its messages completed in error."""
    return getattr(result, "failed_msgs", 0) > 0


def _digest(results: dict) -> str:
    h = hashlib.sha256()
    for key, result in results.items():
        body = (dataclasses.asdict(result) if dataclasses.is_dataclass(result)
                else repr(result))
        h.update(json.dumps([list(key), body], sort_keys=True,
                            default=repr).encode())
    return h.hexdigest()


def _run_pass(ops, profiler=None, recorder=None):
    """Run every op once.  Returns (results, seconds per op, failed ops)."""
    gc.collect()
    results = {}
    failed = 0
    times = []
    for op in ops:
        t0 = time.perf_counter()
        if profiler is not None:
            profiler.enable()
        try:
            result = op.run()
        except Exception as exc:  # a failed measurement is counted, not fatal
            result = f"error: {type(exc).__name__}: {exc}"
            failed += 1
        finally:
            if profiler is not None:
                profiler.disable()
            times.append(time.perf_counter() - t0)
        if not isinstance(result, str) and _op_failed(result):
            failed += 1
        results[op.key] = result
        if recorder is not None:
            recorder.harvest()
    return results, times, failed


def _passes(ops, seconds: float):
    """Repeat the measurement list until ``seconds`` have passed.

    Returns the first pass's results, every pass's per-op seconds, every
    pass's digest and the failed-op count.
    """
    op_times, digests, failed = [], [], 0
    first = None
    start = time.perf_counter()
    while not op_times or time.perf_counter() - start < seconds:
        results, times, nfail = _run_pass(ops)
        op_times.append(times)
        digests.append(_digest(results))
        failed += nfail
        if first is None:
            first = results
    return first, op_times, digests, failed


def _pass_wall(op_times) -> float:
    """One pass's host seconds: the sum of every op's second-slowest run.

    On the shared 2-core VMs this benchmark was built on, host speed has a
    floor and bursts of up to 2x faster that last seconds, plus rare
    stalls.  Over three sets of 8-10 runs per workload, the IQR of the
    estimate as a share of its median was at most 0.16 for the per-op
    second-slowest run, against up to 0.24 for per-op medians (they follow
    the bursts) and 0.18 for per-op maxima (they follow the stalls).
    """
    return sum(sorted(col)[-2] if len(col) > 1 else col[0]
               for col in zip(*op_times))


def _trace(workload, ops, args, untraced_wall: float):
    """One profiled pass plus the attribution pass -> per-layer metrics."""
    from layers import BuildRecorder, attribution, fold_profile, make_layer_of
    from repro.perftest.runner import run_stats_snapshot

    profiler = cProfile.Profile()
    before = run_stats_snapshot()
    with BuildRecorder() as recorder:
        results, times, failed = _run_pass(ops, profiler, recorder)
        counters = dict(recorder.totals)
    wall = sum(times)
    after = run_stats_snapshot()
    self_s = fold_profile(profiler, make_layer_of(str(SRC), str(HERE)))

    metrics = {f"self_s.{layer}": (secs, "s") for layer, secs in self_s.items()}
    metrics["profile_overhead"] = (wall / untraced_wall, "ratio")
    metrics["profile_coverage"] = (sum(self_s.values()) / wall, "ratio")
    events = counters["sim.events"]
    skipped = after["ff_events_skipped"] - before["ff_events_skipped"]
    metrics["sim.events"] = (events, "count")
    metrics["sim.ns_per_event"] = (untraced_wall * 1e9 / events, "ns")
    metrics["ff.events_skipped"] = (skipped, "count")
    metrics["ff.skip_share"] = (skipped / (skipped + events), "ratio")
    metrics["ff.jumps"] = (after["ff_jumps"] - before["ff_jumps"], "count")
    for name in ("nic.tx_msgs", "nic.retransmits", "nic.ack_timeouts"):
        metrics[name] = (counters[name], "count")
    metrics["nic.ns_per_msg"] = (
        self_s["hw.nic"] * 1e9 / counters["nic.tx_msgs"]
        if counters["nic.tx_msgs"] else 0.0, "ns")
    for name in ("cpu.syscalls", "fabric.drops", "fabric.ecn_marked", "cc.cnps"):
        metrics[name] = (counters[name], "count")
    metrics["fabric.rxq_peak_bytes"] = (counters["fabric.rxq_peak_bytes"], "B")

    incast_cfg = (workload.incast_probe(args.seed, args.scale)
                  if workload.incast_probe else None)
    stages, probes = attribution(workload.attribution_figures, incast_cfg,
                                 args.seed)
    for name, value in stages.items():
        unit = "records/op" if name == "telemetry.records_per_op" else "ns"
        metrics[name] = (value, unit)
    return results, failed, metrics, probes


def _emit(record: dict, metrics: dict) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    m = record["manifest"]
    path = OUT_DIR / f"{m['workload']}.seed{m['seed']}.trace{m['trace']}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True, default=repr)
                    + "\n")
    for key in ("workload", "seed", "git_revision", "source_sha256", "python",
                "nproc", "calib.events_per_s", "passes"):
        print(f"{key}: {m[key]}")
    print(f"knobs: {json.dumps(m['knobs'], sort_keys=True)}")
    for line in record["checks"]:
        print(line)
    for key in ("sim_digest", "ops_attempted", "ops_failed", "checks_failed"):
        print(f"{key}: {record[key]}")
    for name, (value, unit) in {**record["sim"], **metrics}.items():
        print(f"{name}: {value!r} {unit}")
    print(f"record: {path.relative_to(ROOT)}")


def main(argv=None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: simulator sources not found under {SRC}",
              file=sys.stderr)
        return 2
    knobs = _scrub_knobs()
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    args = _parse(argv, WORKLOADS)
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        workload.build_first(args.seed)
        print("ready", flush=True)
        return 0

    setup = _setup_samples(args) if args.trace == 0 else []
    calib = _calibrate()
    ops = workload.ops(args.seed, args.scale)
    results, op_times, digests, failed = _passes(ops, args.seconds)
    attempted = len(ops) * len(op_times)
    wall = _pass_wall(op_times)
    if args.trace:
        traced, tfailed, metrics, probes = _trace(workload, ops, args, wall)
        digests.append(_digest(traced))
        attempted += len(ops) + probes
        failed += tfailed

    # Simulated metrics and shape checks need every op's result.
    sim, checks = (None, []) if failed else workload.summarize(results)
    checks_failed = sum(not c.passed for c in checks)
    deterministic = len(set(digests)) == 1
    correct = (failed == 0 and sim is not None and deterministic
               and (checks_failed == 0 or args.scale < 0.5))
    sim_units = {**SIM_UNITS, "sim_bw_ratio": "ratio"}
    sim_metrics = {name: (value, sim_units[name])
                   for name, value in (sim or {}).items()}
    if args.trace:
        for name, unit in SIM_UNITS.items():
            metrics[name] = sim_metrics.get(name, (0.0, unit))
    else:
        metrics = {
            "wall_s": (wall, "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "sim_bw_ratio": sim_metrics.get("sim_bw_ratio", (0.0, "ratio")),
        }

    record = {
        "manifest": {
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "scale": args.scale,
            "git_revision": _git_revision(), "source_sha256": _source_digest(),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "knobs": knobs, "calib.events_per_s": calib,
            "passes": len(op_times),
            "pass_wall_s": [sum(times) for times in op_times],
            "op_seconds": op_times,
            "setup_samples_s": setup,
        },
        "sim_digest": digests[0],
        "deterministic": deterministic,
        "ops_attempted": attempted,
        "ops_failed": failed,
        "checks_failed": checks_failed,
        "checks": [c.line() for c in checks],
        "sim": sim_metrics,
        "metrics": metrics,
    }
    _emit(record, metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
