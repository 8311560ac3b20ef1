"""Engine microbenchmarks: raw event-loop throughput, tracked per PR.

Measures the primitives every figure benchmark is built from:

- ``resumes_per_sec``   — scalar-yield sleeps (pooled resume records);
- ``timeouts_per_sec``  — the same loop yielding real ``Timeout`` events,
  which scalar yields replace on the hot paths;
- ``spawns_per_sec``    — detached ``sim.spawn`` processes started, slept
  once and finished (the per-message NIC/IRQ work pattern);
- ``events_per_sec``    — succeed-driven Event wakeups (store/CQ style);
- ``store_hops_per_sec``— put→get rendezvous through a ``Store``;
- ``resource_grants_per_sec`` — uncontended capacity-1 holds through the
  hold protocol (``try_hold``/``release``);
- ``core_run_ns_<sys>``  — host ns per uncontended ``Core.run`` on system
  A (turbo: DVFS governor on) and L (nominal frequency);
- ``core_syscall_ns_<sys>`` — the same for ``Core.syscall`` (A adds the
  lognormal jitter draw and the DVFS idle credit).

Writes ``results/BENCH_engine.json`` so the trajectory is visible across
PRs.  Run directly (``python benchmarks/bench_engine_micro.py``) or via
pytest.
"""

from __future__ import annotations

import json
import time

from repro.bench_support import results_dir, scaled
from repro.hw.cpu import Core
from repro.hw.profiles import get_profile
from repro.sim import Simulator
from repro.sim.resources import Resource
from repro.sim.store import Store

#: Operations per measurement (scaled by REPRO_BENCH_SCALE).
N = 200_000


def _rate(n: int, seconds: float) -> float:
    return n / seconds if seconds > 0 else float("inf")


def bench_scalar_resumes(n: int) -> float:
    sim = Simulator()

    def sleeper():
        for _ in range(n):
            yield 1.0

    sim.process(sleeper())
    t0 = time.perf_counter()
    sim.run()
    return _rate(n, time.perf_counter() - t0)


def bench_timeout_events(n: int) -> float:
    sim = Simulator()

    def sleeper():
        timeout = sim.timeout
        for _ in range(n):
            yield timeout(1.0)

    sim.process(sleeper())
    t0 = time.perf_counter()
    sim.run()
    return _rate(n, time.perf_counter() - t0)


def bench_spawns(n: int) -> float:
    sim = Simulator()

    def body():
        yield 1.0

    def spawner():
        spawn = sim.spawn
        for _ in range(n):
            spawn(body())
            yield 1.0

    sim.process(spawner())
    t0 = time.perf_counter()
    sim.run()
    return _rate(n, time.perf_counter() - t0)


def bench_event_wakeups(n: int) -> float:
    sim = Simulator()

    def waker(ev_box):
        for _ in range(n):
            ev_box[0] = sim.event()
            ev_box[0].succeed(None)
            yield ev_box[0]

    sim.process(waker([None]))
    t0 = time.perf_counter()
    sim.run()
    return _rate(n, time.perf_counter() - t0)


def bench_store_hops(n: int) -> float:
    sim = Simulator()
    store = Store(sim, name="micro")

    def producer():
        for i in range(n):
            yield store.put(i)
            yield 1.0

    def consumer():
        for _ in range(n):
            yield store.get()

    sim.process(producer())
    sim.process(consumer())
    t0 = time.perf_counter()
    sim.run()
    return _rate(n, time.perf_counter() - t0)


def bench_resource_grants(n: int) -> float:
    sim = Simulator()
    res = Resource(sim, capacity=1, name="micro")

    def worker():
        for _ in range(n):
            tok = res.try_hold()
            if tok is None:
                tok = yield from res.acquire()
            yield 1.0
            res.release(tok)

    sim.process(worker())
    t0 = time.perf_counter()
    sim.run()
    return _rate(n, time.perf_counter() - t0)


def bench_core_ns(n: int, system: str, op: str) -> float:
    """Host ns per uncontended ``Core.run(100 ns)`` or ``Core.syscall()``."""
    sim = Simulator(seed=1)
    core = Core(sim, get_profile(system))

    def thread():
        call = core.run if op == "run" else core.syscall
        arg = 100.0 if op == "run" else 0.0
        for _ in range(n):
            yield from call(arg)

    sim.process(thread())
    t0 = time.perf_counter()
    sim.run()
    return (time.perf_counter() - t0) / n * 1e9


def run_all(n: int | None = None) -> dict:
    n = scaled(N) if n is None else n
    results = {
        "n_ops": n,
        "resumes_per_sec": bench_scalar_resumes(n),
        "timeouts_per_sec": bench_timeout_events(n),
        "spawns_per_sec": bench_spawns(n),
        "events_per_sec": bench_event_wakeups(n),
        "store_hops_per_sec": bench_store_hops(n),
        "resource_grants_per_sec": bench_resource_grants(n),
    }
    for system in ("A", "L"):
        for op in ("run", "syscall"):
            results[f"core_{op}_ns_{system}"] = bench_core_ns(n, system, op)
    results["scalar_yield_speedup"] = (
        results["resumes_per_sec"] / results["timeouts_per_sec"]
    )
    return results


def emit_json(results: dict) -> None:
    outdir = results_dir()
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "BENCH_engine.json"
    path.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {path}")


def test_engine_micro():
    results = run_all()
    for key, value in results.items():
        print(f"{key:>24}: {value:,.0f}" if "per_sec" in key or "_ns_" in key
              else f"{key:>24}: {value}")
    emit_json(results)
    # Scalar yields must actually be faster than yielding Timeouts.
    assert results["resumes_per_sec"] > results["timeouts_per_sec"]


if __name__ == "__main__":
    test_engine_micro()
