"""Regression tests for benchmark plumbing (repro.bench_support).

Two bugs fixed here and pinned down:

1. The results directory was frozen at import time, so setting
   ``REPRO_RESULTS_DIR`` after importing the module (the natural order in
   a test or CI harness) was silently ignored; ``results_dir()`` reads it
   at call time.
2. ``bench_scale()`` let ``float()`` errors escape raw and accepted
   negative scales; both now raise a friendly :class:`ConfigError`.
"""

import pytest

import repro.bench_support as bs
from repro.errors import ConfigError


def test_results_dir_reads_env_at_call_time(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "late"))
    assert bs.results_dir() == tmp_path / "late"


def test_results_dir_default(monkeypatch):
    monkeypatch.delenv("REPRO_RESULTS_DIR", raising=False)
    assert str(bs.results_dir()) == "results"


def test_emit_writes_into_late_results_dir(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "out"))
    bs.emit("sample", "hello table")
    assert (tmp_path / "out" / "sample.txt").read_text() == "hello table\n"
    assert "hello table" in capsys.readouterr().out


def test_bench_scale_default(monkeypatch):
    monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
    assert bs.bench_scale() == 1.0
    monkeypatch.setenv("REPRO_BENCH_SCALE", "   ")
    assert bs.bench_scale() == 1.0


def test_bench_scale_parses_numbers(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_SCALE", "0.25")
    assert bs.bench_scale() == 0.25
    assert bs.scaled(100) == 25
    assert bs.scaled(1) == 1  # minimum floor


@pytest.mark.parametrize("raw", ["fast", "1.0x", "ten", "0..5"])
def test_bench_scale_rejects_non_numeric(monkeypatch, raw):
    monkeypatch.setenv("REPRO_BENCH_SCALE", raw)
    with pytest.raises(ConfigError, match="must be a number"):
        bs.bench_scale()


def test_bench_scale_rejects_negative(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_SCALE", "-0.5")
    with pytest.raises(ConfigError, match="non-negative"):
        bs.bench_scale()


def test_bench_workers_rejects_garbage(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_WORKERS", "many")
    with pytest.raises(ConfigError, match="must be an integer"):
        bs.bench_workers()


def test_bench_workers_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_WORKERS", "3")
    assert bs.bench_workers() == 3
    monkeypatch.setenv("REPRO_BENCH_WORKERS", "0")  # clamped to >= 1
    assert bs.bench_workers() == 1
    monkeypatch.delenv("REPRO_BENCH_WORKERS", raising=False)
    assert bs.bench_workers() >= 1


# Sweep points must be module-level functions (pickled by reference into
# fork workers).

def _env_probe_point(tag):
    import gc
    import os

    return (tag, os.environ.get("REPRO_TEST_SWEEP_FLAG"), gc.get_threshold()[0])


def _lat_point(seed):
    from repro.perftest.runner import PerftestConfig, run_lat

    cfg = PerftestConfig(system="L", op="send", client="bypass",
                         server="bypass", iters=30, warmup=5, seed=seed)
    r = run_lat(cfg, 64)
    return (r.avg_us, r.p50_ns, r.p99_ns, len(r.samples))


def test_parallel_sweep_worker_env_and_init_propagation(monkeypatch):
    """fork workers inherit the parent's environment, and _worker_init's
    gc retuning is applied in every worker (but not in the parent)."""
    monkeypatch.setenv("REPRO_TEST_SWEEP_FLAG", "inherited")
    out = bs.parallel_sweep(_env_probe_point, ["a", "b", "c"], workers=2)
    assert [tag for tag, _env, _gc in out] == ["a", "b", "c"]
    assert all(env == "inherited" for _tag, env, _gc in out)
    assert all(gen0 == 200_000 for _tag, _env, gen0 in out)
    import gc

    assert gc.get_threshold()[0] != 200_000


def test_parallel_sweep_bit_identical_across_worker_counts():
    """Order and values are bit-identical for serial, 2 and 4 workers."""
    seeds = [7, 11, 13, 17, 19]
    serial = bs.parallel_sweep(_lat_point, seeds, workers=1)
    for workers in (2, 4):
        assert bs.parallel_sweep(_lat_point, seeds, workers=workers) == serial


def test_parallel_sweep_merges_worker_run_stats():
    """Per-point run stats cross the process boundary and land in the
    parent's RUN_STATS, identically to a serial run."""
    from repro.perftest.runner import reset_run_stats, run_stats_snapshot

    seeds = [7, 11, 13]
    reset_run_stats()
    bs.parallel_sweep(_lat_point, seeds, workers=1)
    serial = run_stats_snapshot()
    reset_run_stats()
    bs.parallel_sweep(_lat_point, seeds, workers=2)
    fanned = run_stats_snapshot()
    assert serial["measurements"] == len(seeds)
    assert fanned == serial


def test_figure_bench_records_json(monkeypatch, tmp_path):
    path = tmp_path / "bench.json"
    monkeypatch.setenv("REPRO_BENCH_JSON", str(path))
    monkeypatch.delenv("REPRO_FASTFORWARD", raising=False)
    with bs.figure_bench("figX"):
        bs.parallel_sweep(_lat_point, [7, 11], workers=1)
    monkeypatch.setenv("REPRO_FASTFORWARD", "1")
    with bs.figure_bench("figX"):
        bs.parallel_sweep(_lat_point, [7, 11], workers=1)
    import json

    data = json.loads(path.read_text())
    modes = data["benchmarks"]["figX"]
    assert modes["base"]["measurements"] == 2
    assert modes["ff"]["measurements"] == 2
    assert modes["base"]["fastforward"] is False
    assert modes["ff"]["fastforward"] is True
    assert modes["ff"]["ff_jumps"] > 0
    assert data["summary"]["paired_benchmarks"] == ["figX"]
    assert data["summary"]["speedup"] > 0


def test_figure_bench_records_nothing_without_json_path(monkeypatch, tmp_path):
    monkeypatch.delenv("REPRO_BENCH_JSON", raising=False)
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    assert bs.bench_json_path() is None
    assert bs.record_figure_bench("figX", {"wall_s": 1.0}) is None
    with bs.figure_bench("figX"):
        bs.parallel_sweep(_lat_point, [7], workers=1)
    assert list(tmp_path.iterdir()) == []


# -- tools/check_bench_budget.py (the CI gate over the recorded JSON) --------

def _budget_tool():
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "tools" / "check_bench_budget.py"
    spec = importlib.util.spec_from_file_location("check_bench_budget", path)
    mod = importlib.util.module_from_spec(spec)
    assert spec.loader is not None
    spec.loader.exec_module(mod)
    return mod


def _write_record(tmp_path, benchmarks):
    import json

    data = {"benchmarks": benchmarks, "summary": bs._summarize(benchmarks)}
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(data))
    return path


def _entry(wall_s, ff, scale=1.0, workers=1):
    return {"wall_s": wall_s, "scale": scale, "workers": workers,
            "fastforward": ff}


def test_budget_flags_mismatched_scale_pair(tmp_path):
    tool = _budget_tool()
    path = _write_record(tmp_path, {
        "fig1": {"base": _entry(40.0, False), "ff": _entry(4.0, True)},
        "fig3": {"base": _entry(10.0, False),
                 "ff": _entry(0.5, True, scale=0.05)},
    })
    problems = tool.check(path, 1.0, None, ["fig1", "fig3"])
    assert any("mismatched" in p and "fig3" in p for p in problems)
    # The mismatched pair stays out of the aggregate speedup.
    assert not any("fig1" in p for p in problems)
