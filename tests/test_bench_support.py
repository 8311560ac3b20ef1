"""Regression tests for benchmark plumbing (repro.bench_support).

Two bugs fixed here and pinned down:

1. The results directory was frozen at import time, so setting
   ``REPRO_RESULTS_DIR`` after importing the module (the natural order in
   a test or CI harness) was silently ignored; ``results_dir()`` reads it
   at call time.
2. ``bench_scale()`` let ``float()`` errors escape raw and accepted
   negative scales; both now raise a friendly :class:`ConfigError`.
"""

import os

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


def test_smoke_scale_emit_leaves_results_untouched(monkeypatch, tmp_path,
                                                   capsys):
    # A scaled run without REPRO_RESULTS_DIR must not overwrite the
    # committed records: it writes to a temporary directory it prints.
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("REPRO_RESULTS_DIR", raising=False)
    monkeypatch.setenv("REPRO_BENCH_SCALE", "0.05")
    monkeypatch.setattr(bs.tempfile, "tempdir", str(tmp_path / "tmp"))
    bs.emit("sample", "smoke table")
    bs.emit_record("BENCH_sample", {"x": 1})
    assert not (tmp_path / "results").exists()
    smoke = tmp_path / "tmp" / f"repro-results-{os.getpid()}"
    assert str(smoke) in capsys.readouterr().out
    assert (smoke / "sample.txt").read_text() == "smoke table\n"
    assert (smoke / "BENCH_sample.json").exists()


@pytest.mark.parametrize("scale", ["", "1", "1.0"])
def test_full_scale_emit_writes_results(monkeypatch, tmp_path, scale):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("REPRO_RESULTS_DIR", raising=False)
    monkeypatch.setenv("REPRO_BENCH_SCALE", scale)
    bs.emit("sample", "full table")
    assert (tmp_path / "results" / "sample.txt").read_text() == "full table\n"


def test_explicit_results_dir_wins_at_smoke_scale(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "out"))
    monkeypatch.setenv("REPRO_BENCH_SCALE", "0.05")
    bs.emit("sample", "smoke table")
    assert (tmp_path / "out" / "sample.txt").read_text() == "smoke table\n"


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


# -- tools/check_bench_budget.py (times its own fig3 base/ff pair) -----------

def _budget_tool():
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "tools" / "check_bench_budget.py"
    spec = importlib.util.spec_from_file_location("check_bench_budget", path)
    mod = importlib.util.module_from_spec(spec)
    assert spec.loader is not None
    spec.loader.exec_module(mod)
    return mod


def test_budget_passes_a_fast_pair():
    assert _budget_tool().verdict(base_s=3.0, ff_s=1.0) == []


def test_budget_fails_a_small_speedup():
    (problem,) = _budget_tool().verdict(base_s=1.4, ff_s=1.0)
    assert "speedup 1.40x is below 1.5x" in problem


def test_budget_fails_a_slow_fast_forward_sweep():
    (problem,) = _budget_tool().verdict(base_s=1000.0, ff_s=301.0)
    assert "301.0 s, over the 300 s budget" in problem
