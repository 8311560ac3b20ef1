"""Coverage for tools/check_results.py (the committed-results gate).

Regenerating every result takes a minute, so CI runs the gate itself;
here the comparison must name each seeded difference, and the
attribution record (under a second to regenerate) must reproduce.
"""

import importlib.util
import json
import os
import shutil

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "check_results.py")
RECORD = "BENCH_attribution.json"

spec = importlib.util.spec_from_file_location("check_results", TOOL)
cr = importlib.util.module_from_spec(spec)
spec.loader.exec_module(cr)

spec = importlib.util.spec_from_file_location(
    "bench_attribution", os.path.join(ROOT, "benchmarks", "bench_attribution.py"))
ba = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ba)


def _files(path, files):
    path.mkdir()
    for name, text in files.items():
        (path / name).write_text(text)
    return path


def _regenerate_attribution(tmp_path, monkeypatch):
    """The committed attribution record, and a freshly regenerated one."""
    committed = tmp_path / "committed"
    committed.mkdir()
    shutil.copy(os.path.join(ROOT, "results", RECORD), committed)
    fresh = tmp_path / "fresh"
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(fresh))
    ba.main()
    return committed, fresh


def test_identical_tables_pass(tmp_path):
    files = {"fig3.txt": "x  0.547\n", "rec.json": "{}\n"}
    a = _files(tmp_path / "a", files)
    b = _files(tmp_path / "b", files)
    assert cr.compare(a, ["fig3.txt", "rec.json"], b) == []


def test_each_table_difference_is_named(tmp_path):
    committed = _files(tmp_path / "a", {"fig3.txt": "x  0.547\n",
                                        "fig4.txt": "y\n"})
    fresh = _files(tmp_path / "b", {"fig3.txt": "x  0.548\n",
                                    "fig5.txt": "z\n"})
    problems = cr.compare(committed, ["fig3.txt", "fig4.txt"], fresh)
    assert [p.split(":")[0] for p in problems] == \
        ["fig4.txt", "fig5.txt", "fig3.txt"]
    assert problems[0] == "fig4.txt: tracked but no script produced it"
    assert "-x  0.547" in problems[2] and "+x  0.548" in problems[2]


def test_tracked_file_no_script_reproduces_is_named(tmp_path):
    committed = _files(tmp_path / "a", {"fig3.txt": "x\n",
                                        "BENCH_old.json": "{}\n"})
    fresh = _files(tmp_path / "b", {"fig3.txt": "x\n"})
    problems = cr.compare(committed, ["BENCH_old.json", "fig3.txt"], fresh)
    assert problems == ["BENCH_old.json: tracked but no script produced it"]


def test_committed_attribution_record_regenerates(tmp_path, monkeypatch):
    committed, fresh = _regenerate_attribution(tmp_path, monkeypatch)
    assert cr.compare(committed, [RECORD], fresh) == []


def test_one_nanosecond_on_one_stage_total_fails(tmp_path, monkeypatch):
    committed, fresh = _regenerate_attribution(tmp_path, monkeypatch)
    path = committed / RECORD
    doc = json.loads(path.read_text())
    doc["probes"]["fig3/CD-CD/lat/4096"]["stages"]["post"]["total_ns"] += 1
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    (problem,) = cr.compare(committed, [RECORD], fresh)
    assert problem.startswith(f"{RECORD}: differs")


def test_result_scripts_write_every_record():
    names = {p.name for p in cr.result_scripts()}
    assert {"bench_attribution.py", "bench_incast.py",
            "bench_fig3_latency_overhead.py"} <= names
    # The engine microbenchmark records host wall time: never committed.
    assert "bench_engine_micro.py" not in names
