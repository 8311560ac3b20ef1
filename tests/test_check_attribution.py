"""Coverage for tools/check_attribution.py (the CI attribution gate).

The gate recomputes every pinned probe and compares it against the
committed record, so it is only worth running if a record it did not
produce itself makes it fail: a copy of the committed record passes, and
the same copy with one stage total moved by a single nanosecond fails
on exactly that probe.
"""

import importlib.util
import json
import os
from pathlib import Path

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "check_attribution.py")
RECORD = os.path.join(ROOT, "results", "BENCH_attribution.json")

spec = importlib.util.spec_from_file_location("check_attribution", TOOL)
ca = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ca)


@pytest.fixture
def record(tmp_path) -> Path:
    path = tmp_path / "BENCH_attribution.json"
    path.write_text(Path(RECORD).read_text())
    return path


def _gate(path: Path) -> int:
    return ca.run_gate(path, ["fig3"], rel_tol=0.05, min_explained=0.95,
                       update=False)


def test_committed_record_passes(record):
    assert _gate(record) == 0


def test_one_nanosecond_on_one_stage_fails(record):
    doc = json.loads(record.read_text())
    doc["probes"]["fig3/CD-CD/lat/4096"]["stages"]["post"]["total_ns"] += 1
    record.write_text(json.dumps(doc))
    assert _gate(record) == 1
