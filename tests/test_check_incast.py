"""Coverage for tools/check_incast.py (the CI incast gate).

The committed full-scale record must pass, and each invariant the gate
keeps must catch its own seeded regression — exactly one problem per
mutation, so no check hides behind another.
"""

import copy
import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "check_incast.py")
RECORD = os.path.join(ROOT, "results", "BENCH_incast.json")

spec = importlib.util.spec_from_file_location("check_incast", TOOL)
ci = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ci)


@pytest.fixture(scope="module")
def record():
    with open(RECORD) as fh:
        return json.load(fh)


def _by_n(doc, label, senders):
    return next(e for e in doc["sweep"][label] if e["senders"] == senders)


def _above_link(doc):
    _by_n(doc, "BP", 4)["aggregate_gbit"] = doc["link_gbit"] * 1.5


def _rising_per_flow(doc):
    _by_n(doc, "CD", 16)["per_flow_mean_gbit"] = \
        2 * _by_n(doc, "CD", 8)["per_flow_mean_gbit"]


def _unbounded_drop(doc):
    _by_n(doc, "BP", 8)["messages_dropped"] = 3


def _bounded_no_drops(doc):
    doc["bounded_buffer"]["messages_dropped"] = 0


def _unrecovered_drops(doc):
    bounded = doc["bounded_buffer"]
    bounded["retransmits"] = bounded["messages_dropped"] - 1


def _cc_off_no_drops(doc):
    doc["congestion"]["cc_off"]["messages_dropped"] = 0


def _weak_recovery(doc):
    cc = doc["congestion"]
    cc["dcqcn"]["aggregate_gbit"] = 0.5 * cc["reference"]["aggregate_gbit"]


def _weak_drop_cut(doc):
    cc = doc["congestion"]
    cc["dcqcn"]["messages_dropped"] = cc["cc_off"]["messages_dropped"] // 2


def _failed_msgs(doc):
    doc["congestion"]["dcqcn"]["failed_msgs"] = 3


def _inert_loop(doc):
    doc["congestion"]["dcqcn"]["cnps"] = 0


MUTATIONS = [
    (_above_link, "exceeds the 100 Gbit/s link"),
    (_rising_per_flow, "per-flow goodput rose"),
    (_unbounded_drop, "unbounded buffer dropped"),
    (_bounded_no_drops, "bounded-buffer control recorded zero drops"),
    (_unrecovered_drops, "but only retransmitted"),
    (_cc_off_no_drops, "CC-off control recorded zero drops"),
    (_weak_recovery, "DCQCN recovered only"),
    (_weak_drop_cut, "DCQCN cut drops only"),
    (_failed_msgs, "DCQCN run failed 3 message(s)"),
    (_inert_loop, "DCQCN loop inert"),
]


def test_committed_record_passes(record, capsys):
    assert ci.check(record) == []
    assert ci.main([RECORD]) == 0
    out = capsys.readouterr().out
    # The sweep, the bounded control and the CC-off/DCQCN pair; the
    # congestion reference re-reads the bypass N=16 sweep point.
    runs = sum(len(v) for v in record["sweep"].values()) + 3
    assert f"OK ({runs} points" in out


@pytest.mark.parametrize("mutate,problem", MUTATIONS,
                         ids=[m.__name__.lstrip("_") for m, _ in MUTATIONS])
def test_each_invariant_catches_its_regression(record, mutate, problem):
    doc = copy.deepcopy(record)
    mutate(doc)
    problems = ci.check(doc)
    assert len(problems) == 1, problems
    assert problem in problems[0]


def test_main_fails_on_a_regressed_record(record, tmp_path, capsys):
    doc = copy.deepcopy(record)
    _inert_loop(doc)
    path = tmp_path / "regressed.json"
    path.write_text(json.dumps(doc))
    assert ci.main([str(path)]) == 1
    assert "1 violation(s)" in capsys.readouterr().out


def test_smoke_records_get_the_relaxed_floors(record):
    doc = copy.deepcopy(record)
    cc = doc["congestion"]
    cc["dcqcn"]["aggregate_gbit"] = 0.77 * cc["reference"]["aggregate_gbit"]
    assert len(ci.check(doc)) == 1
    doc["scale"] = 0.05
    assert ci.check(doc) == []
