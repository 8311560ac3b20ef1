"""Coverage for the incast shape checks (``benchmarks/bench_incast.py``).

The checks read the record the benchmark writes, so they run here on the
committed full-scale ``results/BENCH_incast.json``: it must pass, and
each invariant must catch its own seeded regression — exactly one failed
check per mutation, so no check hides behind another.
"""

import copy
import importlib.util
import json
import os

import pytest

from repro.bench_support import report_checks

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "benchmarks", "bench_incast.py")
RECORD = os.path.join(ROOT, "results", "BENCH_incast.json")

spec = importlib.util.spec_from_file_location("bench_incast", BENCH)
bi = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bi)


@pytest.fixture(scope="module")
def record():
    with open(RECORD) as fh:
        return json.load(fh)


def _failed(doc):
    return [c.label for c in bi.checks(doc) if not c.passed]


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
    (_above_link, "BP: aggregate receive rate capped at one link"),
    (_rising_per_flow, "CD: per-flow goodput non-increasing in N"),
    (_unbounded_drop, "BP: unbounded buffers never drop"),
    (_bounded_no_drops, "bounded buffer tail-drops (drops > 0)"),
    (_unrecovered_drops, "bounded-buffer drops recover via retransmit"),
    (_cc_off_no_drops, "DCQCN cuts tail drops >=10x vs CC-off at N=16"),
    (_weak_recovery, "DCQCN recovers >=80% of unbounded goodput at N=16"),
    (_weak_drop_cut, "DCQCN cuts tail drops >=10x vs CC-off at N=16"),
    (_failed_msgs, "DCQCN run completes every message (no RETRY_EXC_ERR)"),
    (_inert_loop, "DCQCN loop engaged (ECN marks and CNPs observed)"),
]


def test_committed_record_passes(record):
    assert record["scale"] == 1.0
    assert _failed(record) == []
    # The committed table prints exactly these checks, in this order.
    with open(os.path.join(ROOT, "results", "incast_fan_in.txt")) as fh:
        table = fh.read()
    lines = [c.line() for c in bi.checks(record)]
    assert table.endswith("\n".join(lines) + "\n")


@pytest.mark.parametrize("mutate,check", MUTATIONS,
                         ids=[m.__name__.lstrip("_") for m, _ in MUTATIONS])
def test_each_invariant_catches_its_regression(record, mutate, check):
    doc = copy.deepcopy(record)
    mutate(doc)
    assert _failed(doc) == [check]


def test_full_scale_report_fails_on_a_regressed_record(record, monkeypatch):
    monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
    doc = copy.deepcopy(record)
    _inert_loop(doc)
    with pytest.raises(AssertionError, match="1 shape check"):
        report_checks("incast", bi.checks(doc))


def test_smoke_records_get_the_relaxed_floors(record):
    doc = copy.deepcopy(record)
    cc = doc["congestion"]
    cc["dcqcn"]["aggregate_gbit"] = 0.77 * cc["reference"]["aggregate_gbit"]
    assert len(_failed(doc)) == 1
    doc["scale"] = 0.05
    assert _failed(doc) == []
