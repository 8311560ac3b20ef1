"""The protocol verifier: monitors, choice points, explorer, mutants, CLI."""

import json
import os

import pytest

from repro.errors import ProtocolViolation
from repro.sanitize import drain_global_findings, findings_of
from repro.verify import (
    MUTANTS,
    SCENARIOS,
    Chooser,
    Explorer,
    ProtocolMonitor,
    ScheduleDivergence,
    ScriptedChooser,
)


def _run_scenario(name, monitor=None, chooser=None):
    scen = SCENARIOS[name]()
    if monitor is not None:
        scen.sim.attach_monitor(monitor)
    scen.prepare()
    if chooser is not None:
        scen.sim.attach_chooser(chooser)
    scen.go()
    return scen


def _observable(scen):
    a, b = scen.endpoints
    return (
        scen.sim.now,
        tuple((e.wr_id, e.status.value) for e in a.send_cq.entries),
        tuple((e.wr_id, e.status.value) for e in a.recv_cq.entries),
        tuple((e.wr_id, e.status.value) for e in b.recv_cq.entries),
    )


# -- monitors ---------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_monitors_clean_on_unmutated_scenarios(name):
    scen = SCENARIOS[name]()
    monitor = ProtocolMonitor(scen.sim, strict=True)
    scen.sim.attach_monitor(monitor)
    scen.prepare()
    scen.go()
    monitor.finalize()
    assert monitor.findings == []


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_monitors_do_not_change_results(name):
    base = _observable(_run_scenario(name))
    scen = SCENARIOS[name]()
    scen.sim.attach_monitor(ProtocolMonitor(scen.sim, strict=True))
    scen.prepare()
    scen.go()
    assert _observable(scen) == base


def test_monitor_collect_mode_accumulates_instead_of_raising():
    with MUTANTS["expected_psn_rewind"].apply():
        scen = SCENARIOS["two_sends"]()
        monitor = ProtocolMonitor(scen.sim, strict=False)
        scen.sim.attach_monitor(monitor)
        scen.prepare()
        # The rewind only bites on a non-default schedule in this world;
        # force the first alternative like the explorer would.
        scen.sim.attach_chooser(ScriptedChooser((1,)))
        scen.go()
    assert monitor.findings
    assert all(f.rule == "PROTO102" for f in monitor.findings)
    assert all(f.source == "monitor" for f in monitor.findings)


def test_monitor_strict_mode_raises():
    with MUTANTS["flush_reverse"].apply():
        scen = SCENARIOS["flush_order"]()
        scen.sim.attach_monitor(ProtocolMonitor(scen.sim, strict=True))
        scen.prepare()
        with pytest.raises(ProtocolViolation, match="PROTO104"):
            scen.go()


# -- choice points ----------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_default_chooser_is_bit_identical(name):
    base = _observable(_run_scenario(name))
    assert _observable(_run_scenario(name, chooser=Chooser())) == base
    assert _observable(_run_scenario(name,
                                     chooser=ScriptedChooser(()))) == base


def test_scripted_chooser_records_a_replayable_trail():
    scen = SCENARIOS["retry_exhaustion"]()
    scen.prepare()
    chooser = ScriptedChooser(())
    scen.sim.attach_chooser(chooser)
    from repro.verify import ChoiceFaultInjector

    scen.fabric.inject_faults(ChoiceFaultInjector(chooser, budget=2))
    scen.go()
    trail = list(chooser.trail)
    assert trail, "a lossy RC scenario must hit choice points"
    assert all(0 <= c < n for n, c in trail)
    assert chooser.chosen() == tuple(c for _n, c in trail)


def test_scripted_chooser_rejects_out_of_range_prefix():
    chooser = ScriptedChooser((7,))
    with pytest.raises(ScheduleDivergence):
        chooser.choose(2, ("a", "b"))


# -- explorer ---------------------------------------------------------------------


#: (schedules run, pruned, max depth) of each scenario's full exploration.
#: Any change to which records tie, or to how the state fingerprint sees
#: the heap, moves these.
EXPLORE_COUNTS = {
    "two_sends": (3, 1, 2),
    "pipelined_sends": (1, 0, 0),
    "retry_exhaustion": (64, 17, 12),
    "atomic_replay": (14, 4, 6),
    "rnr_retry": (1, 0, 0),
    "flush_order": (1, 0, 0),
    "read_drop": (3, 0, 2),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_exploration_is_clean_on_the_real_tree(name):
    result = Explorer(SCENARIOS[name], max_schedules=5000).explore()
    assert result.ok, result.counterexample
    assert result.exhausted, "scenario tree must be fully explorable"
    assert (result.schedules_run, result.pruned, result.max_depth) \
        == EXPLORE_COUNTS[name]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_exploration_is_unchanged_by_the_sanitizer(name, monkeypatch):
    # The sanitizer observes the chooser's schedules; it must not steer them.
    def stats():
        result = Explorer(SCENARIOS[name], max_schedules=5000).explore()
        return (result.ok, result.schedules_run, result.pruned,
                result.max_depth)

    monkeypatch.setenv("REPRO_SANITIZE", "0")
    plain = stats()
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    sanitized = stats()
    # Non-default schedules reorder same-timestamp ties on purpose, so
    # their SIM101 races are expected and deliberately not asserted on.
    drain_global_findings()
    assert sanitized == plain


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_default_schedule_is_sanitizer_clean(name, monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    scen = _run_scenario(name, chooser=Chooser())
    # Non-vacuous: the sanitizer really observed the chooser's dispatches.
    assert scen.sim._sanitize._dispatch_id > 0
    drain_global_findings()
    assert findings_of(scen.sim) == []


def test_exploration_covers_drop_nondeterminism():
    result = Explorer(SCENARIOS["read_drop"], max_schedules=100).explore()
    # no-drop, drop the read_req, drop the read_resp.
    assert result.schedules_run == 3
    assert result.exhausted


def test_dedup_prunes_but_preserves_verdicts():
    spec = SCENARIOS["retry_exhaustion"]
    full = Explorer(spec, max_schedules=5000, dedup=False).explore()
    pruned = Explorer(spec, max_schedules=5000, dedup=True).explore()
    assert full.ok and pruned.ok and full.exhausted and pruned.exhausted
    assert pruned.pruned > 0
    assert pruned.schedules_run <= full.schedules_run


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_every_mutant_is_caught_with_a_counterexample(name):
    mutant = MUTANTS[name]
    with mutant.apply():
        for sname in mutant.scenarios:
            result = Explorer(SCENARIOS[sname],
                              max_schedules=5000).explore()
            if not result.ok:
                break
    assert not result.ok, f"mutant {name} escaped exploration"
    assert result.counterexample.rule == mutant.rule
    assert result.counterexample.schedule is not None


def test_counterexample_replay_writes_artifacts(tmp_path):
    mutant = MUTANTS["atomic_reexec"]
    with mutant.apply():
        result = Explorer(SCENARIOS["atomic_replay"], max_schedules=5000,
                          artifacts_dir=str(tmp_path)).explore()
    cex = result.counterexample
    assert cex is not None and cex.rule == "PROTO106"
    with open(cex.trace_path, encoding="utf-8") as fh:
        trace = json.load(fh)
    assert trace["traceEvents"], "replay must produce a non-empty trace"
    with open(cex.schedule_path, encoding="utf-8") as fh:
        sched = json.load(fh)
    assert sched["schedule"] == list(cex.schedule)
    assert sched["rule"] == "PROTO106"
    assert "PROTO106" in sched["replay_violation"]


def test_mutants_restore_the_original_methods():
    from repro.hw.nic import Nic
    from repro.verbs.qp import QueuePair

    before = (Nic._send_ack, Nic._replay_atomic, Nic._ack_timer_fired,
              QueuePair._flush_with_errors)
    for mutant in MUTANTS.values():
        with mutant.apply():
            pass
    after = (Nic._send_ack, Nic._replay_atomic, Nic._ack_timer_fired,
             QueuePair._flush_with_errors)
    assert before == after


# -- CLI --------------------------------------------------------------------------


def test_cli_verify_explore_clean_and_mutant(tmp_path, capsys):
    from repro.cli import main

    rc = main(["verify", "explore", "--scenario", "two_sends", "read_drop"])
    out = capsys.readouterr().out
    assert rc == 0 and "clean" in out

    art = str(tmp_path / "artifacts")
    rc = main(["verify", "explore", "--scenario", "flush_order",
               "--mutant", "flush_reverse", "--artifacts", art,
               "--format", "json"])
    out = capsys.readouterr().out
    assert rc == 1
    doc = json.loads(out)
    (entry,) = doc
    assert entry["counterexample"]["rule"] == "PROTO104"
    assert os.path.exists(entry["counterexample"]["trace"])


def test_cli_verify_monitors(capsys):
    from repro.cli import main

    rc = main(["verify", "monitors", "--scenario", "two_sends"])
    out = capsys.readouterr().out
    assert rc == 0 and "0 violation(s)" in out


def test_cli_verify_lint_fixture(tmp_path, capsys):
    from repro.cli import main

    fixture = os.path.join(os.path.dirname(__file__), "fixtures",
                           "proto_violations.py")
    target = tmp_path / "src" / "repro" / "hw" / "_bad.py"
    target.parent.mkdir(parents=True)
    with open(fixture, encoding="utf-8") as fh:
        target.write_text(fh.read())
    rc = main(["verify", "lint", str(target), "--format", "json"])
    out = capsys.readouterr().out
    assert rc == 1
    doc = json.loads(out)
    assert {f["rule"] for f in doc["findings"]} == {
        "PROTO001", "PROTO002", "PROTO003", "PROTO004",
    }


def test_cli_verify_lint_tree_is_clean(capsys):
    from repro.cli import main

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    rc = main(["verify", "lint", "--root", root])
    capsys.readouterr()
    assert rc == 0


# -- environment attachment -------------------------------------------------------


def test_env_var_attaches_monitor(monkeypatch):
    from repro.sim.engine import Simulator

    monkeypatch.setenv("REPRO_VERIFY_MONITORS", "1")
    sim = Simulator(seed=1)
    assert isinstance(sim._monitor, ProtocolMonitor)
    monkeypatch.delenv("REPRO_VERIFY_MONITORS")
    assert Simulator(seed=1)._monitor is None
