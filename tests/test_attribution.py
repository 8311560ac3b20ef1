"""Latency attribution: blame trees, critical path, probes, flamegraphs.

The contract under test: attribution is an exact post-processing pass —
every op's end-to-end latency decomposes into named stage time (queueing
+ service) with zero residual, the queue/service split is consistent with
serial-FIFO service at the contended components, and the pinned
attribution probes reproduce bit-identically run over run (the basis of
the ``tools/check_attribution.py`` CI gate).
"""

import json

import pytest

from repro.faults import FaultPlan
from repro.analysis.critpath import critical_path, format_path, stage_totals
from repro.perftest.runner import (
    PerftestConfig,
    reset_run_stats,
    run_attributed,
    run_lat,
    run_stats_snapshot,
)
from repro.telemetry import (
    ATTRIBUTION_PROBES,
    ProbeSpec,
    aggregate,
    attribute_spans,
    build_spans,
    folded_stacks,
    run_probe,
)
from repro.telemetry.attribution import SERIAL_STAGES, WAIT_STAGES, base_stage


def _lat_blames(iters=30, **kw):
    cfg = PerftestConfig(iters=iters, warmup=5, seed=7, **kw)
    _result, sim, _pair = run_attributed(cfg, 4096, "lat")
    assert sim.trace.dropped == 0
    return attribute_spans(build_spans(sim.trace, op="post_send"))


def _bw_blames(size=32768, iters=60, **kw):
    cfg = PerftestConfig(iters=iters, warmup=10, window=16, seed=7, **kw)
    result, sim, _pair = run_attributed(cfg, size, "bw")
    assert sim.trace.dropped == 0
    return result, attribute_spans(build_spans(sim.trace, op="post_send"))


# -- blame trees --------------------------------------------------------------


def test_every_op_fully_explained_zero_residual():
    for blame in _lat_blames():
        assert blame.complete
        assert blame.residual_ns == pytest.approx(0.0, abs=1e-6)
        assert blame.explained_fraction == pytest.approx(1.0)
        # queue + service telescopes back to each stage's duration.
        for stage in blame.stages:
            assert stage.queue_ns + stage.service_ns == \
                pytest.approx(stage.duration_ns)
            assert stage.queue_ns >= 0 and stage.service_ns >= 0


def test_lat_pingpong_has_no_serial_queueing():
    # One op in flight at a time: no WQE ever waits behind another.
    for blame in _lat_blames():
        for stage in blame.stages:
            if stage.kind == "serial":
                assert stage.queue_ns == pytest.approx(0.0)
                assert stage.blocker is None


def test_cqe_stage_is_pure_wait():
    for blame in _lat_blames():
        for stage in blame.stages:
            if base_stage(stage.name) in WAIT_STAGES:
                assert stage.kind == "wait"
                assert stage.service_ns == pytest.approx(0.0)
                assert stage.queue_ns == pytest.approx(stage.duration_ns)


def test_nic_stages_identical_on_bypass_and_cord():
    """After the doorbell the NIC does the same work whichever dataplane
    posted the WQE (§3/§4): system L, 4 KiB sends, BP<->BP vs CD<->CD."""

    def nic_stages(kind):
        blames = _lat_blames(iters=10, client=kind, server=kind)
        rows = []
        for blame in blames:
            names = [s.name for s in blame.stages]
            first, last = names.index("doorbell"), names.index("cqe")
            rows.append([(s.name, s.service_ns)
                         for s in blame.stages[first:last + 1]])
        return rows

    bp, cd = nic_stages("bypass"), nic_stages("cord")
    assert bp and len(bp) == len(cd)
    for bp_op, cd_op in zip(bp, cd):
        assert [name for name, _ in cd_op] == [name for name, _ in bp_op]
        assert [svc for _, svc in cd_op] == \
            pytest.approx([svc for _, svc in bp_op], abs=1e-6)


def test_windowed_bw_attributes_wire_queueing():
    result, blames = _bw_blames()
    assert result.gbit_per_s > 0
    queued = [
        s for b in blames for s in b.stages
        if s.kind == "serial" and s.queue_ns > 0
    ]
    # A 16-deep window over a serial wire port must queue almost always.
    assert len(queued) >= len(blames) // 2
    for stage in queued:
        assert stage.blocker is not None


def test_serial_split_is_consistent_with_fifo_service():
    """Within one serial server, service intervals never overlap and each
    queued stage's service starts exactly where its blocker's ended."""
    _result, blames = _bw_blames()
    by_stage = {(b.span_id, s.name): s for b in blames for s in b.stages}
    groups = {}
    for b in blames:
        for s in b.stages:
            if s.kind == "serial":
                key = (str(s.host), s.comp, base_stage(s.name))
                groups.setdefault(key, []).append(s)
    assert groups, "expected serial stages in a bw run"
    for items in groups.values():
        items.sort(key=lambda s: s.end_ns)
        for prev, cur in zip(items, items[1:]):
            # FIFO service: no two ops in service at once.
            assert cur.service_start_ns >= prev.end_ns - 1e-9
        for s in items:
            if s.blocker is not None:
                blocker = by_stage[s.blocker]
                assert blocker.end_ns == pytest.approx(s.service_start_ns)


def test_blame_tree_rendering_mentions_blocker():
    _result, blames = _bw_blames()
    queued = next(b for b in blames
                  if any(s.queue_ns > 0 and s.kind == "serial"
                         for s in b.stages))
    text = "\n".join(queued.tree_lines())
    assert "queue" in text and "behind span" in text
    assert "residual 0.0 ns" in text


# -- aggregation --------------------------------------------------------------


def test_aggregate_totals_match_blames():
    blames = _lat_blames()
    tables = aggregate(blames)
    assert len(tables) == 1
    table = tables[0]
    assert table.ops == len(blames)
    assert table.total_latency_ns == pytest.approx(
        sum(b.total_ns for b in blames))
    assert table.residual_ns == pytest.approx(0.0, abs=1e-6)
    assert table.explained_min == pytest.approx(1.0)
    stage_sum = sum(st.total_ns for st in table.stages.values())
    assert stage_sum == pytest.approx(table.total_latency_ns)
    for st in table.stages.values():
        assert st.queue_ns + st.service_ns == pytest.approx(st.total_ns)
        assert st.p50_ns <= st.p99_ns
    # Snapshot is JSON-clean and carries the gate's keys.
    snap = json.loads(json.dumps(table.snapshot()))
    assert snap["ops"] == table.ops
    assert set(snap["stages"]) == set(table.stages)


def test_aggregate_keeps_repeat_stage_instances_distinct():
    blames = _lat_blames()
    stages = aggregate(blames)[0].stages
    assert "rx_arrive" in stages and "rx_arrive#2" in stages


# -- critical path ------------------------------------------------------------


def test_critical_path_is_gapless_and_spans_the_run():
    _result, blames = _bw_blames()
    path = critical_path(blames)
    assert len(path) > len(max(blames, key=lambda b: b.end_ns).stages)
    for a, b in zip(path, path[1:]):
        assert b.start_ns == pytest.approx(a.end_ns)
    assert path[-1].end_ns == pytest.approx(
        max(b.end_ns for b in blames))
    # The path must cross ops (the whole point of chasing blockers).
    assert len({seg.span_id for seg in path}) > 1


def test_critical_path_of_bw_run_is_wire_bound():
    _result, blames = _bw_blames()
    path = critical_path(blames)
    totals = stage_totals(path)
    span = path[-1].end_ns - path[0].start_ns
    assert totals["tx_wire/service"] / span > 0.5
    text = format_path(path)
    assert "critical path" in text and "tx_wire/service" in text


def test_critical_path_empty_for_no_spans():
    assert critical_path([]) == []
    assert "no complete spans" in format_path([])


# -- folded stacks ------------------------------------------------------------


def test_folded_stacks_format_and_mass():
    blames = _lat_blames()
    lines = folded_stacks(blames=blames)
    assert lines
    total = 0
    for line in lines:
        frames, weight = line.rsplit(" ", 1)
        parts = frames.split(";")
        assert len(parts) == 6  # op;dataplane;host;comp;stage;leaf
        assert parts[0] == "post_send"
        assert parts[-1] in ("queue", "service")
        assert int(weight) > 0
        total += int(weight)
    explained = sum(b.explained_ns for b in blames)
    # Integer rounding per (frame, leaf) only.
    assert total == pytest.approx(explained, rel=1e-3)


def test_folded_stacks_from_trace():
    cfg = PerftestConfig(iters=10, warmup=2, seed=7)
    _r, sim, _pair = run_attributed(cfg, 4096, "lat")
    lines = folded_stacks(sim.trace, op="post_send")
    assert lines and all(line.rsplit(" ", 1)[1].isdigit() for line in lines)


# -- spans under fault retransmission (satellite) -----------------------------


def test_spans_telescope_under_fault_retransmission():
    cfg = PerftestConfig(iters=60, warmup=5, seed=7,
                         faults=FaultPlan(loss=0.05))
    _result, sim, (client, server) = run_attributed(cfg, 4096, "lat")
    retransmits = (client.host.nic.counters.retransmits
                   + server.host.nic.counters.retransmits)
    assert retransmits > 0, "fault plan never fired; raise loss or iters"
    spans = build_spans(sim.trace, op="post_send")
    complete = [s for s in spans if s.complete]
    assert complete
    for span in complete:
        times = [m.time for m in span.marks]
        assert times == sorted(times)
        total = sum(st.duration_ns for st in span.stages())
        assert total == pytest.approx(span.duration_ns)
    # Attribution still fully explains every completed (retried) op.
    blames = attribute_spans(spans)
    assert blames
    for blame in blames:
        assert blame.residual_ns == pytest.approx(0.0, abs=1e-6)
    # A retried op re-emits pipeline marks: some span shows repeat
    # instances beyond the ACK leg's usual #2.
    assert any(st.name.endswith("#3")
               for b in blames for st in b.stages)


# -- fast-forward x telemetry interplay (satellite) ---------------------------


def test_fastforward_disarms_under_attribution_trace():
    """A traced measurement must never fast-forward (jumping would skip
    span marks), and forcing the probe on must not change results."""
    cfg = PerftestConfig(iters=60, warmup=10, window=16, seed=7)
    base, sim_base, _ = run_attributed(cfg.with_(fastforward=False),
                                       32768, "bw")
    reset_run_stats()
    ff, sim_ff, _ = run_attributed(cfg.with_(fastforward=True), 32768, "bw")
    stats = run_stats_snapshot()
    assert stats["ff_jumps"] == 0 and stats["ff_cycles_skipped"] == 0
    assert vars(base) == vars(ff)

    spans_base = build_spans(sim_base.trace, op="post_send")
    spans_ff = build_spans(sim_ff.trace, op="post_send")
    assert len(spans_base) == len(spans_ff)
    assert all(s.complete for s in spans_ff) == \
        all(s.complete for s in spans_base)
    assert [s.stage_durations() for s in spans_ff] == \
        [s.stage_durations() for s in spans_base]


def test_telemetry_exports_of_sweep_points_do_not_collide(
        tmp_path, monkeypatch):
    """Configs that differ only in their fault plan's loss rate export to
    distinct files, each a whole JSON document (no temp file left)."""
    monkeypatch.setenv("REPRO_TELEMETRY", "1")
    monkeypatch.setenv("REPRO_TELEMETRY_DIR", str(tmp_path))
    for loss in (0.01, 0.02):
        run_lat(PerftestConfig(iters=20, warmup=2, seed=7,
                               faults=FaultPlan(loss=loss)), 4096)
    traces = sorted(tmp_path.glob("*.trace.json"))
    metrics = sorted(tmp_path.glob("*.metrics.json"))
    assert len(traces) == len(metrics) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        p.name for p in traces + metrics)
    docs = [json.loads(p.read_text()) for p in traces]
    assert all(doc["traceEvents"] for doc in docs)
    assert all(json.loads(p.read_text())["hosts"] for p in metrics)


def test_telemetry_env_with_fastforward_exports_complete_spans(
        tmp_path, monkeypatch):
    """REPRO_TELEMETRY=1 + fast-forward on: the probe auto-disarms and the
    exported trace still holds every measured op's complete span."""
    monkeypatch.setenv("REPRO_TELEMETRY", "1")
    monkeypatch.setenv("REPRO_TELEMETRY_DIR", str(tmp_path))
    cfg = PerftestConfig(iters=40, warmup=5, seed=7, fastforward=True)
    reset_run_stats()
    result = run_lat(cfg, 4096)
    stats = run_stats_snapshot()
    assert stats["ff_jumps"] == 0  # disarmed by the live trace
    assert result.iters == 40

    traces = list(tmp_path.glob("*.trace.json"))
    assert len(traces) == 1
    doc = json.loads(traces[0].read_text())
    span_ids = {e["args"]["span"] for e in doc["traceEvents"]
                if e.get("cat") == "span.post_send"}
    # Ping-pong: each of warmup+iters rounds posts one send per side.
    assert len(span_ids) == 2 * (40 + 5)
    # The exported push metrics count exactly those posts, and every
    # counted post (sends and receives) has its span in the export.
    (metrics,) = tmp_path.glob("*.metrics.json")
    ops = [scope["counters"]["dataplane.ops"]
           for scope in json.loads(metrics.read_text())["scopes"].values()]
    assert sum(o["by_key"]["BP.post_send"] for o in ops) == len(span_ids)
    assert sum(o["count"] for o in ops) == len(
        {e["args"]["span"] for e in doc["traceEvents"] if e["ph"] == "X"})

    # And the measurement itself matches a telemetry-off, ff-off run.
    monkeypatch.delenv("REPRO_TELEMETRY")
    plain = run_lat(cfg.with_(fastforward=False), 4096)
    assert vars(plain) == vars(result)


# -- attribution probes -------------------------------------------------------


def test_probe_table_covers_all_figures():
    assert set(ATTRIBUTION_PROBES) == {"fig1", "fig3", "fig4", "fig5"}
    keys = [spec.key for specs in ATTRIBUTION_PROBES.values()
            for spec in specs]
    assert len(keys) == len(set(keys))
    for specs in ATTRIBUTION_PROBES.values():
        for spec in specs:
            assert ProbeSpec.fromdict(
                json.loads(json.dumps(spec.asdict()))) == spec
            # System A jitters; everything else must gate exactly.
            assert spec.exact == (spec.system != "A")


def test_run_probe_is_deterministic_and_fully_explained():
    spec = ATTRIBUTION_PROBES["fig3"][0]
    first = run_probe(spec)
    second = run_probe(spec)
    assert first == second  # the exact-gate premise
    assert first["dropped"] == 0
    assert first["ops"] > 0
    assert first["explained_min"] >= 0.95
    assert first["residual_ns"] == pytest.approx(0.0, abs=1e-6)
    assert first["spec"] == spec.asdict()


def test_bw_probe_records_queueing():
    spec = next(s for s in ATTRIBUTION_PROBES["fig4"] if s.kind == "bw")
    entry = run_probe(spec)
    assert entry["stages"]["tx_wire"]["queue_ns"] > 0


def test_serial_and_wait_stage_tables_are_disjoint():
    assert not (SERIAL_STAGES & WAIT_STAGES)
