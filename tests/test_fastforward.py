"""Steady-state fast-forward (repro.sim.fastforward).

The contract under test: with the probe armed, every perftest loop's
result is **bit-identical** to the fully simulated run — including the
sample vectors — while large stretches of the steady state are skipped;
and the probe refuses to arm (skipping nothing) whenever exactness cannot
be proven: fault plans, trace export, RNG draws in the loop (system A's
syscall jitter), or no exact period at all.
"""

import math

import pytest

from repro.faults import FaultPlan
from repro.perftest.techniques import Techniques
from repro.perftest.runner import (
    PerftestConfig,
    reset_run_stats,
    run_bw,
    run_lat,
    run_stats_snapshot,
)
from repro.sim import FastForward, Simulator
from repro.sim.trace import Trace


def _result_fields(result) -> tuple:
    return tuple(sorted(
        (k, tuple(v) if isinstance(v, list) else v)
        for k, v in vars(result).items()
    ))


def _pair(cfg, size, kind):
    """Run one config with fast-forward off and on; return both results
    and the on-run's stats."""
    run = run_lat if kind == "lat" else run_bw
    base = run(cfg.with_(fastforward=False), size)
    reset_run_stats()
    ff = run(cfg.with_(fastforward=True), size)
    return base, ff, run_stats_snapshot()


LAT_CFG = dict(iters=150, warmup=20)
BW_CFG = dict(iters=900, warmup=200, window=64)


@pytest.mark.parametrize("op,kind", [
    ("send", "lat"), ("read", "lat"), ("write", "lat"),
    ("send", "bw"), ("read", "bw"), ("write", "bw"),
])
@pytest.mark.parametrize("dataplane", ["bypass", "cord"])
def test_bit_identical_and_skipping_system_l(op, kind, dataplane):
    """System L (no jitter, no turbo): every loop arms, skips a large part
    of the steady state, and reproduces the full run bit-for-bit."""
    extra = LAT_CFG if kind == "lat" else BW_CFG
    cfg = PerftestConfig(system="L", op=op, client=dataplane,
                         server=dataplane, **extra)
    base, ff, stats = _pair(cfg, 4096, kind)
    assert _result_fields(base) == _result_fields(ff)
    assert stats["ff_jumps"] >= 1
    assert stats["ff_cycles_skipped"] > 0
    # The skip must be substantial, not symbolic.  send_bw's super-period
    # (the tx burst spacing) is ~30 boundaries, so detection costs more of
    # the run than the short-period loops — and a binade crossing right
    # after the first proof costs ~2 periods to re-arm, which at these
    # short iteration counts is one whole extra cycle of the remaining
    # headroom (full-scale runs skip ~75%).
    floor = 0.12 if (op, kind) == ("send", "bw") else 0.3
    assert stats["ff_units_skipped"] >= cfg.iters * floor
    assert stats["ff_events_skipped"] > 0
    assert stats["ff_time_skipped_ns"] > 0


@pytest.mark.parametrize("op,kind", [("send", "lat"), ("write", "bw")])
def test_system_a_disarms_bit_identical(op, kind):
    """System A draws syscall jitter inside the loop: the probe must not
    arm (zero cycles skipped) and results must still match exactly."""
    extra = LAT_CFG if kind == "lat" else BW_CFG
    cfg = PerftestConfig(system="A", op=op, client="cord", server="cord",
                         **extra)
    base, ff, stats = _pair(cfg, 4096, kind)
    assert _result_fields(base) == _result_fields(ff)
    assert stats["ff_jumps"] == 0
    assert stats["ff_cycles_skipped"] == 0


@pytest.mark.parametrize("size", [64, 256])
@pytest.mark.parametrize("zero_copy", [True, False])
def test_send_bw_small_messages_bit_identical(size, zero_copy):
    """Regression: small-message ``send_bw`` must stay bit-identical.

    At small sizes the tx and rx loops run in CPU-paced lockstep and
    every queue level is constant between tx reap points, so the only
    per-boundary state distinguishing positions inside the tx burst
    super-period is the sender's signaling phase.  Without the per-post
    tx aux reports (which carry ``posted % sig``) in the signature the
    probe proves a period-1 schedule inside the quiet stretch and jumps
    over signaled cycles that are longer (the ack's CQE DMA), shaving a
    fixed deficit per skipped burst off the measured duration.
    ``zero_copy=False`` covers the send-side-bottleneck regime where the
    tx window never fills during the ramp, so reap points — the only aux
    reports before per-post reporting existed — never happen at all.
    Size 4096 (covered above) never tripped either: the wire paces that
    run and the queue levels differ boundary to boundary.
    """
    cfg = PerftestConfig(system="L", op="send", client="bypass",
                         server="bypass", iters=1200, warmup=200, window=64,
                         techniques=Techniques(zero_copy=zero_copy))
    base, ff, stats = _pair(cfg, size, "bw")
    assert _result_fields(base) == _result_fields(ff)
    assert stats["ff_jumps"] >= 1
    assert stats["ff_units_skipped"] >= cfg.iters * 0.3


def test_lat_samples_replicated_exactly():
    """The skipped iterations' samples are replicated, so the sample
    vector — not just the aggregates — matches the full run."""
    cfg = PerftestConfig(system="L", op="send", client="cord",
                         server="cord", **LAT_CFG)
    base, ff, stats = _pair(cfg, 64, "lat")
    assert stats["ff_cycles_skipped"] > 0
    assert ff.samples == base.samples


def test_fault_plan_refuses_to_arm():
    """Satellite: an attached FaultPlan must hard-disable the probe at
    construction (absolute-time windows + per-message loss draws make
    extrapolation unsafe), before any boundary is observed."""
    sim = Simulator(seed=7)
    probe = FastForward(sim, faults=FaultPlan(loss=0.01))
    assert not probe.enabled
    assert probe.reason == "faults"
    # Even a "quiet" plan (no loss, no windows) is refused: windows
    # trigger on absolute time, so any plan disables skipping.
    probe2 = FastForward(Simulator(seed=7), faults=FaultPlan())
    assert not probe2.enabled and probe2.reason == "faults"


def test_fault_plan_end_to_end_identical_with_zero_skips():
    plan = FaultPlan(loss=0.02)
    cfg = PerftestConfig(system="L", op="send", client="bypass",
                         server="bypass", faults=plan, **BW_CFG)
    base, ff, stats = _pair(cfg, 4096, "bw")
    assert _result_fields(base) == _result_fields(ff)
    assert stats["ff_jumps"] == 0 and stats["ff_cycles_skipped"] == 0


def test_trace_export_refuses_to_arm():
    """A trace-recording run must keep every event: skipping cycles would
    silently truncate the exported timeline."""
    sim = Simulator(seed=7, trace=Trace(enabled=True))
    probe = FastForward(sim)
    assert not probe.enabled
    assert probe.reason == "trace"


def test_probe_observe_after_disarm_is_cheap_noop():
    sim = Simulator(seed=7)
    probe = FastForward(sim, faults=FaultPlan(loss=0.5))
    probe.begin(("i",), (10, 100))
    assert probe.observe((1,)) is None
    assert probe.stats.jumps == 0


# -- the skip ledger of a representative matrix --------------------------------

def config_for(system: str, dataplane: str, op: str, kind: str,
               size: int = 4096, transport: str = "RC",
               iters_scale: float = 1.0) -> tuple:
    """One skip-ledger row's ``(PerftestConfig, run)``, where ``run(cfg)``
    measures one ``size``-byte point."""
    base, run = (LAT_CFG, run_lat) if kind == "lat" else (BW_CFG, run_bw)
    extra = dict(base, iters=max(1, int(base["iters"] * iters_scale)))
    cfg = PerftestConfig(system=system, transport=transport, op=op,
                         client=dataplane, server=dataplane, **extra)
    return cfg, lambda config: run(config, size)


def ledger(stats: dict) -> tuple:
    """One fast-forwarded run's skip ledger from its run stats: jumps,
    cycles, units, events skipped, events scheduled, boundaries observed
    while armed, disarm reason."""
    reason = next((k[len("ff_disarm_"):] for k in stats
                   if k.startswith("ff_disarm_")), None)
    return (stats["ff_jumps"], stats["ff_cycles_skipped"],
            stats["ff_units_skipped"], stats["ff_events_skipped"],
            stats["events_scheduled"], stats["ff_boundaries"], reason)

#: (iteration scale, system, dataplane, op, kind[, size[, transport]]) ->
#: (jumps, cycles, units, events skipped, events scheduled, boundaries
#: observed while armed, disarm reason) of the fast-forwarded run (4 KiB
#: and RC unless the key says otherwise), for one bypass and one CoRD loop
#: per op kind on system L and the two jittered system A CoRD loops.  Any
#: change to what the probe skips or scans moves a figure here, even when
#: results stay bit-identical.  Scale 1 uses LAT_CFG/BW_CFG as they are; at
#: scale 2 the proven-period memo shows (without it, bypass write_bw skips
#: one cycle fewer).  The system A loops draw syscall jitter in their first
#: step, so the probe disarms as ``rng`` at its second boundary.  The two
#: scale-5 rows stress the bookkeeping hardest: bypass send_bw at 1 MiB
#: takes six binade-capped jumps, and UD CoRD send_bw at 64 B verifies a
#: long period whose steps fold many tx reports each.
SKIP_LEDGER = {
    (1.0, "L", "bypass", "send", "lat"): (3, 94, 152, 5168, 633, 18, "complete"),
    (1.0, "L", "cord", "write", "lat"): (3, 92, 150, 5100, 697, 20, "complete"),
    (1.0, "L", "bypass", "write", "bw"): (1, 17, 544, 7140, 7316, 15, "complete"),
    (1.0, "L", "cord", "send", "bw"): (1, 3, 192, 2796, 13270, 278, "complete"),
    (1.0, "A", "cord", "send", "lat"): (0, 0, 0, 0, 5902, 2, "rng"),
    (1.0, "A", "cord", "write", "bw"): (0, 0, 0, 0, 13423, 2, "rng"),
    (2.0, "L", "bypass", "send", "lat"): (3, 144, 302, 10268, 633, 18, "complete"),
    (2.0, "L", "cord", "write", "lat"): (3, 142, 300, 10200, 697, 20, "complete"),
    (2.0, "L", "bypass", "write", "bw"): (2, 42, 1344, 17640, 8628, 18, "complete"),
    (2.0, "L", "cord", "send", "bw"): (1, 17, 1088, 15844, 13330, 280, "complete"),
    (2.0, "A", "cord", "send", "lat"): (0, 0, 0, 0, 11002, 2, "rng"),
    (2.0, "A", "cord", "write", "bw"): (0, 0, 0, 0, 24307, 2, "rng"),
    (5.0, "L", "bypass", "send", "bw", 1 << 20):
        (6, 119, 3808, 69020, 16186, 668, "complete"),
    (5.0, "L", "cord", "send", "bw", 64, "UD"):
        (2, 22, 2816, 26884, 18035, 763, "complete"),
}


@pytest.mark.parametrize("key", SKIP_LEDGER,
                         ids=lambda key: "-".join(map(str, (*key[1:], key[0]))))
def test_skip_ledger_is_pinned(key):
    scale, *row = key
    cfg, run = config_for(*row, iters_scale=scale)
    reset_run_stats()
    run(cfg.with_(fastforward=True))
    assert ledger(run_stats_snapshot()) == SKIP_LEDGER[key]


def _probe_peaks(monkeypatch, iters: int) -> tuple:
    """Peak sizes of the probe's step history, step-id table and scan map
    over one fast-forwarded 4 KiB send_bw run, and the probe itself."""
    peaks = {"steps": 0, "ids": 0, "seen": 0}
    probes = []
    observe = FastForward.observe

    def watched(self, counts, state=()):
        skip = observe(self, counts, state)
        if self not in probes:
            probes.append(self)
        for name, table in (("steps", self._steps), ("ids", self._ids),
                            ("seen", self._seen)):
            peaks[name] = max(peaks[name], len(table))
        return skip

    monkeypatch.setattr(FastForward, "observe", watched)
    cfg = PerftestConfig(system="L", op="send", client="bypass",
                         server="bypass", iters=iters, warmup=200, window=64,
                         fastforward=True)
    run_bw(cfg, 4096)
    (probe,) = probes
    return peaks, probe


def test_probe_state_stays_bounded_and_disarm_releases_it(monkeypatch):
    """Interning must not grow with the run: a step id leaves the table
    when its last step leaves the confirm window, so a run four times as
    long peaks at the same sizes, and disarming frees everything."""
    short, _ = _probe_peaks(monkeypatch, 5000)
    long, probe = _probe_peaks(monkeypatch, 20000)
    assert probe.stats.jumps > 2  # the long run crosses more binades
    assert short == long
    assert long["ids"] <= long["steps"] == probe._cap
    assert long["seen"] <= long["ids"]
    assert probe.reason == "complete"
    for table in (probe._steps, probe._ids, probe._sigs, probe._latest,
                  probe._seen, probe._soft_seen, probe._vfull,
                  probe._aux_raw):
        assert not table


def test_reset_run_stats_clears_disarm_tallies():
    cfg = PerftestConfig(system="L", iters=40, warmup=4, fastforward=True)
    run_lat(cfg, 64)
    assert any(k.startswith("ff_disarm_") for k in run_stats_snapshot())
    reset_run_stats()
    assert not any(k.startswith("ff_disarm_") for k in run_stats_snapshot())


# -- advance_clock (the engine primitive) -------------------------------------


def test_advance_clock_translates_pending_events():
    sim = Simulator(seed=1)
    log = []

    def waiter(delay, tag):
        yield delay
        log.append((tag, sim.now))

    sim.process(waiter(100.0, "a"))
    sim.process(waiter(250.0, "b"))
    sim.step()  # initial resumes
    sim.step()
    moved = sim.advance_clock(40.0)
    assert moved == 2
    assert sim.now == 40.0
    sim.run()
    assert log == [("a", 140.0), ("b", 290.0)]


def test_advance_clock_rejects_backward_jump():
    from repro.errors import SimulationError

    sim = Simulator(seed=1)

    def waiter():
        yield 10.0

    sim.run(sim.process(waiter()))
    with pytest.raises(SimulationError, match="in the past"):
        sim.advance_clock(sim.now - 1.0)


def test_advance_clock_zero_shift_is_noop():
    sim = Simulator(seed=1)
    assert sim.advance_clock(sim.now) == 0


def test_advance_clock_runs_time_shift_hooks():
    sim = Simulator(seed=1)
    shifts = []
    sim.on_time_shift(shifts.append)
    sim.advance_clock(32.0)
    assert shifts == [32.0]
    sim.advance_clock(32.0)  # zero shift: hooks must not fire
    assert shifts == [32.0]


def test_jump_lands_before_milestones():
    """A jump may never cross the next milestone: the crossing itself (and
    everything after the last one) must simulate."""
    cfg = PerftestConfig(system="L", op="write", client="bypass",
                         server="bypass", **BW_CFG)
    base, ff, stats = _pair(cfg, 4096, "bw")
    assert _result_fields(base) == _result_fields(ff)
    # The drain tail is never skippable, so strictly fewer units than the
    # whole measured range were skipped.
    assert 0 < stats["ff_units_skipped"] < cfg.warmup + cfg.iters


def test_binade_cap_is_a_float_boundary():
    # Sanity-pin the binade arithmetic the extrapolator relies on.
    now = 3.5e6
    binade_end = math.ldexp(1.0, math.frexp(now)[1])
    assert binade_end / 2 <= now < binade_end
    assert math.ulp(now) == math.ulp(binade_end / 2)
