"""Golden determinism: benchmark numbers are bit-stable, not just "close".

Three properties the perf work must never break:

1. **Jittered golden values.**  The same points on system A, whose
   lognormal syscall jitter and DVFS ``exp()`` decay make the event order
   depend on every rng draw and libm result, must reproduce exactly.
   These pin the scalar-yield resume records and the detached processes
   to the bits their ``Timeout``/joinable equivalents produced.
2. **Golden values.**  One RC-send point per dataplane on system L (whose
   profile disables turbo and syscall jitter, so the numbers are plain
   float arithmetic — no libm variance) must reproduce exactly.  A perf
   change that shifts these numbers changed simulation semantics, not
   just speed.
3. **Heap-record counts.**  The same workloads must schedule exactly as
   many heap records as before, and only where simulated time passes: a
   zero-delay NIC/fabric hand-off runs inline at its stage's tail, and a
   CQ wait that finds a CQE takes no record.  A change that keeps every
   value but adds or drops records moved work between dispatches: it
   changes ``sim.events`` and the runtime sanitizer's per-dispatch
   buckets, and must re-pin these counts with the cause of each delta.
4. **Worker-count invariance.**  ``parallel_sweep`` must return the same
   bits serially and fanned over processes, in point order.
"""

import pytest

from repro.bench_support import parallel_sweep
from repro.perftest.runner import (
    PerftestConfig,
    run_bw,
    run_lat,
    run_stats_snapshot,
)

#: Small fixed workload — independent of REPRO_BENCH_SCALE on purpose.
SIZE = 4096
ITERS = 60
WARMUP = 10
WINDOW = 16

#: Exact values at seed 7 for the workload above (see property 2).
GOLDEN = {
    "bypass": {
        "bw_duration_ns": 22546.400000001304,
        "bw_gbit_per_s": 87.20150445303402,
        "lat_avg_us": 2.2915200000000184,
    },
    "cord": {
        "bw_duration_ns": 32771.52000000002,
        "bw_gbit_per_s": 59.99355537979315,
        "lat_avg_us": 3.3865200000000186,
    },
}


#: Exact values at seed 7 for the same workload on jittered system A
#: (see property 1).
GOLDEN_A = {
    "bypass": {
        "bw_duration_ns": 20289.405332107097,
        "bw_gbit_per_s": 96.90180504643793,
        "lat_avg_us": 2.664661129357961,
    },
    "cord": {
        "bw_duration_ns": 32632.827187161893,
        "bw_gbit_per_s": 60.24853405203816,
        "lat_avg_us": 4.385432118460125,
    },
}


#: Heap records one ``_measure`` schedules, per (system, dataplane)
#: (see property 3).
GOLDEN_EVENTS = {
    ("L", "bypass"): 3679,
    ("L", "cord"): 3487,
    ("A", "bypass"): 3834,
    ("A", "cord"): 3656,
}


def _cfg(dataplane: str, system: str = "L") -> PerftestConfig:
    return PerftestConfig(system=system, client=dataplane, server=dataplane,
                          iters=ITERS, warmup=WARMUP, window=WINDOW)


def _measure(dataplane: str, system: str = "L") -> dict:
    cfg = _cfg(dataplane, system)
    bw = run_bw(cfg, SIZE)
    lat = run_lat(cfg, SIZE)
    return {
        "bw_duration_ns": bw.duration_ns,
        "bw_gbit_per_s": bw.gbit_per_s,
        "lat_avg_us": lat.avg_us,
    }


def _assert_golden(measured: dict, golden: dict, label: str) -> None:
    for key, want in golden.items():
        got = measured[key]
        assert repr(got) == repr(want), (
            f"{label}/{key}: got {got!r}, golden {want!r} — a perf "
            "change altered simulation results"
        )


@pytest.mark.parametrize("dataplane", ["bypass", "cord"])
def test_golden_values_system_l(dataplane):
    _assert_golden(_measure(dataplane), GOLDEN[dataplane], dataplane)


@pytest.mark.parametrize("dataplane", ["bypass", "cord"])
def test_golden_values_system_a(dataplane):
    _assert_golden(_measure(dataplane, system="A"), GOLDEN_A[dataplane],
                   f"A/{dataplane}")


@pytest.mark.parametrize("system,dataplane", sorted(GOLDEN_EVENTS))
def test_heap_record_counts(system, dataplane, monkeypatch):
    # Fast-forward skips records by design; the count is pinned without it.
    monkeypatch.delenv("REPRO_FASTFORWARD", raising=False)
    before = run_stats_snapshot()["events_scheduled"]
    _measure(dataplane, system)
    scheduled = run_stats_snapshot()["events_scheduled"] - before
    assert scheduled == GOLDEN_EVENTS[system, dataplane]


#: Stages that run inline at their predecessor's tail: a heap record of
#: any of them carries no simulated time.
ELIDED_STAGES = frozenset({
    "Nic._rx_fetch", "Nic._tx_fetch", "Nic._dispatch", "Nic._initiate",
    "Nic._exec_send", "Nic._exec_write", "Nic._exec_read_req",
    "Nic._send_cnp", "Fabric._rx_deliver",
})

#: (heap records, NIC messages delivered) of one golden measurement on
#: system L.  A NIC message costs one record per simulated delay on its
#: path: TX engine done, WQE fetched, wire done, delivery, RX engine
#: done, then a payload landing or an ACK turnaround, and a CQE write.
RECORD_BUDGET = {
    ("bypass", "bw"): (1278, 139),
    ("bypass", "lat"): (2401, 279),
    ("cord", "bw"): (1082, 140),
    ("cord", "lat"): (2405, 280),
}


@pytest.mark.parametrize("dataplane,kind", sorted(RECORD_BUDGET))
def test_record_budget_per_nic_message(dataplane, kind, monkeypatch):
    """Records are pushed only where simulated time passes: no elided
    stage appears, no CQ wait schedules a wake-up nobody waits for, and
    the record count per NIC message is pinned."""
    import heapq

    import repro.sim.engine as engine
    import repro.sim.events as events
    import repro.sim.process as process

    monkeypatch.delenv("REPRO_FASTFORWARD", raising=False)
    tally: dict[str, int] = {}
    ready_cq_fires = []
    push = heapq.heappush

    def counting(queue, record):
        fn, arg = record[3], record[4]
        name = fn.__qualname__
        if name == "_fire" and arg.name.endswith(".nonempty") \
                and not arg.callbacks:
            ready_cq_fires.append(record)
        tally[name] = tally.get(name, 0) + 1
        push(queue, record)

    for module in (engine, events, process):
        monkeypatch.setattr(module, "heappush", counting)
    run = run_bw if kind == "bw" else run_lat
    run(_cfg(dataplane), SIZE)
    assert not ELIDED_STAGES & set(tally), tally
    assert not ready_cq_fires
    records, messages = RECORD_BUDGET[dataplane, kind]
    assert (sum(tally.values()), tally["Nic.deliver"]) == (records, messages)


@pytest.mark.parametrize("dataplane", ["bypass", "cord"])
def test_fastforward_bit_identical(dataplane, monkeypatch):
    """Steady-state fast-forward must be invisible in the golden values:
    the armed run skips cycles yet reproduces the exact bits (property 2
    applied to the extrapolation layer; the full matrix lives in
    tests/test_fastforward.py)."""
    base = _measure(dataplane)
    monkeypatch.setenv("REPRO_FASTFORWARD", "1")
    ff = _measure(dataplane)
    assert {k: repr(v) for k, v in base.items()} == \
           {k: repr(v) for k, v in ff.items()}
    for key, want in GOLDEN[dataplane].items():
        assert repr(ff[key]) == repr(want)


@pytest.mark.parametrize("dataplane", ["bypass", "cord"])
def test_telemetry_bit_identical(dataplane, monkeypatch, tmp_path):
    """Full telemetry (tracing + metrics + exporters) is observation only:
    enabling it must not move a single bit of any measured result."""
    baseline = _measure(dataplane)
    monkeypatch.setenv("REPRO_TELEMETRY", "1")
    monkeypatch.setenv("REPRO_TELEMETRY_DIR", str(tmp_path))
    with_tele = _measure(dataplane)
    assert {k: repr(v) for k, v in baseline.items()} == \
           {k: repr(v) for k, v in with_tele.items()}
    # The runs really did trace + export (not a silently-off telemetry path).
    assert list(tmp_path.glob("*.trace.json"))
    assert list(tmp_path.glob("*.metrics.json"))


@pytest.mark.parametrize("dataplane", ["bypass", "cord"])
def test_faults_on_golden_determinism(dataplane):
    """Fault injection draws from named rng streams only: a faults-on run
    must be bit-identical to itself, actually exercise loss recovery, and
    a zero-loss plan must be bit-identical to no plan at all."""
    from repro.faults import FaultPlan

    lossy = _cfg(dataplane).with_(faults=FaultPlan(loss=0.05))
    r1 = run_bw(lossy, SIZE)
    r2 = run_bw(lossy, SIZE)
    assert repr(r1.duration_ns) == repr(r2.duration_ns)
    assert (r1.retransmits, r1.ack_timeouts) == (r2.retransmits, r2.ack_timeouts)
    assert r1.retransmits > 0  # recovery really ran

    clean = run_bw(_cfg(dataplane), SIZE)
    hooked = run_bw(_cfg(dataplane).with_(faults=FaultPlan(loss=0.0)), SIZE)
    assert repr(hooked.duration_ns) == repr(clean.duration_ns)
    assert repr(clean.duration_ns) == repr(GOLDEN[dataplane]["bw_duration_ns"])
    assert hooked.retransmits == 0


@pytest.mark.parametrize("dataplane", ["bypass", "cord"])
def test_sanitizers_on_bit_identical_and_clean(dataplane, monkeypatch):
    """``REPRO_SANITIZE=1`` is observation only: the instrumented dispatch
    loop and rng proxies must not move a single bit of any result, and the
    golden no-fault workloads must produce zero runtime findings."""
    from repro.sanitize import drain_global_findings

    baseline = _measure(dataplane)
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    drain_global_findings()
    sanitized = _measure(dataplane)
    findings = drain_global_findings()
    assert findings == [], "\n".join(f.text() for f in findings)
    assert {k: repr(v) for k, v in baseline.items()} == \
           {k: repr(v) for k, v in sanitized.items()}


def test_sanitizers_on_jittered_bit_identical(monkeypatch):
    """System A (syscall jitter + DVFS decay) draws heavily from the rng
    streams the sanitizer wraps — the hardest case for proxy invisibility."""
    from repro.sanitize import drain_global_findings

    baseline = _measure("cord", system="A")
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    drain_global_findings()
    sanitized = _measure("cord", system="A")
    assert drain_global_findings() == []
    assert {k: repr(v) for k, v in baseline.items()} == \
           {k: repr(v) for k, v in sanitized.items()}


@pytest.mark.parametrize("dataplane", ["bypass", "cord"])
def test_rx_contention_on_seed_stability(dataplane):
    """The receiver-side contention model must be exactly as deterministic
    as the rest of the engine: a contended 4→1 incast reruns bit-identical
    (including queue peaks and attribution-relevant flow spans), and the
    two-host golden workloads — back-to-back pairs with no switch port —
    still reproduce their committed values bit for bit."""
    from repro.perftest.incast import IncastConfig, run_incast

    cfg = IncastConfig(dataplane=dataplane, senders=4, size=16 * 1024,
                       msgs_per_sender=10, window=8, seed=7)
    r1 = run_incast(cfg)
    r2 = run_incast(cfg)
    assert repr(r1.duration_ns) == repr(r2.duration_ns)
    assert tuple(map(repr, r1.flow_goodputs_gbit)) == \
           tuple(map(repr, r2.flow_goodputs_gbit))
    assert r1.rx_queue_peak_bytes == r2.rx_queue_peak_bytes > 0

    golden = run_bw(_cfg(dataplane), SIZE)
    assert repr(golden.duration_ns) == repr(GOLDEN[dataplane]["bw_duration_ns"])


def _sweep_point(size: int) -> float:
    return run_bw(_cfg("bypass"), size).duration_ns


def test_parallel_sweep_worker_invariance():
    sizes = [256, 4096, 65536]
    serial = parallel_sweep(_sweep_point, sizes, workers=1)
    fanned = parallel_sweep(_sweep_point, sizes, workers=2)
    assert [repr(x) for x in serial] == [repr(x) for x in fanned]
