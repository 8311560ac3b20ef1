"""Telemetry subsystem: spans, metrics, exporters, trace retention."""

import json

import pytest

from repro.cluster import build_pair
from repro.core.policies.observability import FlowStats
from repro.core.policy import OpContext
from repro.core.endpoint import make_rc_pair
from repro.faults import FaultPlan
from repro.hw.profiles import get_profile
from repro.perftest.bw import send_bw
from repro.perftest.incast import IncastConfig, build_incast, _drive
from repro.sim import Simulator
from repro.sim.trace import Trace
from repro.telemetry import (
    Log2Histogram,
    MetricCounter,
    build_spans,
    chrome_trace,
    jsonl_lines,
    metrics_snapshot,
    records_from_jsonl,
)
from repro.verbs.wr import Opcode, RecvWR, SendWR

SIZE = 4096


def run_traced(iters=1, client="bypass", server="bypass", system="L",
               traced=True, max_records=None):
    """Run ``iters`` RC sends, fully traced unless ``traced`` is False;
    returns (sim, host_a, host_b)."""
    sim = Simulator(seed=7,
                    trace=Trace(enabled=traced, max_records=max_records))
    _fabric, host_a, host_b = build_pair(sim, get_profile(system))

    def main():
        a, b = yield from make_rc_pair(host_a, host_b, client, server)
        sim.trace.clear()
        for i in range(iters):
            yield from b.post_recv(RecvWR(wr_id=i + 1, addr=b.buf.addr,
                                          length=b.buf.length, lkey=b.mr.lkey))
            yield from a.post_send(SendWR(wr_id=i + 1, opcode=Opcode.SEND,
                                          addr=a.buf.addr, length=SIZE,
                                          lkey=a.mr.lkey))
            yield from b.wait_recv()
            yield from a.wait_send()

    sim.run(sim.process(main()))
    sim.run()
    return sim, host_a, host_b


# -- op spans -----------------------------------------------------------------


def test_span_chain_is_causally_ordered():
    sim, _a, _b = run_traced()
    spans = build_spans(sim.trace, op="post_send")
    assert len(spans) == 1
    span = spans[0]
    assert span.complete
    assert span.size == SIZE and span.dataplane == "BP"
    names = [s.name for s in span.stages()]
    # The op's life, in causal order: post -> doorbell -> WQE pipeline ->
    # wire -> responder rx/DMA -> CQE; then the ACK leg back.
    assert names[:8] == ["post", "doorbell", "wqe_fetch", "tx_wire",
                         "tx_done", "rx_arrive", "rx_exec", "cqe"]
    assert "ack" in names and "rx_arrive#2" in names and "cqe#2" in names
    times = [m.time for m in span.marks]
    assert times == sorted(times)


def test_stage_durations_sum_to_op_latency():
    sim, _a, _b = run_traced(iters=3)
    spans = build_spans(sim.trace, op="post_send")
    assert len(spans) == 3
    for span in spans:
        assert span.duration_ns > 0
        total = sum(s.duration_ns for s in span.stages())
        assert abs(total - span.duration_ns) < 1e-6


def test_span_crosses_both_hosts():
    sim, _a, _b = run_traced()
    (span,) = build_spans(sim.trace, op="post_send")
    hosts = {m.host for m in span.marks}
    assert {0, 1} <= hosts


def test_post_recv_span_is_cpu_side_and_complete():
    sim, _a, _b = run_traced()
    spans = build_spans(sim.trace, op="post_recv")
    assert len(spans) == 1
    span = spans[0]
    assert span.complete
    # Ends when the WQE reaches the device: no NIC/wire marks.
    assert {m.comp for m in span.marks} == {"app"}


def test_cord_span_includes_syscall_entry():
    """CoRD's post->doorbell stage carries the kernel crossing, so it is
    strictly longer than bypass's user-space driver stage."""
    def post_stage(client):
        sim, _a, _b = run_traced(client=client, server=client)
        (span,) = build_spans(sim.trace, op="post_send")
        return span.stage_durations()["post"]

    assert post_stage("cord") > post_stage("bypass")


def test_spans_without_end_are_incomplete():
    trace = Trace(enabled=True)
    span = trace.new_span()
    trace.emit(0.0, "op_begin", span=span, host=0, op="post_send",
               dataplane="BP", qpn=1, wr_id=1, size=64)
    trace.emit(5.0, "mark", span=span, stage="doorbell", host=0,
               comp="nic.tx")
    (built,) = build_spans(trace)
    assert not built.complete
    assert built.end_ns == 5.0


# -- exporters ----------------------------------------------------------------


def test_chrome_trace_is_valid_and_balanced():
    sim, _a, _b = run_traced()
    doc = chrome_trace(sim.trace)
    doc = json.loads(json.dumps(doc))  # must be pure-JSON serializable
    events = doc["traceEvents"]
    assert events
    phases = {e["ph"] for e in events}
    # Complete ("X") events need no B/E balancing; nothing else emits B/E.
    assert phases <= {"X", "i", "M"}
    for e in events:
        if e["ph"] == "X":
            assert e["dur"] >= 0 and e["ts"] >= 0
            assert "span" in e["args"]
    names = {e["args"]["name"] for e in events
             if e["ph"] == "M" and e["name"] == "process_name"}
    assert {"host0", "host1"} <= names


def test_chrome_trace_span_durations_match():
    sim, _a, _b = run_traced()
    (span,) = build_spans(sim.trace, op="post_send")
    doc = chrome_trace(sim.trace, spans=[span])
    xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    total_us = sum(e["dur"] for e in xs)
    assert abs(total_us - span.duration_ns / 1e3) < 1e-6


def test_jsonl_roundtrip():
    sim, _a, _b = run_traced()
    lines = list(jsonl_lines(sim.trace))
    assert all(json.loads(line) for line in lines)
    back = records_from_jsonl(lines)
    assert back == list(sim.trace)


def test_metrics_snapshot_shape():
    sim, host_a, host_b = run_traced(iters=4, client="cord", server="cord")
    snap = metrics_snapshot(sim, hosts=[host_a, host_b])
    snap = json.loads(json.dumps(snap, default=str))
    assert snap["trace"]["enabled"] is True
    host0 = snap["scopes"]["host0"]
    ops = host0["counters"]["dataplane.ops"]
    assert ops["by_key"]["CD.post_send"] == 4
    assert host0["histograms"]["nic.txq.occupancy"]["count"] > 0
    assert host0["histograms"]["cq.depth"]["count"] > 0
    # Pulled device state rides along even for push-disabled runs.
    assert snap["hosts"]["host0"]["nic"]["tx_msgs"] > 0
    assert snap["hosts"]["host1"]["nic"]["rx_msgs"] > 0
    assert sum(c["syscalls"] for c in snap["hosts"]["host0"]["cores"]) > 0
    # A back-to-back pair has no switch port and no fault layer.
    (fabric,) = snap["fabrics"].values()
    assert fabric["ports"] == {} and fabric["faults"] is None
    assert "gauges" not in host0


@pytest.mark.parametrize("kind", ["bypass", "cord"])
def test_chained_recv_posts_count_every_wr(kind):
    """send_bw replenishes its RQ with chained posts; ``dataplane.ops``
    must count each WR, with its bytes, as single posts do, and each WR
    must open one complete ``post_recv`` span."""
    sim = Simulator(seed=7, trace=Trace(enabled=True))
    _fabric, host_a, host_b = build_pair(sim, get_profile("L"))

    def main():
        a, b = yield from make_rc_pair(host_a, host_b, kind, kind)
        # window=8 pre-posts 2 * 8 + 16 = 32 WRs one by one; the other 16
        # of the 48 arrive in chained reposts.
        yield from send_bw(sim, a, b, 1024, iters=40, window=8, warmup=8)
        return b

    b = sim.run(sim.process(main()))
    ops = sim.trace.scope(host_b.name).counter("dataplane.ops")
    posted = b.qp.recvs_posted
    assert posted == 48
    assert ops.by_key == {f"{b.dataplane.tag}.post_recv": posted}
    assert ops.total == posted * b.buf.length
    recv_spans = [s for s in build_spans(sim.trace, op="post_recv")
                  if s.host == host_b.host_id]
    assert len(recv_spans) == posted
    assert all(s.complete and s.qpn == b.qp.qpn for s in recv_spans)


def test_metrics_snapshot_includes_flow_report():
    stats = FlowStats()
    ctx = OpContext(now=100.0, host=None, op="post_send", tenant="t0")
    stats.evaluate(ctx)
    sim = Simulator(seed=1)
    snap = metrics_snapshot(sim, flows=stats.report())
    assert snap["flows"][0]["tenant"] == "t0"
    assert snap["flows"][0]["duration_ns"] == 0.0


# -- metric primitives --------------------------------------------------------


def test_metric_counter_counts_and_keys():
    c = MetricCounter("x")
    c.inc(10.0, key="a")
    c.inc(5.0, key="a")
    c.inc()
    assert c.count == 3 and c.total == 15.0
    assert c.by_key == {"a": 2}
    assert c.snapshot()["by_key"] == {"a": 2}


@pytest.mark.parametrize("value,bucket", [
    (0, 0), (0.5, 0), (1, 0), (2, 1), (3, 1), (4, 2),
    (1023, 9), (1024, 10),
])
def test_log2_histogram_buckets(value, bucket):
    h = Log2Histogram("sizes")
    h.observe(value)
    assert h.buckets == {bucket: 1}


def test_log2_histogram_percentile_single_bucket_interpolates():
    h = Log2Histogram("lat")
    for _ in range(4):
        h.observe(100)  # bucket 6: [64, 128)
    # Uniform-in-bucket assumption: quartiles interpolate across [64, 128).
    assert h.percentile(0) == pytest.approx(64.0)
    assert h.percentile(50) == pytest.approx(96.0)
    assert h.percentile(100) == pytest.approx(128.0)


def test_log2_histogram_percentile_across_buckets():
    h = Log2Histogram("lat")
    for v in (1, 2, 4, 8):  # buckets 0..3, one each
        h.observe(v)
    # p25 lands at the top of bucket 0 ([0, 2)); p99 inside bucket 3.
    assert h.percentile(25) == pytest.approx(2.0)
    assert h.percentile(75) == pytest.approx(8.0)
    assert 8.0 < h.percentile(99) <= 16.0
    assert h.percentile(50) <= h.percentile(90) <= h.percentile(99)


def test_log2_histogram_percentile_edges():
    h = Log2Histogram("lat")
    assert h.percentile(50) == 0.0  # empty histogram
    h.observe(0)
    assert 0.0 <= h.percentile(99) <= 2.0  # bucket 0 spans [0, 2)
    with pytest.raises(ValueError):
        h.percentile(101)
    with pytest.raises(ValueError):
        h.percentile(-1)


def test_log2_histogram_snapshot_carries_percentiles():
    h = Log2Histogram("lat")
    for v in (10, 20, 500):
        h.observe(v)
    snap = h.snapshot()
    assert snap["p50"] == pytest.approx(h.percentile(50))
    assert snap["p99"] == pytest.approx(h.percentile(99))
    assert snap["p50"] <= snap["p99"]


def test_metrics_snapshot_surfaces_trace_retention():
    sim, host_a, host_b = run_traced(iters=6, max_records=40)
    assert sim.trace.dropped > 0  # the ring evicted setup-era records
    snap = metrics_snapshot(sim, hosts=[host_a, host_b])
    trace_info = snap["trace"]
    assert trace_info["enabled"] is True
    assert trace_info["records"] == 40
    assert trace_info["max_records"] == 40
    assert trace_info["dropped"] == sim.trace.dropped


def test_metrics_snapshot_trace_unbounded_reports_no_drops():
    sim, _a, _b = run_traced(iters=2)
    snap = metrics_snapshot(sim)
    assert snap["trace"]["dropped"] == 0
    assert snap["trace"]["max_records"] is None


def test_telemetry_scopes_lazy_and_stable():
    trace = Trace(enabled=True)
    reg = trace.scope("host0")
    assert trace.scope("host0") is reg
    assert reg.counter("c") is reg.counter("c")
    assert reg.histogram("h") is reg.histogram("h")
    assert list(trace.scopes) == ["host0"]


def test_telemetry_disabled_records_nothing():
    """Trace off means no push metrics either: one observation switch."""
    sim, host_a, host_b = run_traced(traced=False)
    assert sim.trace.scopes == {} and len(sim.trace) == 0
    assert metrics_snapshot(sim, hosts=[host_a, host_b])["scopes"] == {}


# -- trace retention (ring buffer) --------------------------------------------


def test_trace_ring_buffer_keeps_newest():
    trace = Trace(enabled=True, max_records=5)
    for i in range(10):
        trace.emit(float(i), "e", i=i)
    assert len(trace) == 5
    assert trace.dropped == 5
    assert [r.get("i") for r in trace] == [5, 6, 7, 8, 9]


def test_trace_clear_resets_dropped():
    trace = Trace(enabled=True, max_records=1)
    trace.emit(0.0, "e")
    trace.emit(1.0, "e")
    trace.scope("host0").counter("c").inc()
    assert trace.dropped == 1
    trace.clear()
    assert trace.dropped == 0 and len(trace) == 0
    assert trace.scopes == {}


def test_build_spans_skips_evicted_begins():
    """A span whose op_begin fell off the ring buffer is dropped whole."""
    trace = Trace(enabled=True, max_records=2)
    s1, s2 = trace.new_span(), trace.new_span()
    trace.emit(0.0, "op_begin", span=s1, host=0, op="post_send")
    trace.emit(1.0, "op_begin", span=s2, host=0, op="post_send")
    trace.emit(2.0, "op_end", span=s2, host=0)  # evicts s1's begin
    spans = build_spans(trace)
    assert [s.span_id for s in spans] == [s2]


# -- flow stats ---------------------------------------------------------------


def test_flow_report_rates_guarded_for_single_op():
    stats = FlowStats()
    stats.evaluate(OpContext(now=50.0, host=None, op="post_send"))
    (flow,) = stats.report()
    assert flow["duration_ns"] == 0.0
    assert flow["msg_rate_per_s"] == 0.0
    assert flow["byte_rate_per_s"] == 0.0


def test_flow_report_rates_for_real_flows():
    stats = FlowStats()
    ctx = OpContext(now=0.0, host=None, op="post_send")
    stats.evaluate(ctx)
    stats.evaluate(OpContext(now=1000.0, host=None, op="post_send"))
    (flow,) = stats.report()
    assert flow["duration_ns"] == 1000.0
    assert flow["msg_rate_per_s"] == pytest.approx(1e6)


# -- pulled counts: one count source, trace on or off ---------------------------


def _pulled(traced, faults=None):
    """Run an incast and return the snapshot's pulled sections as JSON."""
    if faults is None:
        cfg = IncastConfig(senders=8, msgs_per_sender=8,
                           buffer_bytes=256 * 1024, congestion="dcqcn")
    else:
        cfg = IncastConfig(senders=4, msgs_per_sender=6,
                           buffer_bytes=256 * 1024)
    sim = Simulator(seed=cfg.seed, trace=Trace(enabled=traced))
    fabric, hosts, pairs = build_incast(sim, cfg)
    if faults is not None:
        fabric.inject_faults(faults)
    result = _drive(sim, cfg, fabric, hosts, pairs)
    snap = metrics_snapshot(sim, hosts=hosts)
    pulled = json.loads(json.dumps({"hosts": snap["hosts"],
                                    "fabrics": snap["fabrics"]}))
    return result, pulled


@pytest.mark.parametrize("traced", [False, True])
def test_pulled_snapshot_carries_incast_counts(traced):
    """Marks, drops, CNPs and the deepest cut are read from the component
    counters, so they are the same with the trace on or off."""
    r, pulled = _pulled(traced)
    (fabric,) = pulled["fabrics"].values()
    hosts = pulled["hosts"].values()
    assert fabric["ports"]["host0"]["messages_marked"] == r.ecn_marked > 0
    assert fabric["messages_dropped"] == r.messages_dropped > 0
    assert sum(h["nic"]["cnps_sent"] for h in hosts) == r.cnps > 0
    cut = [lim["lowest_rate"] for h in hosts
           for lim in h["limiters"].values() if lim["rate_cuts"]]
    assert min(cut) == r.min_rate
    assert pulled == _pulled(not traced)[1]


@pytest.mark.parametrize("traced", [False, True])
def test_pulled_snapshot_carries_fault_drops(traced):
    plan = FaultPlan(loss=0.05, drop_control=False)
    _r, pulled = _pulled(traced, faults=plan)
    (fabric,) = pulled["fabrics"].values()
    assert fabric["faults"]["drops"] == (
        fabric["drops_hairpin"] + fabric["drops_wire"]) > 0
    assert pulled == _pulled(not traced, faults=plan)[1]
