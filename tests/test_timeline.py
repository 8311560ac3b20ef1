"""Message timeline analysis: per-op milestones and their rendering."""

import pytest

from repro.analysis import format_timeline
from repro.cluster import build_pair
from repro.core.endpoint import make_rc_pair
from repro.hw.profiles import SYSTEM_L
from repro.sim import Simulator
from repro.sim.trace import Trace
from repro.telemetry import build_spans
from repro.verbs.wr import Opcode, RecvWR, SendWR


def _traced_send(size=4096, iters=1):
    sim = Simulator(seed=9, trace=Trace(enabled=True))
    _fabric, host_a, host_b = build_pair(sim, SYSTEM_L)

    def main():
        a, b = yield from make_rc_pair(host_a, host_b, "bypass", "bypass")
        sim.trace.clear()
        for i in range(1, iters + 1):
            yield from b.post_recv(RecvWR(wr_id=i, addr=b.buf.addr,
                                          length=b.buf.length, lkey=b.mr.lkey))
            yield from a.post_send(SendWR(wr_id=i, opcode=Opcode.SEND,
                                          addr=a.buf.addr, length=size,
                                          lkey=a.mr.lkey))
            yield from b.wait_recv()
            yield from a.wait_send()

    sim.run(sim.process(main()))
    sim.run()
    return sim


def _send_spans(sim):
    return build_spans(sim.trace, op="post_send")


def test_timeline_contains_all_milestones_in_order():
    (span,) = _send_spans(_traced_send())
    stages = [m.stage for m in span.marks]
    for milestone in ("doorbell", "tx_wire", "tx_done", "rx_arrive", "cqe"):
        assert milestone in stages
    assert stages.index("doorbell") < stages.index("tx_wire") \
        < stages.index("tx_done") < stages.index("rx_arrive")
    times = [m.time for m in span.marks]
    assert times == sorted(times)


def test_stage_latencies_sum_to_span():
    (span,) = _send_spans(_traced_send())
    stages = span.stage_durations()
    assert sum(stages.values()) == pytest.approx(span.duration_ns)
    # Wire serialization: 4 KiB + 48 B headers crosses the MTU -> 2 packets.
    assert stages["tx_wire"] == pytest.approx(
        2 * SYSTEM_L.nic.per_packet_ns + (4096 + 48) / SYSTEM_L.nic.link_bw)


def test_format_timeline_readable():
    text = format_timeline(_send_spans(_traced_send()))
    lines = text.splitlines()
    assert lines[0].startswith("post_send") and "wr=1 4096 B" in lines[0]
    assert "doorbell" in text and "us" in text
    assert lines[1].lstrip().startswith("t+")
    assert format_timeline([]).startswith("(no trace records")


def test_format_timeline_renders_only_its_own_op():
    """With five sends in flight one after another, op 1's timeline holds
    op 1's marks and notes and nothing else (no later op's CQEs)."""
    spans = _send_spans(_traced_send(iters=5))
    assert [s.wr_id for s in spans] == [1, 2, 3, 4, 5]
    op1 = spans[0]
    lines = format_timeline([op1]).splitlines()
    assert "wr=1 " in lines[0]
    rows = lines[1:]
    assert len(rows) == 1 + len(op1.marks) + len(op1.notes)
    assert sum(" cqe " in row for row in rows) == 2  # responder + requester
    offsets = [float(row.split("t+")[1].split("us")[0]) for row in rows]
    assert offsets == sorted(offsets)
    assert offsets[-1] == pytest.approx(op1.duration_ns / 1000, abs=1e-3)


def test_tracing_off_by_default_costs_nothing():
    sim = _traced_send()
    sim2 = Simulator(seed=9)  # default: disabled trace
    assert len(sim2.trace) == 0
    assert len(sim.trace) > 0
