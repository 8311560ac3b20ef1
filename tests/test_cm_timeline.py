"""Connection manager handshake + message timeline analysis."""

import pytest

from repro.analysis import format_timeline
from repro.cluster import build_pair
from repro.core.endpoint import make_endpoint, make_rc_pair
from repro.errors import KernelError
from repro.hw.profiles import SYSTEM_L
from repro.sim import Simulator
from repro.sim.trace import Trace
from repro.telemetry import build_spans
from repro.units import us
from repro.verbs import cm
from repro.verbs.qp import QPState
from repro.verbs.wr import Opcode, RecvWR, SendWR


@pytest.fixture(autouse=True)
def clean_cm_registry():
    cm.reset_registry()
    yield
    cm.reset_registry()


def test_cm_connect_establishes_working_connection():
    sim = Simulator(seed=9)
    _fabric, host_a, host_b = build_pair(sim, SYSTEM_L)
    out = {}

    def server():
        ep = yield from make_endpoint(host_b, "bypass")
        listener = cm.CmListener(host_b, service_id=4791)
        client_addr = yield from listener.accept(ep)
        out["client_addr"] = client_addr
        yield from ep.post_recv(RecvWR(wr_id=1, addr=ep.buf.addr,
                                       length=ep.buf.length, lkey=ep.mr.lkey))
        cqes = yield from ep.wait_recv()
        out["got"] = cqes[0].byte_len

    def client():
        ep = yield from make_endpoint(host_a, "bypass")
        yield sim.timeout(us(5))  # let the listener come up
        server_addr = yield from cm.cm_connect(ep, host_b.host_id, 4791)
        out["server_addr"] = server_addr
        assert ep.qp.state is QPState.RTS
        yield from ep.post_send(SendWR(wr_id=1, opcode=Opcode.SEND,
                                       addr=ep.buf.addr, length=2048,
                                       lkey=ep.mr.lkey))
        yield from ep.wait_send()
        out["client_qp"] = ep.qp

    sim.process(server())
    sim.process(client())
    sim.run()
    assert out["got"] == 2048
    assert out["server_addr"][0] == host_b.host_id
    assert out["client_addr"][0] == host_a.host_id
    # The client's QP really is connected to what the REP advertised.
    assert out["client_qp"].remote == out["server_addr"]


def test_cm_connect_refused_without_listener():
    sim = Simulator(seed=9)
    _fabric, host_a, host_b = build_pair(sim, SYSTEM_L)

    def client():
        ep = yield from make_endpoint(host_a, "bypass")
        yield from cm.cm_connect(ep, host_b.host_id, 9999)

    with pytest.raises(KernelError, match="no listener"):
        sim.run(sim.process(client()))


def test_cm_double_listen_rejected():
    sim = Simulator(seed=9)
    _fabric, _a, host_b = build_pair(sim, SYSTEM_L)
    cm.CmListener(host_b, service_id=1)
    with pytest.raises(KernelError, match="already listening"):
        cm.CmListener(host_b, service_id=1)


def test_cm_handshake_takes_more_than_one_rtt():
    sim = Simulator(seed=9)
    _fabric, host_a, host_b = build_pair(sim, SYSTEM_L)
    out = {}

    def server():
        ep = yield from make_endpoint(host_b, "bypass")
        listener = cm.CmListener(host_b, service_id=7)
        yield from listener.accept(ep)

    def client():
        ep = yield from make_endpoint(host_a, "bypass")
        yield sim.timeout(us(50))
        t0 = sim.now
        yield from cm.cm_connect(ep, host_b.host_id, 7)
        out["dt"] = sim.now - t0

    sim.process(server())
    sim.process(client())
    sim.run()
    rtt = 2 * SYSTEM_L.propagation_ns
    assert out["dt"] > rtt + 2 * cm.CM_LEG_KERNEL_NS


# -- timeline analysis -----------------------------------------------------------


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
