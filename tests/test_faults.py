"""Fault injection and RC loss recovery, end to end.

Covers the repro.faults subsystem (loss, flaps, stalls, receiver pauses),
the NIC's ACK-timeout retransmission with exponential back-off and
RETRY_EXC_ERR exhaustion, the escalating RNR back-off, atomic replay
exactly-once semantics, error-ACK QP teardown, and flush ordering /
event-driven flush observation.
"""

import pytest

from repro.cluster import build_pair
from repro.core.dataplane import WaitMode
from repro.core.endpoint import make_rc_pair
from repro.errors import ConfigError
from repro.faults import FaultInjector, FaultPlan, parse_fault_spec
from repro.hw.profiles import SYSTEM_L
from repro.sim import Simulator
from repro.sim.trace import Trace
from repro.telemetry import attribute_spans, build_spans
from repro.units import us
from repro.verbs.cq import CompletionQueue
from repro.verbs.qp import QPState, QueuePair, Transport
from repro.verbs.wr import Opcode, RecvWR, SendWR, WCStatus


def run_faulty(scenario, plan=None, seed=1, trace=False,
               kind_a="bypass", kind_b="bypass", plan_at=None):
    """Two-host testbed with an optional fault plan on the fabric.

    ``plan`` attaches before setup (absolute windows).  ``plan_at`` is a
    callable ``t0 -> FaultPlan`` invoked right after connection setup, so
    scheduled windows can be phrased relative to when traffic can start.
    """
    sim = (Simulator(seed=seed, trace=Trace(enabled=True))
           if trace else Simulator(seed=seed))
    fabric, host_a, host_b = build_pair(sim, SYSTEM_L)
    holder = {"inj": fabric.inject_faults(plan) if plan is not None else None}

    def main():
        a, b = yield from make_rc_pair(host_a, host_b, kind_a, kind_b)
        if plan_at is not None:
            holder["inj"] = fabric.inject_faults(plan_at(sim.now))
        result = yield from scenario(sim, a, b)
        return result

    result = sim.run(sim.process(main()))
    return result, sim, holder["inj"]


def _recv_wr(b, wr_id):
    return RecvWR(wr_id=wr_id, addr=b.buf.addr, length=b.buf.length,
                  lkey=b.mr.lkey)


def _send_wr(a, wr_id, nbytes=1024):
    return SendWR(wr_id=wr_id, opcode=Opcode.SEND, addr=a.buf.addr,
                  length=nbytes, lkey=a.mr.lkey)


def _notes(trace, name):
    """The trace's ``note`` records called ``name``, in emission order."""
    return [r for r in trace.select(event="note")
            if r.get("name") == name]


def _tx_wires(trace, wr_id):
    """Wire-start marks of host 0's send ``wr_id`` (one per transmission)."""
    (span,) = [s for s in build_spans(trace, op="post_send")
               if s.host == 0 and s.wr_id == wr_id]
    return [m for m in span.marks if m.stage == "tx_wire"]


# -- plan parsing and validation -------------------------------------------------


def test_parse_fault_spec_full_grammar():
    plan = parse_fault_spec(
        "loss=0.01,link=0-1:0.5,flap=1e6:2e6,degrade=3e6:4e6:2.5,"
        "stall=1:5e6:6e6,pause=0:7e6:8e6,nodropctl"
    )
    assert plan.loss == 0.01
    assert plan.link_loss == ((0, 1, 0.5),)
    assert plan.flaps == ((1e6, 2e6),)
    assert plan.degrade == ((3e6, 4e6, 2.5),)
    assert plan.stalls == ((1, 5e6, 6e6),)
    assert plan.pauses == ((0, 7e6, 8e6),)
    assert plan.drop_control is False
    assert plan.lossy


@pytest.mark.parametrize("spec", [
    "loss=abc", "bogus=1", "flap=1e6", "loss", "link=0:0.5", "pause=0:2:x",
])
def test_parse_fault_spec_rejects_malformed(spec):
    with pytest.raises(ConfigError):
        parse_fault_spec(spec)


@pytest.mark.parametrize("kwargs", [
    dict(loss=1.5), dict(loss=-0.1),
    dict(flaps=((10.0, 5.0),)),
    dict(degrade=((0.0, 1.0, 0.5),)),
    dict(link_loss=((0, 1, 2.0),)),
])
def test_fault_plan_validates(kwargs):
    with pytest.raises(ConfigError):
        FaultPlan(**kwargs)


def test_fault_plan_is_hashable_value_type():
    assert FaultPlan(loss=0.1) == FaultPlan(loss=0.1)
    assert hash(FaultPlan(loss=0.1)) == hash(FaultPlan(loss=0.1))
    assert not FaultPlan().lossy


# -- loss recovery ---------------------------------------------------------------


def _lossy_burst(n=40, nbytes=1024):
    def scenario(sim, a, b):
        for i in range(n):
            yield from b.post_recv(_recv_wr(b, 100 + i))
        statuses = []
        for i in range(n):
            yield from a.post_send(_send_wr(a, i, nbytes))
            cqes = yield from a.wait_send()
            statuses.extend(c.status for c in cqes)
        nic = a.host.nic.counters
        return statuses, nic.ack_timeouts, nic.retransmits, sim.now
    return scenario


def test_lossy_sends_all_recover():
    """20% loss: every WR still completes SUCCESS via retransmission."""
    (statuses, timeouts, retx, _), _sim, inj = run_faulty(
        _lossy_burst(), plan=FaultPlan(loss=0.2))
    assert statuses == [WCStatus.SUCCESS] * 40
    assert inj.drops >= 1
    assert timeouts >= 1 and retx >= 1


def test_notes_never_move_attribution():
    """Notes ride along on their spans but create no stage: attribution is
    the same with every note record removed, and every ACK-timeout and
    retransmit note names a span ``build_spans`` returns."""
    _result, sim, _inj = run_faulty(_lossy_burst(), plan=FaultPlan(loss=0.2),
                                    trace=True)
    records = list(sim.trace)
    notes = [r for r in records if r.event == "note"]
    assert {r.get("name") for r in notes} >= {"ack_timeout", "retransmit",
                                              "drop"}
    spans = build_spans(records)
    bare = build_spans([r for r in records if r.event != "note"])
    assert [s.stages() for s in spans] == [s.stages() for s in bare]
    assert attribute_spans(spans) == attribute_spans(bare)
    assert sum(len(s.notes) for s in spans) > 0
    ids = {s.span_id for s in spans}
    for note in notes:
        if note.get("name") in ("ack_timeout", "retransmit"):
            assert note.get("span") in ids, note


def test_same_seed_is_bit_identical():
    runs = [run_faulty(_lossy_burst(), plan=FaultPlan(loss=0.2), seed=3)
            for _ in range(2)]
    (s1, t1, r1, now1), _, i1 = runs[0][0], runs[0][1], runs[0][2]
    (s2, t2, r2, now2), _, i2 = runs[1][0], runs[1][1], runs[1][2]
    assert repr(now1) == repr(now2)
    assert (s1, t1, r1) == (s2, t2, r2)
    assert i1.snapshot() == i2.snapshot()


def test_zero_loss_plan_is_invisible():
    """An attached do-nothing plan must not move a single bit."""
    (res_a, _, inj) = run_faulty(_lossy_burst(), plan=FaultPlan())
    (res_b, _, _none) = run_faulty(_lossy_burst(), plan=None)
    assert repr(res_a[3]) == repr(res_b[3])
    assert res_a[0] == res_b[0]
    assert inj.drops == 0 and inj.delays == 0


def test_total_loss_exhausts_retries_and_errors_qp():
    """loss=1.0: retry_cnt exhausts, the WR fails RETRY_EXC_ERR, the QP
    goes to ERROR and the remaining in-flight send flushes."""

    def scenario(sim, a, b):
        yield from b.post_recv(_recv_wr(b, 100))
        yield from a.post_send(_send_wr(a, 1))
        yield from a.post_send(_send_wr(a, 2))
        cqes = []
        while len(cqes) < 2:
            cqes.extend((yield from a.wait_send()))
        return cqes, a.qp.state, a.host.nic.counters

    (cqes, state, nic), _sim, inj = run_faulty(
        scenario, plan=FaultPlan(loss=1.0))
    assert [c.status for c in cqes] == [
        WCStatus.RETRY_EXC_ERR, WCStatus.WR_FLUSH_ERR]
    assert cqes[0].wr_id == 1
    assert state is QPState.ERROR
    assert nic.retry_exc_errs == 1
    # retry_cnt=7 retransmissions per WR were attempted before giving up
    # (the second WR was flushed by the first one's QP teardown).
    assert nic.retransmits >= 7
    assert inj.drops >= 8


def test_fig4_style_bw_loop_with_loss_completes_and_reproduces():
    """Acceptance criterion: the fig4 bandwidth loop at loss=0.01 never
    hangs, retransmit counters are nonzero, and reruns are bit-identical."""
    from repro.perftest.runner import PerftestConfig, run_bw

    cfg = PerftestConfig(system="L", transport="RC", op="send",
                         iters=200, warmup=50, window=64,
                         faults=FaultPlan(loss=0.01))
    r1 = run_bw(cfg, 4096)
    r2 = run_bw(cfg, 4096)
    assert r1.retransmits > 0 and r1.ack_timeouts > 0
    assert repr(r1.duration_ns) == repr(r2.duration_ns)
    assert r1.retransmits == r2.retransmits
    # And the same config without faults matches the lossless goldens'
    # invariant: no recovery machinery runs at all.
    clean = run_bw(cfg.with_(faults=None), 4096)
    assert clean.retransmits == 0 and clean.ack_timeouts == 0


# -- scheduled faults: flaps, stalls, pauses --------------------------------------


def test_link_flap_drops_then_timeout_recovers():
    plan_at = lambda t0: FaultPlan(flaps=((t0 + us(150), t0 + us(300)),))
    deadline = {}

    def scenario(sim, a, b):
        deadline["flap_end"] = sim.now + us(300)
        yield from b.post_recv(_recv_wr(b, 100))
        yield sim.timeout(us(200))
        yield from a.post_send(_send_wr(a, 1))
        cqes = yield from a.wait_send()
        return cqes, sim.now

    (cqes, now), _sim, inj = run_faulty(scenario, plan_at=plan_at)
    assert cqes[0].ok
    assert inj.drops >= 1
    # Recovery could not complete before the flap window closed.
    assert now >= deadline["flap_end"]


def test_stall_window_defers_arrival_without_loss():
    plan_at = lambda t0: FaultPlan(stalls=((1, t0 + us(150), t0 + us(400)),))
    deadline = {}

    def scenario(sim, a, b):
        deadline["stall_end"] = sim.now + us(400)
        yield from b.post_recv(_recv_wr(b, 100))
        yield sim.timeout(us(200))
        yield from a.post_send(_send_wr(a, 1))
        cqes = yield from a.wait_send()
        return cqes, sim.now

    (cqes, now), _sim, inj = run_faulty(scenario, plan_at=plan_at)
    assert cqes[0].ok
    assert inj.drops == 0 and inj.delays >= 1
    assert now >= deadline["stall_end"]


def test_degrade_window_slows_delivery():
    plan_at = lambda t0: FaultPlan(
        degrade=((t0 + us(150), t0 + us(400), 100.0),))

    def scenario(sim, a, b):
        yield from b.post_recv(_recv_wr(b, 100))
        yield sim.timeout(us(200))
        start = sim.now
        yield from a.post_send(_send_wr(a, 1))
        cqes = yield from a.wait_send()
        return cqes, sim.now - start

    (cqes, elapsed), _sim, inj = run_faulty(scenario, plan_at=plan_at)
    (clean_cqes, clean_elapsed), _sim2, _ = run_faulty(scenario, plan=None)
    assert cqes[0].ok and clean_cqes[0].ok
    assert inj.delays >= 1
    assert elapsed > clean_elapsed


def test_receiver_pause_forces_rnr_and_recovers():
    plan_at = lambda t0: FaultPlan(pauses=((1, t0 + us(150), t0 + us(200)),))
    deadline = {}

    def scenario(sim, a, b):
        deadline["pause_end"] = sim.now + us(200)
        yield from b.post_recv(_recv_wr(b, 100))
        yield sim.timeout(us(150))
        yield from a.post_send(_send_wr(a, 1))
        cqes = yield from a.wait_send()
        return cqes, b.host.nic.counters.rnr_naks_sent, sim.now

    (cqes, naks, now), _sim, _inj = run_faulty(
        scenario, plan_at=plan_at, trace=True)
    assert cqes[0].ok
    assert naks >= 2  # paused long enough for more than one RNR NAK
    assert now >= deadline["pause_end"]  # landed after the pause lifted


def test_rnr_backoff_escalates():
    """Retransmit gaps must grow with the retry index (delay x index)."""
    plan_at = lambda t0: FaultPlan(pauses=((1, t0 + us(150), t0 + us(210)),))

    def scenario(sim, a, b):
        yield from b.post_recv(_recv_wr(b, 100))
        yield sim.timeout(us(150))
        yield from a.post_send(_send_wr(a, 1))
        cqes = yield from a.wait_send()
        return cqes

    (cqes), sim, _inj = run_faulty(scenario, plan_at=plan_at, trace=True)
    assert cqes[0].ok
    times = [rec.time for rec in _notes(sim.trace, "retransmit")]
    assert len(times) >= 2
    gaps = [b - a for a, b in zip(times, times[1:])]
    assert all(g2 > g1 for g1, g2 in zip(gaps, gaps[1:])), gaps
    # Back-off really escalated: every later gap exceeds the base delay.
    from repro.hw.nic import RNR_DELAY_NS
    assert all(g > RNR_DELAY_NS for g in gaps)


# -- exactly-once semantics under retransmission ---------------------------------


def test_atomics_exactly_once_under_loss():
    """Retransmitted FETCH_ADDs must not re-execute: the responder replay
    cache answers duplicates, so N adds land exactly N times."""
    n = 10

    def scenario(sim, a, b):
        b.buf.write(0, (0).to_bytes(8, "little"))
        results = []
        for i in range(n):
            wr = SendWR(wr_id=i, opcode=Opcode.ATOMIC_FETCH_ADD,
                        addr=a.buf.addr, length=8, lkey=a.mr.lkey,
                        remote_addr=b.buf.addr, rkey=b.mr.rkey,
                        compare_add=1)
            yield from a.post_send(wr)
            cqes = yield from a.wait_send()
            results.extend(cqes)
        final = int.from_bytes(b.buf.read(0, 8), "little")
        return results, final, a.host.nic.counters.retransmits

    (cqes, final, retx), _sim, inj = run_faulty(
        scenario, plan=FaultPlan(loss=0.2), seed=5)
    assert all(c.ok for c in cqes)
    assert inj.drops >= 1 and retx >= 1
    assert final == n  # not n + (number of duplicate executions)


def test_read_retransmit_under_loss_returns_data():
    payload = b"\x5a" * 1024

    def scenario(sim, a, b):
        b.buf.write(0, payload)
        wr = SendWR(wr_id=1, opcode=Opcode.RDMA_READ, addr=a.buf.addr,
                    length=1024, lkey=a.mr.lkey,
                    remote_addr=b.buf.addr, rkey=b.mr.rkey)
        yield from a.post_send(wr)
        cqes = yield from a.wait_send()
        return cqes, a.buf.read(0, 1024), a.host.nic.counters.retransmits

    (cqes, got, retx), _sim, inj = run_faulty(
        scenario, plan=FaultPlan(loss=0.4), seed=1)
    assert cqes[0].ok and got == payload
    assert inj.drops >= 1 and retx >= 1


# -- error-path bugfix regressions -----------------------------------------------


def test_remote_error_ack_transitions_qp_to_error():
    """Regression: a positive ACK carrying a remote-error status used to
    post REM_ACCESS_ERR but leave the QP in RTS."""
    from repro.errors import QPStateError

    def scenario(sim, a, b):
        wr = SendWR(wr_id=1, opcode=Opcode.RDMA_WRITE, addr=a.buf.addr,
                    length=64, lkey=a.mr.lkey,
                    remote_addr=b.buf.addr, rkey=0xdead)  # bad rkey
        yield from a.post_send(wr)
        cqes = yield from a.wait_send()
        state_after = a.qp.state
        with pytest.raises(QPStateError):
            yield from a.post_send(_send_wr(a, 2))
        return cqes, state_after

    (cqes, state), _sim, _ = run_faulty(scenario)
    assert cqes[0].status is WCStatus.REM_ACCESS_ERR
    assert state is QPState.ERROR


def test_remote_error_ack_flushes_other_inflight_sends():
    def scenario(sim, a, b):
        yield from b.post_recv(_recv_wr(b, 100))
        bad = SendWR(wr_id=1, opcode=Opcode.RDMA_WRITE, addr=a.buf.addr,
                     length=64, lkey=a.mr.lkey,
                     remote_addr=b.buf.addr, rkey=0xdead)
        yield from a.post_send(bad)
        yield from a.post_send(_send_wr(a, 2))
        cqes = []
        while len(cqes) < 2:
            cqes.extend((yield from a.wait_send()))
        return cqes, a.qp.state

    (cqes, state), _sim, _ = run_faulty(scenario)
    statuses = {c.wr_id: c.status for c in cqes}
    assert statuses[1] is WCStatus.REM_ACCESS_ERR
    # The trailing send either flushed (QP already in ERROR when its turn
    # came) or completed first; both leave the QP in ERROR at the end.
    assert state is QPState.ERROR


def test_retries_go_through_tx_pipeline():
    """Regression: retransmissions used to bypass the TX engine.  With the
    fix, a retried message appears twice in the TX trace (tx_start)."""
    plan_at = lambda t0: FaultPlan(pauses=((1, t0 + us(150), t0 + us(170)),))

    def scenario(sim, a, b):
        yield from b.post_recv(_recv_wr(b, 100))
        yield sim.timeout(us(150))
        yield from a.post_send(_send_wr(a, 1))
        cqes = yield from a.wait_send()
        return cqes

    cqes, sim, _inj = run_faulty(scenario, plan_at=plan_at, trace=True)
    assert cqes[0].ok
    starts = _tx_wires(sim.trace, wr_id=1)
    assert len(starts) >= 2  # original + at least one retry, both traced


def _held_ack_send(stall_end):
    """One RC send whose ACK a stall on the initiator holds until
    ``stall_end`` ns after traffic can start.  Returns the send CQEs, the
    initiator's counters, the trace and the start time."""
    plan_at = lambda t0: FaultPlan(stalls=((0, t0, t0 + stall_end),))

    def scenario(sim, a, b):
        start = sim.now
        yield from b.post_recv(_recv_wr(b, 100))
        yield from a.post_send(_send_wr(a, 1))
        cqes = list((yield from a.wait_send()))
        # Let any duplicate and its re-ACK play out, then reap again.
        yield sim.timeout(us(1000))
        cqes.extend(a.send_cq.poll(16))
        return cqes, a.host.nic.counters, start

    (cqes, counters, start), sim, _inj = run_faulty(
        scenario, plan_at=plan_at, trace=True)
    return cqes, counters, sim.trace, start


def test_late_ack_during_retry_fetch_completes_once(monkeypatch):
    """Regression: an ACK-timeout retry checked that its WR was still
    outstanding only *before* its WQE/payload fetch.  A late ACK landing
    during the fetch completed the WR; the retry then re-inserted it, sent
    a duplicate, and the duplicate's re-ACK completed it a second time
    (PROTO107, sq_outstanding = -1).  Sweep the ACK's release across the
    retry's fetch: every release must complete the WR exactly once, and
    ``retransmits`` must count only duplicates that really hit the wire."""
    monkeypatch.setenv("REPRO_VERIFY_MONITORS", "1")
    # Probe: when does the ACK timer fire with the ACK held long enough?
    _, counters, trace, start = _held_ack_send(us(150))
    fired = [r.time for r in _notes(trace, "ack_timeout")]
    assert counters.ack_timeouts == len(fired) == 1
    # Releases from just before the timer to past the retry's fetch
    # (TX engine slot, WQE and payload DMA reads, then the ACK's RX slot).
    p = SYSTEM_L.nic
    span = p.wqe_process_ns + 2 * p.dma_read_lat_ns + p.rx_process_ns
    for step in range(-4, 41):
        release = fired[0] - start + step * span / 32
        cqes, counters, trace, _ = _held_ack_send(release)
        assert [c.status for c in cqes] == [WCStatus.SUCCESS], release
        sent = _tx_wires(trace, wr_id=1)
        assert counters.retransmits == len(sent) - 1, release


# -- flush semantics (QueuePair error path) --------------------------------------


def test_flush_with_errors_orders_recv_before_send_and_sends_by_psn():
    sim = Simulator(seed=1)
    cq = CompletionQueue(sim, name="shared")
    qp = QueuePair(pd=None, transport=Transport.RC, send_cq=cq, recv_cq=cq,
                   qpn=9, sq_depth=16, rq_depth=16, max_inline=0)
    # state is a read-only property now: walk the legal handshake path.
    qp.modify(QPState.INIT)
    qp.modify(QPState.RTR, remote=(1, 9))
    qp.modify(QPState.RTS)
    qp.rq.append(RecvWR(wr_id=101))
    qp.rq.append(RecvWR(wr_id=102))
    # Out-of-order insertion: flush must sort sends by PSN.
    qp.outstanding[3] = SendWR(wr_id=13, opcode=Opcode.SEND)
    qp.outstanding[1] = SendWR(wr_id=11, opcode=Opcode.SEND)
    qp.outstanding[2] = SendWR(wr_id=12, opcode=Opcode.SEND)
    qp.retx_retries[1] = 4
    qp.modify(QPState.ERROR)

    entries = list(cq.entries)
    assert [c.wr_id for c in entries] == [101, 102, 11, 12, 13]
    assert all(c.status is WCStatus.WR_FLUSH_ERR for c in entries)
    assert qp.sq_outstanding == 0
    assert not qp.outstanding and not qp.retx_retries and not qp.retx_epoch


def test_event_driven_waiter_observes_flush_cqes():
    """A waiter blocked in EVENT mode (req_notify + completion channel)
    must wake when the QP errors and its recvs flush."""

    def scenario(sim, a, b):
        yield from b.post_recv(_recv_wr(b, 55))

        def killer():
            yield sim.timeout(us(50))
            b.qp.modify(QPState.ERROR)

        sim.process(killer())
        cqes = yield from b.wait_recv(mode=WaitMode.EVENT)
        return cqes, sim.now

    (cqes, now), _sim, _ = run_faulty(scenario)
    assert len(cqes) == 1
    assert cqes[0].wr_id == 55
    assert cqes[0].status is WCStatus.WR_FLUSH_ERR
    assert now >= us(50)


# -- injector details ------------------------------------------------------------


def test_per_link_loss_overrides_only_named_direction():
    """link_loss on 0->1 drops forward data; the reverse direction is
    clean, so recovery needs only the initiator's timers."""
    plan = FaultPlan(link_loss=((0, 1, 0.5),))
    (statuses, timeouts, retx, _), _sim, inj = run_faulty(
        _lossy_burst(n=20), plan=plan, seed=4)
    assert statuses == [WCStatus.SUCCESS] * 20
    assert inj.drops >= 1


def test_injector_uses_named_rng_streams():
    sim = Simulator(seed=7)
    inj = FaultInjector(sim, FaultPlan(loss=0.5), scope="fabric")
    for _ in range(8):
        inj.on_transmit(0, 1, 0.0, "send", 100, 250.0)
    # The per-link stream exists and nothing else was touched.
    assert "faults.fabric.l0-1" in sim.rng._streams
    assert inj.drops + inj.delays >= 0
    assert "faults.fabric.l1-0" not in sim.rng._streams


def test_fabric_level_fault_hook():
    """The fabric honours an attached injector (drops by directed link)."""
    sim = Simulator(seed=1)
    fabric, _host_a, _host_b = build_pair(sim, SYSTEM_L)
    inj = fabric.inject_faults(FaultPlan(flaps=((0.0, 1e9),)))
    got = []
    fabric.nic(1).deliver = got.append

    def sender():
        yield from fabric.transmit(0, 1, 512, "payload")

    sim.run(sim.process(sender()))
    sim.run()
    assert got == []  # flap window swallowed it
    assert inj.drops == 1
    assert inj.snapshot()["drops_by_link"] == {"0-1": 1}
