"""Shared receive queue semantics."""

import pytest

from repro.cluster import build_cluster
from repro.core.endpoint import make_endpoint
from repro.core.policy import Policy, PolicyChain
from repro.errors import PolicyViolation, VerbsError
from repro.hw.profiles import SYSTEM_L
from repro.sim import Simulator
from repro.units import us
from repro.verbs.pd import ProtectionDomain
from repro.verbs.qp import Transport
from repro.verbs.srq import SharedReceiveQueue
from repro.verbs.wr import Opcode, RecvWR, SendWR


def test_srq_validation():
    pd = ProtectionDomain(context=None)
    with pytest.raises(VerbsError):
        SharedReceiveQueue(pd, depth=0)
    srq = SharedReceiveQueue(pd, depth=2)
    srq.push(RecvWR(wr_id=1))
    srq.push(RecvWR(wr_id=2))
    with pytest.raises(VerbsError, match="full"):
        srq.check_post(RecvWR(wr_id=3))


def test_srq_fifo_pop():
    pd = ProtectionDomain(context=None)
    srq = SharedReceiveQueue(pd, depth=8)
    for i in range(4):
        srq.push(RecvWR(wr_id=i))
    assert [srq.pop().wr_id for _ in range(4)] == [0, 1, 2, 3]
    assert srq.recvs_consumed == 4


def test_srq_limit_event():
    sim = Simulator()
    pd = ProtectionDomain(context=None)
    srq = SharedReceiveQueue(pd, depth=16, limit=2)
    for i in range(4):
        srq.push(RecvWR(wr_id=i))
    ev = srq.limit_event(sim)
    srq.pop()
    assert not ev.triggered  # 3 left, still >= limit
    srq.pop()
    srq.pop()  # 1 left < limit -> fires
    assert ev.triggered


def _srq_world():
    """Two sender endpoints on host0 feeding two QPs that share one SRQ."""
    sim = Simulator(seed=5)
    _fabric, hosts = build_cluster(sim, SYSTEM_L, 2)
    src, dst = hosts
    state = {}

    def setup():
        recv_ep = yield from make_endpoint(dst, "bypass")
        srq = yield from recv_ep.ctx.create_srq(recv_ep.pd, depth=64)
        senders = []
        server_qps = []
        for _ in range(2):
            s = yield from make_endpoint(src, "bypass")
            qp = yield from recv_ep.ctx.create_qp(
                recv_ep.pd, Transport.RC, recv_ep.send_cq, recv_ep.recv_cq,
                srq=srq)
            yield from s.ctx.connect_qp(s.qp, (dst.host_id, qp.qpn))
            yield from recv_ep.ctx.connect_qp(qp, s.addr)
            senders.append(s)
            server_qps.append(qp)
        state.update(recv=recv_ep, srq=srq, senders=senders, qps=server_qps)

    sim.run(sim.process(setup()))
    return sim, state


def test_two_qps_share_one_srq_pool():
    sim, st = _srq_world()
    recv, srq, senders = st["recv"], st["srq"], st["senders"]

    def main():
        wrs = [RecvWR(wr_id=i, addr=recv.buf.addr, length=recv.buf.length,
                      lkey=recv.mr.lkey) for i in range(8)]
        yield from recv.dataplane.post_srq_recv_many(srq, wrs)
        for j, s in enumerate(senders):
            for i in range(3):
                yield from s.post_send(SendWR(
                    wr_id=j * 10 + i, opcode=Opcode.SEND, addr=s.buf.addr,
                    length=256, lkey=s.mr.lkey))
        got = []
        while len(got) < 6:
            cqes = yield from recv.wait_recv()
            got.extend(cqes)
        return got

    got = sim.run(sim.process(main()))
    assert len(got) == 6
    assert all(c.ok for c in got)
    # Both QPs delivered; the pool shrank by exactly 6.
    assert len({c.qp_num for c in got}) == 2
    assert len(st["srq"]) == 2


def test_post_recv_on_srq_qp_rejected():
    sim, st = _srq_world()
    recv = st["recv"]
    qp = st["qps"][0]

    def main():
        with pytest.raises(VerbsError, match="SRQ"):
            yield from recv.post_recv.__self__.dataplane.post_recv(
                qp, RecvWR(wr_id=1, addr=recv.buf.addr, length=64,
                           lkey=recv.mr.lkey))
        return "ok"
        yield

    assert sim.run(sim.process(main())) == "ok"


def test_empty_srq_rnr_then_recovery():
    sim, st = _srq_world()
    recv, srq, senders = st["recv"], st["srq"], st["senders"]

    def main():
        s = senders[0]
        yield from s.post_send(SendWR(wr_id=1, opcode=Opcode.SEND,
                                      addr=s.buf.addr, length=128,
                                      lkey=s.mr.lkey))
        yield sim.timeout(us(30))
        # Refill the SRQ after the first RNR NAK.
        yield from recv.dataplane.post_srq_recv_many(srq, [
            RecvWR(wr_id=9, addr=recv.buf.addr, length=recv.buf.length,
                   lkey=recv.mr.lkey)])
        cqes = yield from recv.wait_recv()
        return cqes[0].ok, recv.host.nic.counters.rnr_naks_sent

    ok, naks = sim.run(sim.process(main()))
    assert ok and naks >= 1


def test_srq_conservation_under_mixed_load():
    """N sends split across two SRQ-fed QPs consume exactly N pool slots."""
    sim, st = _srq_world()
    recv, srq, senders = st["recv"], st["srq"], st["senders"]
    total = 20

    def main():
        wrs = [RecvWR(wr_id=i, addr=recv.buf.addr, length=recv.buf.length,
                      lkey=recv.mr.lkey) for i in range(total + 4)]
        yield from recv.dataplane.post_srq_recv_many(srq, wrs)

        def pump(s, n, tag):
            for i in range(n):
                yield from s.post_send(SendWR(
                    wr_id=tag * 100 + i, opcode=Opcode.SEND, addr=s.buf.addr,
                    length=512, lkey=s.mr.lkey))
                if i % 4 == 3:
                    yield from s.wait_send()

        procs = [sim.process(pump(s, total // 2, j))
                 for j, s in enumerate(senders)]
        got = 0
        while got < total:
            got += len((yield from recv.wait_recv()))
        yield sim.all_of(procs)
        return got

    got = sim.run(sim.process(main()))
    sim.run()
    assert got == total
    assert srq.recvs_consumed == total
    assert len(srq) == 4  # exactly the surplus remains


class _DenyRecvs(Policy):
    name = "deny-recvs"

    def _evaluate(self, ctx):
        if ctx.op == "post_recv":
            raise self.deny("no receives")
        return 0.0


def test_denied_srq_post_pays_the_syscall_like_a_qp_post():
    """A CoRD SRQ post denied by policy still crosses the kernel: one
    syscall, one denied op and the same charge as a denied QP post."""
    sim = Simulator(seed=5)
    _fabric, hosts = build_cluster(sim, SYSTEM_L, 2)

    def main():
        ep = yield from make_endpoint(
            hosts[1], "cord", policies=PolicyChain([_DenyRecvs()]))
        srq = yield from ep.ctx.create_srq(ep.pd, depth=8)
        charges = []
        for post in (lambda wrs: ep.dataplane.post_recv_many(ep.qp, wrs),
                     lambda wrs: ep.dataplane.post_srq_recv_many(srq, wrs)):
            t0, calls = sim.now, ep.core.syscalls
            with pytest.raises(PolicyViolation, match="deny-recvs"):
                yield from post([RecvWR(wr_id=1, addr=ep.buf.addr,
                                        length=64, lkey=ep.mr.lkey)])
            charges.append((sim.now - t0, ep.core.syscalls - calls))
        return charges, ep.dataplane.denied_ops, len(srq)

    charges, denied, pooled = sim.run(sim.process(main()))
    assert charges[0][0] > 0.0
    assert charges[1] == charges[0]
    assert charges[0][1] == 1
    assert denied == 2
    assert pooled == 0
