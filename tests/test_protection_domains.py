"""Protection domains: a work request may only use MRs of its queue's PD."""

import pytest

from repro.cluster import build_cluster, build_pair
from repro.core.endpoint import connect, make_endpoint, make_rc_pair
from repro.errors import MemoryAccessError
from repro.hw.profiles import SYSTEM_L
from repro.sim import Simulator
from repro.verbs.wr import Opcode, RecvWR, SendWR, WCStatus


def _send(ep, wr_id, lkey):
    return SendWR(wr_id=wr_id, opcode=Opcode.SEND, addr=ep.buf.addr,
                  length=256, lkey=lkey)


def test_local_key_of_another_pd_fails_the_post():
    # Two endpoints on one host, each with its own PD and MR.  The QP of
    # PD 2 may not send from PD 1's MR, although the MR is on its host.
    sim = Simulator(seed=1)
    _fabric, (host,) = build_cluster(sim, SYSTEM_L, 1)

    def main():
        a = yield from make_endpoint(host, "bypass")
        b = yield from make_endpoint(host, "bypass")
        assert a.pd is not b.pd
        yield from connect(a, b)
        for wr_id in (1, 2):
            yield from a.post_recv(RecvWR(wr_id=wr_id, addr=a.buf.addr,
                                          length=a.buf.length, lkey=a.mr.lkey))
        yield from b.post_send(_send(b, 1, b.mr.lkey))
        (own,) = yield from b.wait_send()
        with pytest.raises(MemoryAccessError, match="PD"):
            yield from b.post_send(_send(b, 2, a.mr.lkey))
        return own.status

    assert sim.run(sim.process(main())) is WCStatus.SUCCESS


def test_remote_key_of_another_pd_is_a_remote_access_error():
    # The responder QP's PD does not own the target MR, though the MR is
    # registered on the responder's host: the write is NAKed.
    sim = Simulator(seed=1)
    _fabric, host_a, host_b = build_pair(sim, SYSTEM_L)

    def write(a, target, wr_id):
        wr = SendWR(wr_id=wr_id, opcode=Opcode.RDMA_WRITE, addr=a.buf.addr,
                    length=64, lkey=a.mr.lkey,
                    remote_addr=target.buf.addr, rkey=target.mr.rkey)
        yield from a.post_send(wr)
        (cqe,) = yield from a.wait_send()
        return cqe.status

    def main():
        a, b = yield from make_rc_pair(host_a, host_b, "bypass", "bypass")
        other = yield from make_endpoint(host_b, "bypass")
        own = yield from write(a, b, 1)
        foreign = yield from write(a, other, 2)
        return own, foreign

    assert sim.run(sim.process(main())) == (WCStatus.SUCCESS,
                                            WCStatus.REM_ACCESS_ERR)
    assert host_b.nic.counters.remote_access_errors == 1
