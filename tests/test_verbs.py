"""Verbs layer unit tests: QP state machine, MR table, CQ, WR validation."""

import dataclasses

import pytest

from repro.cluster import build_pair
from repro.errors import CQError, MemoryAccessError, QPStateError, VerbsError
from repro.hw.memory import AddressSpace
from repro.hw.profiles import SYSTEM_L
from repro.sim import Simulator
from repro.verbs.cq import CompletionQueue
from repro.verbs.mr import MemoryRegionV, MrTable
from repro.verbs.pd import ProtectionDomain
from repro.verbs.qp import QPState, QueuePair, Transport
from repro.verbs.wr import (
    CQE,
    AccessFlags,
    Opcode,
    RecvWR,
    SendWR,
    WCStatus,
    WireMessage,
)


def make_qp(transport=Transport.RC):
    sim = Simulator()
    pd = ProtectionDomain(context=None)
    cq = CompletionQueue(sim, depth=64)
    qp = QueuePair(pd, transport, cq, cq, qpn=100, sq_depth=4, rq_depth=4,
                   max_inline=220)
    return sim, qp


# -- state machine -------------------------------------------------------------


def test_qp_lifecycle_reset_to_rts():
    _, qp = make_qp()
    assert qp.state is QPState.RESET
    qp.modify(QPState.INIT)
    qp.modify(QPState.RTR, remote=(1, 200))
    qp.modify(QPState.RTS)
    assert qp.remote == (1, 200)


def test_qp_illegal_transitions():
    _, qp = make_qp()
    with pytest.raises(QPStateError):
        qp.modify(QPState.RTS)  # RESET -> RTS is illegal
    qp.modify(QPState.INIT)
    with pytest.raises(QPStateError):
        qp.modify(QPState.INIT)


def test_rc_rtr_requires_remote():
    _, qp = make_qp()
    qp.modify(QPState.INIT)
    with pytest.raises(QPStateError):
        qp.modify(QPState.RTR)


def test_qp_reset_flushes_state():
    _, qp = make_qp()
    qp.modify(QPState.INIT)
    qp.modify(QPState.RTR, remote=(1, 200))
    qp.modify(QPState.RTS)
    qp.rq.append(RecvWR(wr_id=1))
    qp.sq_psn = 17
    qp.modify(QPState.RESET)
    assert not qp.rq and qp.sq_psn == 0 and qp.state is QPState.RESET


def test_post_send_requires_rts():
    _, qp = make_qp()
    qp.modify(QPState.INIT)
    with pytest.raises(QPStateError):
        qp.check_post_send(SendWR(wr_id=1, opcode=Opcode.SEND))


def test_sq_depth_enforced():
    _, qp = make_qp()
    qp.modify(QPState.INIT)
    qp.modify(QPState.RTR, remote=(1, 200))
    qp.modify(QPState.RTS)
    qp.sq_outstanding = 4
    with pytest.raises(VerbsError, match="full"):
        qp.check_post_send(SendWR(wr_id=1, opcode=Opcode.SEND))


def test_rq_depth_enforced():
    _, qp = make_qp()
    qp.modify(QPState.INIT)
    for i in range(4):
        qp.rq.append(RecvWR(wr_id=i))
    with pytest.raises(VerbsError, match="full"):
        qp.check_post_recv(RecvWR(wr_id=9))


def test_inline_limit_enforced():
    _, qp = make_qp()
    qp.modify(QPState.INIT)
    qp.modify(QPState.RTR, remote=(1, 200))
    qp.modify(QPState.RTS)
    wr = SendWR(wr_id=1, opcode=Opcode.SEND, length=500, inline=True)
    with pytest.raises(VerbsError, match="inline"):
        qp.check_post_send(wr)


def test_ud_rejects_one_sided_and_requires_ah():
    _, qp = make_qp(Transport.UD)
    qp.modify(QPState.INIT)
    qp.modify(QPState.RTR)
    qp.modify(QPState.RTS)
    with pytest.raises(VerbsError, match="only SEND"):
        qp.check_post_send(SendWR(wr_id=1, opcode=Opcode.RDMA_WRITE))
    with pytest.raises(VerbsError, match="address handle"):
        qp.check_post_send(SendWR(wr_id=1, opcode=Opcode.SEND))


def test_psn_assignment_monotonic():
    _, qp = make_qp()
    assert [qp.assign_psn() for _ in range(5)] == [0, 1, 2, 3, 4]


# -- WR validation ------------------------------------------------------------------


def test_wr_imm_required():
    with pytest.raises(VerbsError, match="immediate"):
        SendWR(wr_id=1, opcode=Opcode.RDMA_WRITE_WITH_IMM).validate()


def test_wr_read_cannot_be_inline():
    with pytest.raises(VerbsError, match="inline"):
        SendWR(wr_id=1, opcode=Opcode.RDMA_READ, inline=True).validate()


def test_wr_data_length_mismatch():
    with pytest.raises(VerbsError, match="length"):
        SendWR(wr_id=1, opcode=Opcode.SEND, length=4, data=b"12345").validate()


def test_opcode_properties():
    assert Opcode.SEND.consumes_recv_wqe
    assert Opcode.RDMA_WRITE_WITH_IMM.consumes_recv_wqe
    assert not Opcode.RDMA_WRITE.consumes_recv_wqe
    assert not Opcode.RDMA_READ.reads_local_memory
    assert Opcode.RDMA_WRITE.reads_local_memory


def test_opcode_wire_kind():
    assert {op: op.wire_kind for op in Opcode} == {
        Opcode.SEND: "send",
        Opcode.SEND_WITH_IMM: "send",
        Opcode.RDMA_WRITE: "write",
        Opcode.RDMA_WRITE_WITH_IMM: "write",
        Opcode.RDMA_READ: "read_req",
        Opcode.ATOMIC_FETCH_ADD: "atomic",
        Opcode.ATOMIC_CMP_SWAP: "atomic",
    }


def test_record_field_order_is_pinned():
    """The NIC builds CQEs and wire messages positionally (keywords cost
    twice as much per record), so reordering these fields would silently
    scramble every completion and message it builds."""
    assert [f.name for f in dataclasses.fields(CQE)] == [
        "wr_id", "status", "opcode", "byte_len", "qp_num", "src_qp", "imm",
        "timestamp", "data", "meta", "span",
    ]
    assert [f.name for f in dataclasses.fields(WireMessage)] == [
        "kind", "src_host", "dst_host", "src_qpn", "dst_qpn", "transport",
        "psn", "length", "imm", "remote_addr", "rkey", "data", "token",
        "meta", "atomic", "header_bytes", "retries", "span", "ecn",
    ]


# -- MR table ----------------------------------------------------------------------


def make_mr(length=4096, access=AccessFlags.all_remote()):
    table = MrTable()
    space = AddressSpace()
    buf = space.alloc(length)
    lkey, rkey = table.next_keys()
    mr = MemoryRegionV(pd=None, buffer=buf, addr=buf.addr, length=length,
                       lkey=lkey, rkey=rkey, access=access)
    table.install(mr)
    return table, mr


def test_mr_local_check_passes_and_bounds():
    table, mr = make_mr()
    assert table.check_local(mr.lkey, mr.addr, 100, write=True, pd=mr.pd) is mr
    with pytest.raises(MemoryAccessError):
        table.check_local(mr.lkey, mr.addr + 4000, 200, write=False, pd=mr.pd)
    with pytest.raises(MemoryAccessError):
        table.check_local(0xBAD, mr.addr, 10, write=False, pd=mr.pd)


def test_mr_local_write_needs_permission():
    table, mr = make_mr(access=AccessFlags.REMOTE_READ)
    with pytest.raises(MemoryAccessError, match="LOCAL_WRITE"):
        table.check_local(mr.lkey, mr.addr, 10, write=True, pd=mr.pd)


def test_mr_remote_check_returns_none_not_raises():
    table, mr = make_mr(access=AccessFlags.LOCAL_WRITE)  # no remote perms
    assert table.check_remote(mr.rkey, mr.addr, 10, write=True, pd=mr.pd) is None
    assert table.check_remote(0xBAD, mr.addr, 10, write=False, pd=mr.pd) is None
    assert table.check_remote(mr.rkey, mr.addr - 50, 10, write=False, pd=mr.pd) is None


def test_mr_deregister_invalidates():
    table, mr = make_mr()
    table.remove(mr)
    with pytest.raises(MemoryAccessError):
        table.check_local(mr.lkey, mr.addr, 10, write=False, pd=mr.pd)
    assert table.check_remote(mr.rkey, mr.addr, 10, write=True, pd=mr.pd) is None


# -- CQ ------------------------------------------------------------------------------


def _cqe(i=1):
    return CQE(wr_id=i, status=WCStatus.SUCCESS, opcode=Opcode.SEND,
               byte_len=0, qp_num=1)


def test_cq_poll_fifo_and_batch():
    sim = Simulator()
    cq = CompletionQueue(sim, depth=16)
    for i in range(5):
        cq.push(_cqe(i))
    assert [c.wr_id for c in cq.poll(3)] == [0, 1, 2]
    assert [c.wr_id for c in cq.poll(16)] == [3, 4]
    assert cq.poll() == []


def test_cq_overflow_raises():
    sim = Simulator()
    cq = CompletionQueue(sim, depth=2)
    cq.push(_cqe())
    cq.push(_cqe())
    with pytest.raises(CQError, match="overflow"):
        cq.push(_cqe())
    assert cq.overflowed


def test_cq_wait_nonempty_fires_on_push():
    sim = Simulator()
    cq = CompletionQueue(sim, depth=8)

    def waiter():
        ev = cq.wait_nonempty()
        yield ev
        return sim.now

    def pusher():
        yield sim.timeout(77.0)
        cq.push(_cqe())

    p = sim.process(waiter())
    sim.process(pusher())
    assert sim.run(p) == 77.0


def test_cq_armed_event_fires_once():
    sim = Simulator()
    cq = CompletionQueue(sim, depth=8)
    fired = []
    cq.on_event = lambda c: fired.append(sim.now)
    cq.req_notify()
    cq.push(_cqe())
    cq.push(_cqe())  # not armed anymore
    assert len(fired) == 1
    assert cq.events_raised == 1


def test_control_plane_costs_simulated_time():
    """Device/PD/MR/QP creation all pay ioctl costs."""
    sim = Simulator()
    _fabric, host_a, _host_b = build_pair(sim, SYSTEM_L)

    def setup():
        core = host_a.cpus.pin()
        ctx = yield from host_a.device.open(core)
        pd = yield from ctx.alloc_pd()
        space = host_a.new_address_space()
        buf = space.alloc(1 << 20)
        mr = yield from ctx.reg_mr(pd, buf)
        cq = yield from ctx.create_cq()
        qp = yield from ctx.create_qp(pd, Transport.RC, cq, cq)
        return sim.now, mr, qp

    elapsed, mr, qp = sim.run(sim.process(setup()))
    assert elapsed > 0  # control plane is not free
    # MR registration pinned 256 pages — clearly visible in the cost.
    assert elapsed > 256 * SYSTEM_L.memory.page_pin_ns
    assert qp.state is QPState.INIT
    assert mr.lkey != mr.rkey
