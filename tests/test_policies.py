"""CoRD policy framework and the four shipped policies."""

import pytest

from repro.cluster import build_pair
from repro.core.endpoint import make_rc_pair
from repro.core.policies import (
    AclRule,
    FlowStats,
    IsolationQuota,
    SecurityAcl,
    TokenBucketQos,
)
from repro.core.policy import OpContext, Policy, PolicyChain
from repro.errors import ConfigError, PolicyViolation
from repro.hw.profiles import SYSTEM_L
from repro.sim import Simulator
from repro.units import ms, us
from repro.verbs.wr import Opcode, RecvWR, SendWR


def ctx_for(op="post_send", length=1024, tenant="t0", opcode=Opcode.SEND, now=0.0):
    wr = SendWR(wr_id=1, opcode=opcode, length=length) if op == "post_send" else None
    return OpContext(now=now, host=None, op=op, send_wr=wr, tenant=tenant)


# -- framework ------------------------------------------------------------------


def test_chain_sums_costs_and_counts():
    class Fixed(Policy):
        def _evaluate(self, ctx):
            return 10.0

    chain = PolicyChain([Fixed(), Fixed()])
    assert chain.evaluate(ctx_for()) == 20.0
    assert all(p.evaluations == 1 for p in chain)


def test_chain_denial_short_circuits():
    class Deny(Policy):
        name = "deny-all"

        def _evaluate(self, ctx):
            raise self.deny("nope")

    class Later(Policy):
        def _evaluate(self, ctx):
            return 1.0

    later = Later()
    chain = PolicyChain([Deny(), later])
    with pytest.raises(PolicyViolation, match="deny-all"):
        chain.evaluate(ctx_for())
    assert later.evaluations == 0


# -- QoS ----------------------------------------------------------------------------


def test_qos_admits_within_rate():
    qos = TokenBucketQos(rate_bytes_per_s=1e9, burst_bytes=10_000)
    assert qos.evaluate(ctx_for(length=5_000)) > 0
    assert qos.bytes_admitted == 5_000


def test_qos_denies_burst_overflow_then_refills():
    qos = TokenBucketQos(rate_bytes_per_s=1e9, burst_bytes=10_000)
    qos.evaluate(ctx_for(length=10_000, now=0.0))
    with pytest.raises(PolicyViolation):
        qos.evaluate(ctx_for(length=1_000, now=0.0))
    # 1 GB/s == 1 B/ns: after 2000 ns, 2000 bytes are back.
    assert qos.evaluate(ctx_for(length=1_500, now=2_000.0)) > 0
    assert qos.denials == 1


def test_qos_buckets_are_per_tenant():
    qos = TokenBucketQos(rate_bytes_per_s=1e9, burst_bytes=1_000)
    qos.evaluate(ctx_for(length=1_000, tenant="a"))
    with pytest.raises(PolicyViolation):
        qos.evaluate(ctx_for(length=1_000, tenant="a"))
    qos.evaluate(ctx_for(length=1_000, tenant="b"))  # unaffected


def test_qos_ignores_non_send_ops():
    qos = TokenBucketQos(rate_bytes_per_s=1.0, burst_bytes=1)
    assert qos.evaluate(ctx_for(op="poll_cq")) > 0  # costs, never denies


def test_qos_config_validation():
    with pytest.raises(ConfigError):
        TokenBucketQos(rate_bytes_per_s=0, burst_bytes=10)
    with pytest.raises(ConfigError):
        TokenBucketQos(rate_bytes_per_s=10, burst_bytes=0)


# -- ACL --------------------------------------------------------------------------


def test_acl_first_match_wins():
    acl = SecurityAcl([
        AclRule(action="allow", tenant="trusted"),
        AclRule(action="deny", opcode=Opcode.RDMA_READ),
    ])
    acl.evaluate(ctx_for(opcode=Opcode.RDMA_READ, tenant="trusted"))  # allowed
    with pytest.raises(PolicyViolation):
        acl.evaluate(ctx_for(opcode=Opcode.RDMA_READ, tenant="other"))


def test_acl_size_rule():
    acl = SecurityAcl([AclRule(action="deny", max_bytes=4096)])
    acl.evaluate(ctx_for(length=4096))
    with pytest.raises(PolicyViolation):
        acl.evaluate(ctx_for(length=4097))


def test_acl_default_deny():
    acl = SecurityAcl([], default_allow=False)
    with pytest.raises(PolicyViolation):
        acl.evaluate(ctx_for())


def test_acl_cost_scales_with_rules_walked():
    rules = [AclRule(action="allow", tenant=f"t{i}") for i in range(5)]
    acl = SecurityAcl(rules + [AclRule(action="allow")])
    cost = acl.evaluate(ctx_for(tenant="nomatch"))
    assert cost == pytest.approx(6 * 12.0)


# -- isolation --------------------------------------------------------------------


def test_quota_ops_budget_resets_per_epoch():
    quota = IsolationQuota(epoch_ns=us(10), max_ops=2)
    quota.evaluate(ctx_for(now=0.0))
    quota.evaluate(ctx_for(now=1.0))
    with pytest.raises(PolicyViolation):
        quota.evaluate(ctx_for(now=2.0))
    quota.evaluate(ctx_for(now=us(10) + 1))  # new epoch


def test_quota_bytes_budget():
    quota = IsolationQuota(epoch_ns=ms(1), max_bytes=10_000)
    quota.evaluate(ctx_for(length=9_000))
    with pytest.raises(PolicyViolation):
        quota.evaluate(ctx_for(length=2_000))
    assert quota.usage("t0") == (1, 9_000)


def test_quota_polls_uncounted_by_default():
    quota = IsolationQuota(epoch_ns=ms(1), max_ops=1)
    quota.evaluate(ctx_for())
    quota.evaluate(ctx_for(op="poll_cq"))  # free
    with pytest.raises(PolicyViolation):
        quota.evaluate(ctx_for())


def test_quota_requires_some_budget():
    with pytest.raises(ConfigError):
        IsolationQuota(epoch_ns=ms(1))


# -- observability -----------------------------------------------------------------


def test_flow_stats_accumulate():
    stats = FlowStats()
    for size in (64, 64, 4096):
        stats.evaluate(ctx_for(length=size))
    report = stats.report()
    assert len(report) == 1
    flow = report[0]
    assert flow["ops"]["post_send"] == 3
    assert flow["bytes_sent"] == 64 + 64 + 4096
    assert flow["size_hist"] == {6: 2, 12: 1}


def test_flow_stats_never_denies():
    stats = FlowStats()
    for _ in range(100):
        stats.evaluate(ctx_for(length=1 << 30))
    assert stats.denials == 0


# -- end-to-end: policies inside the CoRD dataplane -----------------------------------


def test_denied_op_still_pays_the_syscall():
    sim = Simulator(seed=6)
    _fabric, host_a, host_b = build_pair(sim, SYSTEM_L)
    qos = PolicyChain([TokenBucketQos(rate_bytes_per_s=1.0, burst_bytes=1)])

    def main():
        a, b = yield from make_rc_pair(host_a, host_b, "cord", "bypass",
                                       policies_a=qos)
        t0 = sim.now
        with pytest.raises(PolicyViolation):
            yield from a.post_send(SendWR(wr_id=1, opcode=Opcode.SEND,
                                          addr=a.buf.addr, length=4096,
                                          lkey=a.mr.lkey))
        elapsed = sim.now - t0
        return elapsed, a.dataplane.denied_ops

    elapsed, denied = sim.run(sim.process(main()))
    assert denied == 1
    assert elapsed >= SYSTEM_L.syscall_cost()  # the kernel round trip happened


class _DenyWr(Policy):
    name = "deny-wr"

    def __init__(self, wr_id):
        super().__init__()
        self.wr_id = wr_id

    def _evaluate(self, ctx):
        if ctx.send_wr is not None and ctx.send_wr.wr_id == self.wr_id:
            raise self.deny(f"wr {self.wr_id}")
        return 0.0


def test_send_chain_denied_mid_chain_pays_one_syscall_posts_nothing():
    sim = Simulator(seed=6)
    _fabric, host_a, host_b = build_pair(sim, SYSTEM_L)
    deny = _DenyWr(wr_id=2)

    def main():
        a, _b = yield from make_rc_pair(host_a, host_b, "cord", "bypass",
                                        policies_a=PolicyChain([deny]))
        wrs = [SendWR(wr_id=i, opcode=Opcode.SEND, addr=a.buf.addr,
                      length=64, lkey=a.mr.lkey) for i in range(4)]
        t0, calls, sends = sim.now, a.core.syscalls, a.qp.sends_posted
        with pytest.raises(PolicyViolation, match="deny-wr"):
            yield from a.dataplane.post_send_many(a.qp, wrs)
        return (sim.now - t0, a.core.syscalls - calls,
                a.qp.sends_posted - sends, a.dataplane)

    elapsed, syscalls, sends, dp = sim.run(sim.process(main()))
    assert elapsed > 0.0
    assert syscalls == 1
    assert dp.denied_ops == 1
    assert sends == 0 and dp.ops_posted == 0  # no WR reached the NIC
    assert deny.evaluations == 3  # the chain stopped at the denied WR


class _DenyRecvs(Policy):
    name = "deny-recvs"

    def _evaluate(self, ctx):
        if ctx.op == "post_recv":
            raise self.deny("no receives")
        return 0.0


def test_denied_recv_post_pays_one_syscall_posts_nothing():
    """A CoRD recv post denied by policy still crosses the kernel once."""
    sim = Simulator(seed=5)
    _fabric, host_a, host_b = build_pair(sim, SYSTEM_L)

    def main():
        a, _b = yield from make_rc_pair(host_a, host_b, "cord", "bypass",
                                        policies_a=PolicyChain([_DenyRecvs()]))
        wrs = [RecvWR(wr_id=i, addr=a.buf.addr, length=64, lkey=a.mr.lkey)
               for i in range(2)]
        t0, calls, recvs = sim.now, a.core.syscalls, a.qp.recvs_posted
        with pytest.raises(PolicyViolation, match="deny-recvs"):
            yield from a.dataplane.post_recv_many(a.qp, wrs)
        return (sim.now - t0, a.core.syscalls - calls,
                a.qp.recvs_posted - recvs, a.dataplane)

    elapsed, syscalls, recvs, dp = sim.run(sim.process(main()))
    assert elapsed > 0.0
    assert syscalls == 1
    assert dp.denied_ops == 1
    assert recvs == 0 and dp.ops_posted == 0  # no WR reached the NIC


def test_policies_rejected_on_bypass():
    from repro.core.endpoint import make_dataplane

    sim = Simulator(seed=6)
    _fabric, host_a, _b = build_pair(sim, SYSTEM_L)
    with pytest.raises(ConfigError):
        make_dataplane("bypass", host_a, host_a.cpus.pin(),
                       PolicyChain([FlowStats()]))


def test_flow_stats_see_all_dataplane_ops_end_to_end():
    sim = Simulator(seed=6)
    _fabric, host_a, host_b = build_pair(sim, SYSTEM_L)
    stats = FlowStats()

    def main():
        a, b = yield from make_rc_pair(host_a, host_b, "cord", "bypass",
                                       policies_a=PolicyChain([stats]))
        yield from b.post_recv(RecvWR(wr_id=1, addr=b.buf.addr,
                                      length=b.buf.length, lkey=b.mr.lkey))
        yield from a.post_send(SendWR(wr_id=1, opcode=Opcode.SEND,
                                      addr=a.buf.addr, length=512, lkey=a.mr.lkey))
        yield from a.wait_send()
        yield from b.wait_recv()

    sim.run(sim.process(main()))
    ops = {}
    for flow in stats.flows.values():
        for op, n in flow.ops.items():
            ops[op] = ops.get(op, 0) + n
    assert ops.get("post_send") == 1
    assert ops.get("poll_cq", 0) >= 1  # the interposed polls were seen too
