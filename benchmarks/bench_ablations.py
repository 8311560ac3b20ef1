"""Ablations beyond the paper's figures (design-choice studies).

1. **Inline support in CoRD** — the fig. 5a bimodality's cause, isolated:
   the same system with/without ``cord_inline_supported``.
2. **KPTI** — the paper disables it everywhere; quantify what re-enabling
   kernel page-table isolation costs bypass (nothing) vs CoRD (per-op).
3. **Policy cost sweep** — CoRD latency as the policy chain grows
   (0..4 shipped policies), validating the "lightweight, non-blocking
   policies" premise.
4. **Polling vs events under CoRD** — both dataplanes pay the no-polling
   constant similarly (the techniques compose).
"""

import pytest

from repro.analysis import SweepTable, check_between, format_table
from repro.bench_support import emit, parallel_sweep, report_checks, scaled
from repro.core.policies import FlowStats, IsolationQuota, SecurityAcl, TokenBucketQos
from repro.core.policy import PolicyChain
from repro.hw.profiles import SYSTEM_A, SYSTEM_L
from repro.perftest.lat import send_lat
from repro.perftest.runner import PerftestConfig, run_lat
from repro.perftest.techniques import Techniques
from repro.cluster import build_pair
from repro.core.endpoint import connect, make_endpoint, make_rc_pair
from repro.sim import Simulator
from repro.units import ms
from repro.verbs.wr import Opcode, RecvWR, SendWR


def _lat_with(system, policies_a=None, policies_b=None, size=4096, iters=None,
              kinds=("cord", "cord"), seed=7):
    iters = iters if iters is not None else scaled(150)
    sim = Simulator(seed=seed)
    _f, host_a, host_b = build_pair(sim, system)
    out = {}

    def main():
        a, b = yield from make_rc_pair(host_a, host_b, kinds[0], kinds[1],
                                       policies_a=policies_a, policies_b=policies_b)
        result = yield from send_lat(sim, a, b, size, iters=iters, warmup=20)
        out["r"] = result

    sim.run(sim.process(main()))
    return out["r"]


def _lat_with_point(point):
    """Sweep-point adapter: kwargs dict for :func:`_lat_with` -> avg_us."""
    return _lat_with(**point).avg_us


def _run_lat_point(point):
    cfg, size = point
    return run_lat(cfg, size).avg_us


# -- 1. inline support --------------------------------------------------------------


def _inline_sweep():
    with_inline = SYSTEM_A.with_overrides(cord_inline_supported=True)
    without = SYSTEM_A.with_overrides(cord_inline_supported=False)
    sizes = (64, 256, 1024)
    points = ([{"system": with_inline, "size": s} for s in sizes]
              + [{"system": without, "size": s} for s in sizes])
    values = iter(parallel_sweep(_lat_with_point, points))
    table = SweepTable("Ablation: CoRD inline support on system A (us)", "size")
    s_with = table.new_series("inline")
    s_without = table.new_series("no inline")
    for s in sizes:
        s_with.add(s, next(values))
    for s in sizes:
        s_without.add(s, next(values))
    return table


def _report_inline(table):
    header, rows = table.rows()
    text = format_table(header, rows, table.title)
    gap = table.get("no inline").y_at(64) - table.get("inline").y_at(64)
    checks = [check_between("no-inline adds a small-message tax (us)", gap, 0.3, 2.5)]
    emit("ablation_inline", text + "\n" + report_checks("ablation_inline", checks))


@pytest.mark.benchmark(group="ablations")
def test_ablation_cord_inline(benchmark):
    """Inline removal reproduces the small-message overhead mode."""
    _report_inline(benchmark.pedantic(_inline_sweep, rounds=1, iterations=1))


# -- 2. KPTI ------------------------------------------------------------------------


def _kpti_sweep():
    base = SYSTEM_L
    kpti = SYSTEM_L.with_overrides(kpti=True)
    labeled = [
        ("bypass kpti=off", {"system": base, "kinds": ("bypass", "bypass")}),
        ("bypass kpti=on", {"system": kpti, "kinds": ("bypass", "bypass")}),
        ("cord kpti=off", {"system": base}),
        ("cord kpti=on", {"system": kpti}),
    ]
    values = parallel_sweep(_lat_with_point, [p for _, p in labeled])
    table = SweepTable("Ablation: KPTI on system L, 4 KiB send (us)", "dataplane")
    s = table.new_series("latency")
    for (label, _), value in zip(labeled, values):
        s.add(label, value)
    return table


def _report_kpti(table):
    header, rows = table.rows()
    text = format_table(header, rows, table.title)
    s = table.get("latency")
    bypass_delta = s.y_at("bypass kpti=on") - s.y_at("bypass kpti=off")
    cord_delta = s.y_at("cord kpti=on") - s.y_at("cord kpti=off")
    checks = [
        check_between("bypass unaffected by KPTI (us)", bypass_delta, -0.02, 0.02),
        check_between("CoRD pays per-op KPTI tax (us)", cord_delta, 0.3, 3.0),
    ]
    emit("ablation_kpti", text + "\n" + report_checks("ablation_kpti", checks))


@pytest.mark.benchmark(group="ablations")
def test_ablation_kpti(benchmark):
    """KPTI taxes every CoRD op but leaves bypass untouched."""
    _report_kpti(benchmark.pedantic(_kpti_sweep, rounds=1, iterations=1))


# -- 3. policy-chain cost -----------------------------------------------------------


def _policy_chains():
    yield "none", None
    yield "+stats", PolicyChain([FlowStats()])
    yield "+acl", PolicyChain([FlowStats(), SecurityAcl([])])
    yield "+quota", PolicyChain([
        FlowStats(), SecurityAcl([]),
        IsolationQuota(epoch_ns=ms(100), max_ops=10**9),
    ])
    yield "+qos", PolicyChain([
        FlowStats(), SecurityAcl([]),
        IsolationQuota(epoch_ns=ms(100), max_ops=10**9),
        TokenBucketQos(rate_bytes_per_s=1e12, burst_bytes=1 << 30),
    ])


def _policy_args(policy):
    """Constructor args to clone a shipped policy with fresh state."""
    if isinstance(policy, TokenBucketQos):
        return (policy.rate_per_ns * 1e9, int(policy.burst_bytes))
    if isinstance(policy, SecurityAcl):
        return (list(policy.rules),)
    if isinstance(policy, IsolationQuota):
        return (policy.epoch_ns, policy.max_ops, policy.max_bytes)
    return ()


def _policy_sweep():
    labels = []
    points = []
    for label, chain_a in _policy_chains():
        # Fresh chains per side (policies hold state).
        chain_b = None
        if chain_a is not None:
            chain_b = PolicyChain([type(p)(*_policy_args(p)) for p in chain_a])
        labels.append(label)
        points.append({"system": SYSTEM_L, "policies_a": chain_a,
                       "policies_b": chain_b})
    values = parallel_sweep(_lat_with_point, points)
    table = SweepTable("Ablation: CoRD policy-chain cost, 4 KiB send (us)", "chain")
    s = table.new_series("latency")
    for label, value in zip(labels, values):
        s.add(label, value)
    return table


def _report_policy(table):
    header, rows = table.rows()
    text = format_table(header, rows, table.title)
    s = table.get("latency")
    full_tax = s.y_at("+qos") - s.y_at("none")
    checks = [
        check_between("full 4-policy chain tax (us, per ping-pong half)",
                      full_tax, 0.0, 1.0),
    ]
    emit("ablation_policy_cost", text + "\n" + report_checks("ablation_policy", checks))


@pytest.mark.benchmark(group="ablations")
def test_ablation_policy_cost(benchmark):
    """Each added policy costs tens of ns/op — 'lightweight' holds."""
    _report_policy(benchmark.pedantic(_policy_sweep, rounds=1, iterations=1))


# -- 4. polling vs events -----------------------------------------------------------


def _event_mode_sweep():
    labeled = []
    for kind in ("bypass", "cord"):
        for tech in (Techniques(), Techniques(polling=False)):
            cfg = PerftestConfig(system="L", client=kind, server=kind,
                                 iters=scaled(150), warmup=20, techniques=tech)
            labeled.append((f"{kind}/{tech.label}", (cfg, 4096)))
    values = parallel_sweep(_run_lat_point, [p for _, p in labeled])
    table = SweepTable("Ablation: polling vs events, 4 KiB send (us)", "mode")
    s = table.new_series("latency")
    for (label, _), value in zip(labeled, values):
        s.add(label, value)
    return table


def _report_event_mode(table):
    header, rows = table.rows()
    text = format_table(header, rows, table.title)
    s = table.get("latency")
    bp_tax = s.y_at("bypass/no polling") - s.y_at("bypass/baseline")
    cd_tax = s.y_at("cord/no polling") - s.y_at("cord/baseline")
    checks = [
        check_between("event-mode tax similar across dataplanes",
                      cd_tax / bp_tax, 0.6, 1.6),
    ]
    emit("ablation_event_mode", text + "\n" + report_checks("ablation_event", checks))


@pytest.mark.benchmark(group="ablations")
def test_ablation_cord_event_mode(benchmark):
    """CoRD composes with the no-polling technique: constants add up."""
    _report_event_mode(benchmark.pedantic(_event_mode_sweep, rounds=1, iterations=1))


# -- 5. postlist batching -----------------------------------------------------------

_POSTLIST_SIZE = 64


def _postlist_throughput(point):
    kind, chain = point
    total = scaled(2048, minimum=512)
    sim = Simulator(seed=11)
    _f, host_a, host_b = build_pair(sim, SYSTEM_L)
    out = {}

    def main():
        a, b = yield from make_rc_pair(host_a, host_b, kind, "bypass")

        def rx():
            posted = 0
            got = 0
            while posted < min(total, 480):
                wrs = [RecvWR(wr_id=posted + i, addr=b.buf.addr,
                              length=b.buf.length, lkey=b.mr.lkey)
                       for i in range(32)]
                yield from b.dataplane.post_recv_many(b.qp, wrs)
                posted += 32
            while got < total:
                cqes = yield from b.wait_recv(16)
                reposts = []
                for c in cqes:
                    got += 1
                    if posted < total:
                        reposts.append(RecvWR(wr_id=posted, addr=b.buf.addr,
                                              length=b.buf.length,
                                              lkey=b.mr.lkey))
                        posted += 1
                yield from b.dataplane.post_recv_many(b.qp, reposts)
            out["end"] = sim.now

        sim.process(rx(), name="rx")
        sent = 0
        inflight = 0
        t0 = sim.now
        out["start"] = t0
        while sent < total:
            while inflight < 96 and sent < total:
                n = min(chain, total - sent, 96 - inflight)
                wrs = [SendWR(wr_id=sent + i, opcode=Opcode.SEND,
                              addr=a.buf.addr, length=_POSTLIST_SIZE, lkey=a.mr.lkey,
                              signaled=(i == n - 1))
                       for i in range(n)]
                yield from a.dataplane.post_send_many(a.qp, wrs)
                sent += n
                inflight += n
            cqes = yield from a.wait_send(16)
            inflight -= len(cqes) * max(chain, 1)

    sim.run(sim.process(main()))
    sim.run()
    return total / (out["end"] - out["start"]) * 1e6  # kmsg/s


def _postlist_sweep():
    chains = (1, 4, 16, 64)
    points = ([("cord", c) for c in chains] + [("bypass", c) for c in chains])
    values = iter(parallel_sweep(_postlist_throughput, points))
    table = SweepTable(
        "Ablation: CoRD postlist batching, 64 B sends (kmsg/s)", "chain"
    )
    s_cd = table.new_series("cord")
    s_bp = table.new_series("bypass")
    for chain in chains:
        s_cd.add(chain, next(values))
    for chain in chains:
        s_bp.add(chain, next(values))
    return table


def _report_postlist(table):
    header, rows = table.rows(fmt="{:.0f}")
    text = format_table(header, rows, table.title)
    cd, bp = table.get("cord"), table.get("bypass")
    checks = [
        check_between("unbatched CoRD well behind bypass",
                      cd.y_at(1) / bp.y_at(1), 0.2, 0.8),
        check_between("64-chain closes most of the gap",
                      cd.y_at(64) / bp.y_at(64), 0.8, 1.05),
        check_between("batching monotonically helps CoRD",
                      float(cd.y_at(64) > cd.y_at(16) > cd.y_at(1)), 1.0, 1.0),
    ]
    emit("ablation_postlist", text + "\n" + report_checks("ablation_postlist", checks))


@pytest.mark.benchmark(group="ablations")
def test_ablation_postlist_batching(benchmark):
    """The paper's §6 thesis — "the problem is the API, not the
    transition" — made quantitative: chaining N sends into one
    ibv_post_send call amortizes CoRD's syscall, closing the
    small-message throughput gap as the chain grows."""
    _report_postlist(benchmark.pedantic(_postlist_sweep, rounds=1, iterations=1))


# -- 6. multicore scaling -----------------------------------------------------------

_MULTICORE_SIZE = 64


def _multicore_rate(point):
    kind, flows = point
    per_flow = scaled(600, minimum=200)
    sim = Simulator(seed=12)
    _f, host_a, host_b = build_pair(sim, SYSTEM_L)
    done = []

    def flow(idx):
        ep = yield from make_endpoint(host_a, kind, core=host_a.cpus.pin(idx))
        peer = yield from make_endpoint(host_b, "bypass",
                                        core=host_b.cpus.pin(idx))
        yield from connect(ep, peer)
        t0 = sim.now
        sent = 0
        inflight = 0
        while sent < per_flow:
            while inflight < 48 and sent < per_flow:
                # One-sided writes avoid receiver-side recv management.
                yield from ep.post_send(SendWR(
                    wr_id=sent, opcode=Opcode.RDMA_WRITE, addr=ep.buf.addr,
                    length=_MULTICORE_SIZE, lkey=ep.mr.lkey,
                    signaled=(sent % 16 == 15 or sent == per_flow - 1),
                    remote_addr=peer.buf.addr, rkey=peer.mr.rkey))
                sent += 1
                inflight += 1
            cqes = yield from ep.wait_send(16)
            inflight -= len(cqes) * 16
        done.append((t0, sim.now))

    for idx in range(flows):
        sim.process(flow(idx))
    sim.run()
    start = min(t0 for t0, _ in done)
    end = max(t1 for _, t1 in done)
    return flows * per_flow / (end - start) * 1e6  # kmsg/s


def _multicore_sweep():
    flow_counts = (1, 2, 3)
    points = [(kind, flows) for kind in ("bypass", "cord")
              for flows in flow_counts]
    values = iter(parallel_sweep(_multicore_rate, points))
    table = SweepTable("Ablation: multi-core aggregate 64 B msg rate (kmsg/s)",
                       "cores")
    for kind in ("bypass", "cord"):
        s = table.new_series(kind)
        for flows in flow_counts:
            s.add(flows, next(values))
    return table


def _report_multicore(table):
    header, rows = table.rows(fmt="{:.0f}")
    text = format_table(header, rows, table.title)
    cd = table.get("cord")
    bp = table.get("bypass")
    checks = [
        check_between("CoRD scales ~linearly to 3 cores",
                      cd.y_at(3) / cd.y_at(1), 2.2, 3.2),
        # Bypass starts ~2.5x faster per core and begins to hit the NIC's
        # WQE-rate ceiling by 3 cores — sublinear is the correct shape.
        check_between("bypass scales until the NIC binds",
                      bp.y_at(3) / bp.y_at(1), 1.4, 3.2),
    ]
    emit("ablation_multicore", text + "\n" + report_checks("ablation_multicore", checks))


@pytest.mark.benchmark(group="ablations")
def test_ablation_multicore_scaling(benchmark):
    """CoRD's overhead is per-core CPU time, not a shared kernel lock:
    aggregate message rate scales with communicating cores for both
    dataplanes (system L has 4 cores; we use 3 + leave one for noise)."""
    _report_multicore(benchmark.pedantic(_multicore_sweep, rounds=1, iterations=1))


def main():
    _report_inline(_inline_sweep())
    _report_kpti(_kpti_sweep())
    _report_policy(_policy_sweep())
    _report_event_mode(_event_mode_sweep())
    _report_postlist(_postlist_sweep())
    _report_multicore(_multicore_sweep())


if __name__ == "__main__":
    main()
