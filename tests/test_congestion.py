"""End-to-end congestion control: ECN marking, CNPs, DCQCN rate limiting.

The tentpole regression suite for the bounded-buffer congestion-collapse
fix: with ``--congestion dcqcn`` a 16→1 incast into a bounded switch
buffer must recover ≥80% of the unbounded aggregate goodput and cut tail
drops ≥10× versus CC-off.  Also covers the satellite fixes that ride
along: the clamped ACK-timeout backoff, duplicate-retransmit
cancellation, and the loss-site drop accounting split.
"""

import pytest

from repro.cluster import Fabric, build_cluster
from repro.errors import ConfigError, HardwareError
from repro.faults import FaultPlan
from repro.hw.congestion import DcqcnLimiter
from repro.hw.profiles import SYSTEM_L, CcProfile, get_profile
from repro.perftest.incast import (
    IncastConfig,
    build_incast,
    run_incast,
    trace_incast,
    _drive,
)
from repro.sim import Simulator
from repro.telemetry import attribute_spans, build_spans, metrics_snapshot
from repro.verbs.qp import QueuePair, Transport
from repro.verbs.wr import WireMessage

LINE_BW = get_profile("L").nic.link_bw


def _cfg(**kwargs):
    base = dict(senders=16, size=64 * 1024, msgs_per_sender=16, window=16,
                buffer_bytes=1024 * 1024)
    base.update(kwargs)
    return IncastConfig(**base)


# -- the tentpole: DCQCN recovers the bounded-buffer incast -----------------------


def test_dcqcn_recovers_bounded_incast_goodput_and_drops():
    """The acceptance gate: ≥80% of unbounded goodput, ≥10× fewer drops."""
    ref = run_incast(_cfg(buffer_bytes=None))
    off = run_incast(_cfg(congestion="off"))
    cc = run_incast(_cfg(congestion="dcqcn"))
    assert ref.messages_dropped == 0
    assert off.messages_dropped > 0
    assert cc.aggregate_gbit >= 0.8 * ref.aggregate_gbit
    assert off.messages_dropped >= 10 * cc.messages_dropped
    # Every flow completed: collapse no longer defeats the retry budget.
    assert cc.failed_msgs == 0
    # The loop actually ran: marks at the switch, CNPs from the receiver,
    # and at least one sender cut below line rate.
    assert cc.ecn_marked > 0
    assert cc.cnps > 0
    assert 0.0 < cc.min_rate < LINE_BW


def test_cc_off_runs_no_congestion_machinery():
    r = run_incast(_cfg(congestion="off"))
    assert r.ecn_marked == 0
    assert r.cnps == 0
    assert r.min_rate == 0.0


def test_dcqcn_on_lossless_fabric_stays_out_of_the_way():
    """Unbounded buffer: the queue still marks once past kmin, but no
    drops, no timeouts, and every flow finishes."""
    r = run_incast(_cfg(buffer_bytes=None, congestion="dcqcn",
                        msgs_per_sender=6))
    assert r.messages_dropped == 0
    assert r.ack_timeouts == 0
    assert r.failed_msgs == 0
    assert all(g > 0 for g in r.flow_goodputs_gbit)


# -- DCQCN limiter state machine --------------------------------------------------


def _limiter(sim, **overrides) -> DcqcnLimiter:
    base = dict(initial_rate_fraction=1.0)
    base.update(overrides)
    return DcqcnLimiter(sim, CcProfile(**base), LINE_BW)


def test_first_cnp_halves_the_rate():
    """alpha initializes to 1 (DCQCN paper): the first cut is rate/2."""
    sim = Simulator(seed=1)
    lim = _limiter(sim)
    assert lim.rate == LINE_BW
    lim.on_cnp(100.0)
    assert lim.rate == pytest.approx(0.5 * LINE_BW)
    assert lim.rate_cuts == 1 and lim.cnps == 1
    assert lim.target == LINE_BW


def test_cnp_burst_is_one_rate_cut():
    """Cuts are throttled to one per cut_interval; alpha still rises."""
    sim = Simulator(seed=1)
    lim = _limiter(sim)
    lim.on_cnp(100.0)
    rate = lim.rate
    lim.on_cnp(100.0 + lim.cc.cut_interval_ns / 2)
    assert lim.rate == rate and lim.rate_cuts == 1
    # alpha stays pinned at the EWMA fixed point (1.0) with no decay
    # timer having fired between the notifications.
    assert lim.cnps == 2 and lim.alpha == 1.0
    lim.on_cnp(100.0 + lim.cc.cut_interval_ns)
    assert lim.rate < rate and lim.rate_cuts == 2


def test_timeout_cut_floors_the_rate():
    """Loss (ACK-timeout retransmission) is an RTO-style floor cut."""
    sim = Simulator(seed=1)
    lim = _limiter(sim)
    lim.on_timeout(100.0)
    assert lim.rate == lim.min_rate == lim.target
    assert lim.alpha == 1.0
    assert lim.timeout_cuts == 1
    # Throttled together with CNP cuts: the synchronized timers of one
    # loss burst count as a single congestion event.
    lim.on_cnp(110.0)
    assert lim.rate == lim.min_rate and lim.rate_cuts == 1


#: Far past any recovery: an advanced clock lets the lazy timers catch up.
_LONG_AFTER_NS = 1e9
_INF = float("inf")


def test_rate_recovers_to_line_and_goes_quiescent():
    """After a cut the increase timers rebuild to line rate exactly, then
    disarm — a recovered limiter pushes no heap record and keeps none."""
    sim = Simulator(seed=1)
    lim = _limiter(sim)
    lim.on_cnp(0.0)
    assert lim.rate < LINE_BW
    assert not sim._queue  # the timers are lazy: nothing on the heap
    sim.run(until=_LONG_AFTER_NS)
    snap = lim.snapshot()
    rate, target, _alpha, _tokens, _age, alpha_left, inc_left, _rounds = \
        lim.state()
    assert snap["rate"] == LINE_BW and rate == LINE_BW and target == LINE_BW
    assert alpha_left == inc_left == _INF  # both timers disarmed
    assert snap["lowest_rate"] == pytest.approx(0.5 * LINE_BW)


def test_conservative_start_ramps_to_line_rate():
    """The default profile starts below line rate; an uncongested flow
    must still climb to line rate on the increase timers alone."""
    sim = Simulator(seed=1)
    lim = DcqcnLimiter(sim, CcProfile(), LINE_BW)
    assert lim.rate == pytest.approx(
        CcProfile().initial_rate_fraction * LINE_BW)
    sim.run(until=_LONG_AFTER_NS)
    assert lim.snapshot()["rate"] == LINE_BW
    assert lim.state()[6] == _INF  # increase timer disarmed


def test_pace_token_bucket_math():
    sim = Simulator(seed=1)
    lim = _limiter(sim)
    # Recovered limiter short-circuits: line rate, timer off, no delay.
    assert lim.pace(0.0, 10 * lim.cc.burst_bytes) == 0.0
    lim.on_cnp(0.0)
    # Bucket holds burst_bytes; the excess is paid at the cut rate.
    nbytes = lim.cc.burst_bytes + 1000
    delay = lim.pace(0.0, nbytes)
    assert delay == pytest.approx(1000 / lim.rate)
    # The caller waits out the delay; the bucket is then empty, so the
    # next message pays its full serialization time at the cut rate.
    assert lim.pace(delay, 500) == pytest.approx(500 / lim.rate)
    assert lim.paced_ns > 0


def test_state_clamps_ages_for_cycle_detection():
    """Fingerprint ages must saturate at their behavioral horizon, or
    fast-forward could never see a repeating cycle."""
    sim = Simulator(seed=1)
    lim = _limiter(sim)
    lim.on_cnp(0.0)

    def advance():
        yield 10 * lim.cc.cut_interval_ns

    sim.run(sim.process(advance()))
    cut_age = lim.state()[4]
    assert cut_age == lim.cc.cut_interval_ns


# -- lazy timers against the record-driven recurrences ----------------------------


class _RecordDrivenDcqcn:
    """Reference: the DCQCN recurrences with each timer tick a heap record
    of its own (``call_later`` chains), the way the limiter ran before its
    timers became lazy.  Same cut, pacing and tick arithmetic."""

    def __init__(self, sim, cc, line_rate):
        self.sim, self.cc, self.line_rate = sim, cc, line_rate
        self.min_rate = max(cc.min_rate_fraction * line_rate, 1e-6)
        self.rate = max(cc.initial_rate_fraction * line_rate, self.min_rate)
        self.target, self.alpha = self.rate, 1.0
        self.tokens, self._last_ns = float(cc.burst_bytes), 0.0
        self._last_cut_ns = float("-inf")
        self.alpha_armed = self.inc_armed = False
        self.inc_rounds = self.cnps = self.rate_cuts = self.timeout_cuts = 0
        self.lowest_rate, self.paced_ns = line_rate, 0.0
        if self.rate < line_rate:
            self.inc_rounds = cc.fast_recovery_rounds
            self.inc_armed = True
            sim.call_later(cc.rate_increase_ns, self._inc_fired)

    def pace(self, now, nbytes):
        burst = float(self.cc.burst_bytes)
        if self.rate >= self.line_rate and not self.inc_armed:
            self.tokens, self._last_ns = burst, now
            return 0.0
        tokens = min(self.tokens + (now - self._last_ns) * self.rate, burst)
        if tokens >= nbytes:
            self.tokens, self._last_ns = tokens - nbytes, now
            return 0.0
        delay = (nbytes - tokens) / self.rate
        self.tokens, self._last_ns = 0.0, now + delay
        self.paced_ns += delay
        return delay

    def on_cnp(self, now):
        cc = self.cc
        self.cnps += 1
        self.alpha = (1.0 - cc.g) * self.alpha + cc.g
        if not self.alpha_armed:
            self.alpha_armed = True
            self.sim.call_later(cc.alpha_update_ns, self._alpha_fired)
        if now - self._last_cut_ns < cc.cut_interval_ns:
            return
        self.target = self.rate
        self._cut(now, max(self.rate * (1.0 - 0.5 * self.alpha), self.min_rate))

    def on_timeout(self, now):
        if now - self._last_cut_ns < self.cc.cut_interval_ns:
            return
        self.alpha = 1.0
        if not self.alpha_armed:
            self.alpha_armed = True
            self.sim.call_later(self.cc.alpha_update_ns, self._alpha_fired)
        self.timeout_cuts += 1
        self.target = self.min_rate
        self._cut(now, self.min_rate)

    def _cut(self, now, new_rate):
        self.tokens = min(self.tokens + (now - self._last_ns) * self.rate,
                          float(self.cc.burst_bytes))
        self._last_ns = self._last_cut_ns = now
        self.rate = new_rate
        self.rate_cuts += 1
        self.lowest_rate = min(self.lowest_rate, new_rate)
        self.inc_rounds = 0
        if not self.inc_armed:
            self.inc_armed = True
            self.sim.call_later(self.cc.rate_increase_ns, self._inc_fired)

    def _alpha_fired(self, _arg):
        self.alpha *= 1.0 - self.cc.g
        if self.alpha <= 1e-3:
            self.alpha, self.alpha_armed = 0.0, False
            return
        self.sim.call_later(self.cc.alpha_update_ns, self._alpha_fired)

    def _inc_fired(self, _arg):
        cc = self.cc
        self.inc_rounds += 1
        stage = self.inc_rounds - cc.fast_recovery_rounds
        if stage > 0:
            step = (cc.hai_bytes_per_ns if stage > cc.hyper_after_rounds
                    else cc.rai_bytes_per_ns)
            self.target = min(self.target + step, self.line_rate)
        self.rate = 0.5 * (self.rate + self.target)
        if self.rate >= self.line_rate * 0.999:
            self.rate = self.target = self.line_rate
            self.inc_armed = False
        else:
            self.sim.call_later(cc.rate_increase_ns, self._inc_fired)

    def levels(self):
        return (self.rate, self.target, self.alpha, self.tokens, self._last_ns,
                self.inc_rounds, self.cnps, self.rate_cuts,
                self.timeout_cuts, self.lowest_rate, self.paced_ns)


def _lazy_levels(lim):
    snap = lim.snapshot()  # a reader: catches the timers up first
    return (snap["rate"], lim.target, lim.alpha, lim.tokens, lim._last_ns,
            lim._inc_rounds, snap["cnps"], snap["rate_cuts"],
            snap["timeout_cuts"], snap["lowest_rate"], snap["paced_ns"])


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("initial", [1.0, 0.5])
def test_lazy_timers_match_record_driven_recurrences(seed, initial):
    """Reads at random instants, a third of them exactly on a pending
    tick, see the record-driven reference's levels bit for bit."""
    rnd = Simulator(seed=seed).rng.stream("lazy-timer-schedule")
    cc = CcProfile(initial_rate_fraction=initial)
    ref_sim, lazy_sim = Simulator(seed=1), Simulator(seed=1)
    ref = _RecordDrivenDcqcn(ref_sim, cc, LINE_BW)
    lim = DcqcnLimiter(lazy_sim, cc, LINE_BW)
    assert not lazy_sim._queue
    on_tick = 0
    for _ in range(400):
        if ref_sim._queue and rnd.random() < 1 / 3:
            t = ref_sim.peek()  # exactly a tick instant: tie rule
            on_tick += 1
        else:
            t = ref_sim.now + (0.0, 4 * cc.alpha_update_ns * rnd.random(),
                               2 * cc.rate_increase_ns * rnd.random()
                               )[int(3 * rnd.random())]
        ref_sim.run(until=t)
        lazy_sim.run(until=t)
        action = rnd.random()
        if action < 0.2:
            ref.on_cnp(t)
            lim.on_cnp(t)
        elif action < 0.25:
            ref.on_timeout(t)
            lim.on_timeout(t)
        elif action < 0.7:
            nbytes = (64, 4096, 65536 + 48)[int(3 * rnd.random())]
            assert repr(lim.pace(t, nbytes)) == repr(ref.pace(t, nbytes))
        assert repr(_lazy_levels(lim)) == repr(ref.levels())
        assert not lazy_sim._queue
    assert on_tick > 50 and ref.rate_cuts > 0


# -- ECN marking at the switch output queue ---------------------------------------


def _marking_fabric():
    sim = Simulator(seed=3)
    fabric, _hosts = build_cluster(sim, SYSTEM_L, 2, congestion="dcqcn")
    return sim, fabric


def _wire_msg(kind="write"):
    return WireMessage(kind=kind, src_host=1, dst_host=0, src_qpn=1,
                       dst_qpn=2, transport="RC", psn=0, length=4096)


def test_no_marking_below_kmin():
    _sim, fabric = _marking_fabric()
    port = fabric.rx_port(0)
    port.queued_bytes = fabric.cc.kmin_bytes - 1
    for _ in range(50):
        msg = _wire_msg()
        fabric._maybe_mark_ecn(port, msg.wire_bytes, msg)
        assert not msg.ecn
    assert port.messages_marked == 0


def test_always_marks_at_kmax():
    _sim, fabric = _marking_fabric()
    port = fabric.rx_port(0)
    port.queued_bytes = fabric.cc.kmax_bytes
    for _ in range(20):
        msg = _wire_msg()
        fabric._maybe_mark_ecn(port, msg.wire_bytes, msg)
        assert msg.ecn
    assert port.messages_marked == 20


def test_wred_marks_probabilistically_between_thresholds():
    _sim, fabric = _marking_fabric()
    port = fabric.rx_port(0)
    cc = fabric.cc
    port.queued_bytes = (cc.kmin_bytes + cc.kmax_bytes) // 2
    marked = 0
    for _ in range(400):
        msg = _wire_msg()
        fabric._maybe_mark_ecn(port, msg.wire_bytes, msg)
        marked += msg.ecn
    # Expected rate pmax/2; just require "some but not all".
    assert 0 < marked < 400


def test_only_request_kinds_are_marked():
    """ACKs/CNPs/read responses never carry a mark (no responder to CNP)."""
    _sim, fabric = _marking_fabric()
    port = fabric.rx_port(0)
    port.queued_bytes = fabric.cc.kmax_bytes
    for kind in ("ack", "nak_rnr", "cnp", "read_resp"):
        msg = _wire_msg(kind=kind)
        fabric._maybe_mark_ecn(port, msg.wire_bytes, msg)
        assert not msg.ecn, kind
    msg = _wire_msg(kind="read_req")
    fabric._maybe_mark_ecn(port, msg.wire_bytes, msg)
    assert msg.ecn


# -- opt-in wiring + validation ---------------------------------------------------


def test_congestion_requires_rx_contention():
    sim = Simulator(seed=1)
    with pytest.raises(HardwareError, match="switch output queue"):
        Fabric(sim, SYSTEM_L.nic, propagation_ns=100.0, cc=CcProfile())


def test_builder_rejects_unknown_congestion_spec():
    sim = Simulator(seed=1)
    with pytest.raises(ConfigError):
        build_cluster(sim, SYSTEM_L, 4, congestion="bogus")


def test_incast_config_validates_congestion():
    with pytest.raises(ConfigError):
        IncastConfig(congestion="bogus")


def test_auto_congestion_is_off_on_shipped_profiles():
    """CC is strictly opt-in: ``"auto"`` follows ``system.cc`` which is
    ``None`` on every shipped profile, so goldens stay bit-identical."""
    sim = Simulator(seed=1)
    fabric, hosts = build_cluster(sim, SYSTEM_L, 4)
    assert fabric.cc is None
    assert all(h.nic.cc is None for h in hosts)


# -- telemetry + attribution ------------------------------------------------------


def test_cc_telemetry_and_cc_pace_attribution():
    cfg = _cfg(senders=8, msgs_per_sender=8, congestion="dcqcn")
    r, sim, hosts = trace_incast(cfg)
    assert r.ecn_marked > 0 and r.cnps > 0
    snap = metrics_snapshot(sim, hosts=hosts)
    # Marks land at the receiver's switch port; CNPs leave its NIC.
    assert snap["fabrics"][hosts[0].fabric.name]["ports"]["host0"]["messages_marked"] > 0
    assert snap["hosts"]["host0"]["nic"]["cnps_sent"] > 0
    # At least one sender's limiter took a CNP and cut its rate.
    limiters = [lim for i in range(1, cfg.senders + 1)
                for lim in snap["hosts"][f"host{i}"]["limiters"].values()]
    assert any(lim["cnps"] > 0 and lim["rate_cuts"] > 0
               and lim["lowest_rate"] < LINE_BW for lim in limiters)
    # Pacing shows up as its own attribution stage on post_send spans.
    blames = attribute_spans(build_spans(sim.trace, op="post_send"))
    pace_ns = sum(s.duration_ns for b in blames for s in b.stages
                  if s.name.split("#")[0] == "cc_pace")
    assert pace_ns > 0


def test_cc_off_has_no_cc_pace_stage():
    cfg = _cfg(senders=4, msgs_per_sender=6, congestion="off")
    _r, sim, _hosts = trace_incast(cfg)
    blames = attribute_spans(build_spans(sim.trace, op="post_send"))
    assert blames
    assert not any(s.name.split("#")[0] == "cc_pace"
                   for b in blames for s in b.stages)


# -- satellite: clamped ACK-timeout backoff ---------------------------------------


def test_ack_timeout_backoff_is_clamped_integer_ns(monkeypatch):
    """Retry 7 must wait the cap, not ~128× the base timeout."""
    sim = Simulator(seed=1)
    _fabric, hosts = build_cluster(sim, SYSTEM_L, 2)
    nic = hosts[0].nic
    base = int(nic.profile.ack_timeout_ns)
    cap = int(nic.profile.max_ack_timeout_ns)
    qp = QueuePair(None, Transport.RC, None, None, qpn=1, sq_depth=16,
                   rq_depth=16, max_inline=0)
    qp.outstanding[5] = object()

    delays = []
    monkeypatch.setattr(
        Simulator, "call_later",
        lambda self, d, fn, arg=None: delays.append(d))
    for retries in range(8):
        nic._arm_ack_timer(qp, 5, retries)

    assert delays == [min(base << r, cap) for r in range(8)]
    assert all(isinstance(d, int) for d in delays)
    assert delays[7] == cap < base << 7


# -- satellite: duplicate-retransmit cancellation ---------------------------------


def test_retransmits_match_actual_losses():
    """An ACK covering a PSN cancels its pending retransmit: in a clean
    bounded-buffer run every retransmission maps to one real drop."""
    r = run_incast(_cfg(senders=2, msgs_per_sender=8,
                        buffer_bytes=128 * 1024))
    assert r.messages_dropped > 0
    assert r.retransmits == r.messages_dropped
    assert r.failed_msgs == 0


# -- satellite: loss-site drop accounting -----------------------------------------


def test_drop_split_partitions_total_under_faults_and_contention():
    """Wire losses and switch tail drops in one run: every dropped message
    lands in exactly one site counter, and transmit attempts conserve
    (sent == carried + dropped)."""
    cfg = IncastConfig(senders=4, msgs_per_sender=6,
                       buffer_bytes=256 * 1024)
    sim = Simulator(seed=cfg.seed)
    fabric, hosts, pairs = build_incast(sim, cfg)
    fabric.inject_faults(FaultPlan(loss=0.05, drop_control=False))

    sent = [0]
    orig = fabric.send

    def counting(src, dst, nbytes, payload, done, arg=None):
        sent[0] += 1
        orig(src, dst, nbytes, payload, done, arg)

    fabric.send = counting
    r = _drive(sim, cfg, fabric, hosts, pairs)
    assert fabric.drops_wire > 0 and fabric.drops_rxq > 0
    assert (fabric.drops_hairpin + fabric.drops_wire + fabric.drops_rxq
            == fabric.messages_dropped == r.messages_dropped)
    assert sent[0] == fabric.messages_carried + fabric.messages_dropped
    assert r.failed_msgs == 0


def test_pure_contention_drops_are_all_rxq():
    cfg = IncastConfig(senders=4, msgs_per_sender=8,
                       buffer_bytes=192 * 1024)
    sim = Simulator(seed=cfg.seed)
    fabric, hosts, pairs = build_incast(sim, cfg)
    _drive(sim, cfg, fabric, hosts, pairs)
    assert fabric.messages_dropped > 0
    assert fabric.drops_rxq == fabric.messages_dropped
    assert fabric.drops_hairpin == 0 and fabric.drops_wire == 0


def test_hairpin_drops_have_their_own_counter():
    sim = Simulator(seed=1)
    fabric, _hosts = build_cluster(sim, SYSTEM_L, 1)
    fabric.inject_faults(FaultPlan(flaps=((0.0, 1e9),)))

    def proc():
        yield from fabric.transmit(0, 0, 256, "hairpin-payload")

    sim.run(sim.process(proc()))
    sim.run()
    assert fabric.drops_hairpin == fabric.messages_dropped == 1
    assert fabric.drops_wire == 0 and fabric.drops_rxq == 0


# -- satellite: golden determinism with CC on -------------------------------------


@pytest.mark.parametrize("seed", [7, 21])
def test_cc_on_same_seed_is_bit_identical(seed):
    cfg = _cfg(senders=4, msgs_per_sender=8, congestion="dcqcn", seed=seed)
    a = run_incast(cfg)
    b = run_incast(cfg)
    assert repr(a.duration_ns) == repr(b.duration_ns)
    assert tuple(map(repr, a.flow_goodputs_gbit)) == \
           tuple(map(repr, b.flow_goodputs_gbit))
    assert a.rx_queue_peak_bytes == b.rx_queue_peak_bytes
    assert (a.ecn_marked, a.cnps, a.messages_dropped, repr(a.min_rate)) == \
           (b.ecn_marked, b.cnps, b.messages_dropped, repr(b.min_rate))


def _cc_point(seed: int) -> str:
    r = run_incast(IncastConfig(senders=4, size=64 * 1024, msgs_per_sender=6,
                                window=8, buffer_bytes=512 * 1024,
                                congestion="dcqcn", seed=seed))
    return repr((r.duration_ns, r.flow_goodputs_gbit, r.ecn_marked, r.cnps))


def test_cc_on_parallel_sweep_worker_invariance():
    from repro.bench_support import parallel_sweep

    seeds = [7, 21]
    serial = parallel_sweep(_cc_point, seeds, workers=1)
    fanned = parallel_sweep(_cc_point, seeds, workers=2)
    assert serial == fanned
