"""Bandwidth microbenchmarks (``ib_send_bw`` / ``ib_read_bw`` / ``ib_write_bw``).

Windowed streaming: the sender keeps up to ``window`` operations in flight
and reaps completions in batches.  For two-sided sends, bandwidth is
measured at the *receiver* (the honest end); one-sided ops measure at the
initiator.  Message rate falls out of the same timestamps — fig. 4 overlays
it on the relative-throughput curves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator

from repro.errors import ConfigError
from repro.perftest.techniques import Techniques
from repro.units import to_gbit_per_s
from repro.verbs.wr import Opcode, RecvWR, SendWR

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.endpoint import Endpoint
    from repro.sim.engine import Simulator
    from repro.sim.events import Event
    from repro.sim.fastforward import FastForward


@dataclass
class BwResult:
    """Per-size bandwidth measurement."""

    size: int
    iters: int
    window: int
    duration_ns: float
    #: RC loss-recovery activity over the whole run (both NICs); nonzero
    #: only when the measurement ran with a fault plan attached.
    retransmits: int = 0
    ack_timeouts: int = 0

    @property
    def bytes_moved(self) -> int:
        return self.size * self.iters

    @property
    def gbit_per_s(self) -> float:
        if self.duration_ns <= 0:
            return 0.0
        return to_gbit_per_s(self.bytes_moved / self.duration_ns)

    @property
    def msg_rate_per_s(self) -> float:
        if self.duration_ns <= 0:
            return 0.0
        return self.iters / self.duration_ns * 1e9


def _signal_every(window: int, techniques: Techniques) -> int:
    """Signal one in N sends (perftest signals sparsely to cut CQ traffic).

    Event mode (polling removed) needs a completion event per work request
    to make progress, so everything is signaled — part of why "no polling"
    hurts small-message throughput so much (§2).
    """
    if not techniques.polling:
        return 1
    return max(1, window // 2)


def send_bw(
    sim: "Simulator",
    sender: "Endpoint",
    receiver: "Endpoint",
    size: int,
    iters: int = 400,
    window: int = 128,
    warmup: int = 64,
    techniques: Techniques = Techniques(),
    fastforward: "FastForward" = None,
) -> Generator["Event", object, BwResult]:
    """Two-sided streaming send; bandwidth measured at the receiver."""
    if size < 0 or size > sender.buf.length:
        raise ConfigError(f"bad message size {size}")
    is_ud = sender.qp.transport.value == "UD"
    window = min(window, sender.qp.sq_depth)
    rq_target = min(receiver.qp.rq_depth, window * 2 + 16)
    total = warmup + iters
    done = sim.event(name="send_bw.done")

    tx_done = sim.event(name="send_bw.tx_done")

    probe = fastforward
    if probe is not None:
        # The end-game (rx reposts stop, tx drains, UD grace) begins once
        # `received` gets within rq_target+window of the end — keep every
        # jump comfortably short of it so the wind-down is simulated.
        # The last milestone is a hard stop: no skipping once `received`
        # passes it (probe disarms), so the whole drain runs at full
        # fidelity.  The tx burst schedule recurs every `sig` receive
        # boundaries, so the period search must reach past it.
        tail = rq_target + window + 16
        probe.begin(("received", "measured", "posted"),
                    (warmup, max(warmup + 1, total - tail)),
                    max_period=2 * _signal_every(window, techniques) + 4)

    def rx() -> Generator["Event", object, None]:
        posted = 0
        while posted < min(rq_target, total):
            yield from receiver.post_recv(
                RecvWR(wr_id=posted, addr=receiver.buf.addr,
                       length=receiver.buf.length, lkey=receiver.mr.lkey)
            )
            posted += 1
        received = 0
        measured = 0
        t_start = None
        while received < total:
            if is_ud and tx_done.processed and len(receiver.recv_cq) == 0:
                # UD is lossy: the sender may have outrun us and some
                # messages were dropped.  Grace-wait for stragglers, then
                # account what actually arrived.
                grace = window * fabric_time + 50_000.0
                yield grace
                if len(receiver.recv_cq) == 0:
                    break
            cqes = yield from receiver.dataplane.wait_cq(
                receiver.recv_cq, max_entries=16, mode=techniques.wait_mode
            )
            reposts = []
            for cqe in cqes:
                assert cqe.ok
                received += 1
                yield from techniques.charge_recv_side(receiver, size)
                if received == warmup:
                    t_start = sim.now
                elif received > warmup:
                    measured += 1
                if posted < total:
                    reposts.append(
                        RecvWR(wr_id=posted, addr=receiver.buf.addr,
                               length=receiver.buf.length, lkey=receiver.mr.lkey)
                    )
                    posted += 1
            # Replenish the RQ with one chained call (as perftest does).
            yield from receiver.dataplane.post_recv_many(receiver.qp, reposts)
            if probe is not None and probe.enabled:
                skip = probe.observe((received, measured, posted),
                                     (t_start is None, tx_done.processed))
                if skip is not None:
                    received += skip.counters["received"]
                    measured += skip.counters["measured"]
                    posted += skip.counters["posted"]
        if t_start is None:  # degenerate: everything landed in the warmup
            t_start = sim.now
        done.succeed(
            BwResult(size=size, iters=max(measured, 1), window=window,
                     duration_ns=sim.now - t_start)
        )

    fabric_time = sender.host.fabric.serialization_ns(size) if is_ud else 0.0

    def tx() -> Generator["Event", object, None]:
        sig = _signal_every(window, techniques)
        posted = 0
        inflight = 0
        unsignaled = 0
        loop_ns = sender.host.system.cpu.loop_overhead_ns
        while posted < total:
            if probe is not None:
                # Fold in iterations the receiver's probe skipped (the
                # per-period delta is provably ≡ 0 mod `sig`, so the
                # signaling phase below is undisturbed).
                posted += probe.take_aux()
            while posted < total and inflight < window:
                yield from sender.core.run(loop_ns)
                yield from techniques.charge_send_side(sender, size)
                signaled = (posted % sig == sig - 1) or posted == total - 1
                wr = SendWR(wr_id=posted, opcode=Opcode.SEND, addr=sender.buf.addr,
                            length=size, lkey=sender.mr.lkey, signaled=signaled)
                if is_ud:
                    wr.ah = receiver.addr
                yield from sender.post_send(wr)
                posted += 1
                inflight += 1
                if not signaled:
                    unsignaled += 1
                if probe is not None and probe.enabled:
                    # Report every post, not just reap points: when the
                    # send side is the bottleneck (e.g. zero-copy removed)
                    # the window never fills, the reap below never runs,
                    # and the receiver's probe would otherwise see no tx
                    # state at all — free to prove a bogus period inside
                    # the signaling super-period.  Per-post state makes
                    # the ramp (inflight still growing) visibly aperiodic
                    # and gives each signaling phase a distinct signature.
                    probe.observe_aux(posted,
                                      (inflight, unsignaled, posted % sig))
            cqes = yield from sender.dataplane.wait_cq(
                sender.send_cq, max_entries=16, mode=techniques.wait_mode
            )
            for cqe in cqes:
                assert cqe.ok
                # A signaled completion retires itself and the unsignaled
                # sends posted before it.
                retired = min(unsignaled, sig - 1) + 1
                unsignaled -= retired - 1
                inflight -= retired
            if probe is not None and probe.enabled:
                probe.observe_aux(posted,
                                  (inflight, unsignaled, posted % sig))
        tx_done.succeed(None)

    sim.process(rx(), name="send_bw.rx")
    sim.process(tx(), name="send_bw.tx")
    value = yield done
    return value  # type: ignore[return-value]


def _one_sided_bw(
    sim: "Simulator",
    initiator: "Endpoint",
    target: "Endpoint",
    opcode: Opcode,
    size: int,
    iters: int,
    window: int,
    warmup: int,
    techniques: Techniques,
    fastforward: "FastForward" = None,
) -> Generator["Event", object, BwResult]:
    if size < 0 or size > initiator.buf.length:
        raise ConfigError(f"bad message size {size}")
    window = min(window, initiator.qp.sq_depth)
    total = warmup + iters
    sig = _signal_every(window, techniques)
    probe = fastforward
    if probe is not None:
        # As in send_bw: the last milestone is a hard stop, the wind-down
        # (final signaled WR, inflight drain) always simulates.
        tail = window + 32
        probe.begin(("completed", "posted"),
                    (warmup, max(warmup + 1, total - tail)))
    posted = 0
    inflight = 0
    unsignaled = 0
    completed = 0
    t_start = None
    completed_at_mark = 0
    loop_ns = initiator.host.system.cpu.loop_overhead_ns
    while completed < total:
        while posted < total and inflight < window:
            yield from initiator.core.run(loop_ns)
            yield from techniques.charge_send_side(initiator, size)
            signaled = (posted % sig == sig - 1) or posted == total - 1
            wr = SendWR(wr_id=posted, opcode=opcode, addr=initiator.buf.addr,
                        length=size, lkey=initiator.mr.lkey, signaled=signaled,
                        remote_addr=target.buf.addr, rkey=target.mr.rkey)
            yield from initiator.post_send(wr)
            posted += 1
            inflight += 1
            if not signaled:
                unsignaled += 1
        cqes = yield from initiator.dataplane.wait_cq(
            initiator.send_cq, max_entries=16, mode=techniques.wait_mode
        )
        for cqe in cqes:
            assert cqe.ok
            retired = min(unsignaled, sig - 1) + 1
            unsignaled -= retired - 1
            inflight -= retired
            completed += retired
            # Mark the warmup crossing at the retirement that crosses it
            # (mirrors send_bw's per-completion `received == warmup` mark,
            # instead of the old post-batch check that over-counted the
            # crossing batch into the warmup).
            if t_start is None and completed >= warmup:
                t_start = sim.now
                completed_at_mark = completed
        if probe is not None and probe.enabled:
            skip = probe.observe(
                (completed, posted),
                (inflight, unsignaled, posted % sig, t_start is None),
            )
            if skip is not None:
                completed += skip.counters["completed"]
                posted += skip.counters["posted"]
    if t_start is None:
        # Degenerate run that never left the warmup: same accounting as
        # send_bw's fallback — zero duration, measured clamps to 1 below.
        t_start = sim.now
        completed_at_mark = completed
    measured = max(completed - completed_at_mark, 1)
    return BwResult(size=size, iters=measured, window=window,
                    duration_ns=sim.now - t_start)


def write_bw(sim, initiator, target, size, iters=400, window=128, warmup=64,
             techniques: Techniques = Techniques(), fastforward=None):
    """One-sided write streaming (initiator-measured)."""
    return _one_sided_bw(sim, initiator, target, Opcode.RDMA_WRITE, size,
                         iters, window, warmup, techniques, fastforward)


def read_bw(sim, initiator, target, size, iters=400, window=128, warmup=64,
            techniques: Techniques = Techniques(), fastforward=None):
    """One-sided read streaming (initiator-measured)."""
    return _one_sided_bw(sim, initiator, target, Opcode.RDMA_READ, size,
                         iters, window, warmup, techniques, fastforward)
