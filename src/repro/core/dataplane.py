"""The dataplanes: kernel bypass vs CoRD.

Both expose the ibverbs data plane (§4): ``post_send``, ``post_recv``,
their chained forms and ``poll_cq``, plus ``wait_cq`` — a completion
*waiter* that models either busy-polling or interrupt-driven blocking
without simulating every spin of a poll loop.

Each entry point is implemented once, in :class:`Dataplane`: the same
driver fast path (:mod:`repro.core.driver`) builds the same WQE and rings
the same doorbell.  A subclass only says how one call is charged
(``_charge``):

========== ============================================= =========================
operation  BypassDataplane                                CordDataplane
========== ============================================= =========================
post_send  driver + doorbell (user space)                 syscall + serialize +
                                                          policies + driver +
                                                          doorbell (kernel)
post_recv  driver (user space)                            syscall + serialize +
                                                          policies + driver
poll_cq    ibv_poll_cq (user space)                       syscall + serialize +
                                                          policies + poll (kernel)
========== ============================================= =========================

A chained post is one call: one doorbell, and for CoRD one syscall, with
the policy chain still evaluated once per WR.  The NIC behaviour after the
doorbell is identical in both — by construction, as in the paper.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Generator, Iterable, Optional, Sequence

from repro.core import driver
from repro.core.policy import OpContext, PolicyChain
from repro.errors import PolicyViolation
from repro.hw.cpu import Core
from repro.verbs.cq import CompletionQueue
from repro.verbs.qp import QueuePair
from repro.verbs.wr import CQE, RecvWR, SendWR

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.host import Host
    from repro.kernel.interrupts import CompletionChannel
    from repro.sim.events import Event


class WaitMode(enum.Enum):
    """How an application waits for completions."""

    POLL = "poll"  # spin on the CQ (default high-performance mode)
    EVENT = "event"  # arm + block on a completion channel (interrupt path)


class Dataplane:
    """The one post/poll/wait path; subclasses supply :meth:`_charge`."""

    #: Human-readable mode tag ("BP" or "CD"), mirroring the paper's figures.
    tag = "??"
    #: The driver runs in the kernel (``driver.should_inline`` asks).
    cord = False

    def __init__(self, host: "Host", core: Core, tenant: str = "default"):
        self.host = host
        self.core = core
        self.sim = host.sim
        self.system = host.system
        self.tenant = tenant
        self.ops_posted = 0
        self.polls = 0
        self._channels: dict[int, "CompletionChannel"] = {}

    # -- observation (callers guard on trace.enabled) ---------------------------

    def _open_spans(self, op: str, qpn: int, wrs: Sequence) -> list[int]:
        """Open one ``op`` span per WR and count it in ``dataplane.ops``."""
        trace = self.sim.trace
        now = self.sim.now
        host = self.host.host_id
        # sim: allow-unguarded-hook(helper is only called under the caller's trace.enabled guard)
        counter = trace.scope(self.host.name).counter("dataplane.ops")
        key = f"{self.tag}.{op}"
        spans = []
        for wr in wrs:
            # sim: allow-unguarded-hook(helper is only called under the caller's trace.enabled guard)
            span = trace.new_span()
            # sim: allow-unguarded-hook(helper is only called under the caller's trace.enabled guard)
            trace.emit(now, "op_begin", span=span, host=host, op=op,
                       dataplane=self.tag, qpn=qpn, wr_id=wr.wr_id,
                       size=wr.length)
            counter.inc(wr.length, key=key)
            spans.append(span)
        return spans

    def _end_spans(self, spans: Iterable[Optional[int]]) -> None:
        """Close these spans now (the application saw them finish)."""
        trace = self.sim.trace
        now = self.sim.now
        host = self.host.host_id
        for span in spans:
            if span is not None:
                # sim: allow-unguarded-hook(helper is only called under the caller's trace.enabled guard)
                trace.emit(now, "op_end", span=span, host=host)

    # -- the one post/poll path ------------------------------------------------
    #
    # ``_charge`` returns the core's generator instead of wrapping it, so a
    # CPU charge stays one generator frame.  A single post is a chain of one.

    def post_send(self, qp: QueuePair, wr: SendWR) -> Generator["Event", object, None]:
        return self.post_send_many(qp, (wr,))

    def post_recv(self, qp: QueuePair, wr: RecvWR) -> Generator["Event", object, None]:
        return self.post_recv_many(qp, (wr,))

    def post_recv_many(
        self, qp: QueuePair, wrs: Sequence[RecvWR]
    ) -> Generator["Event", object, None]:
        """Post a chain of recv WRs in one call (``ibv_post_recv`` takes a
        linked list) — in CoRD this is one syscall for the whole chain,
        which is how real consumers amortize the kernel crossing.  Each
        WR's ``post_recv`` span ends once the device has accepted it."""
        if not wrs:
            return
        spans = None
        if self.sim.trace.enabled:
            spans = self._open_spans("post_recv", qp.qpn, wrs)
        yield from self._charge(driver.post_recv_cpu_ns(self.system) * len(wrs),
                                "post_recv", qp, wrs)
        hw_post = self.host.nic.hw_post_recv
        for wr in wrs:
            hw_post(qp, wr)
        self.ops_posted += len(wrs)
        if spans is not None:
            self._end_spans(spans)

    def post_send_many(
        self, qp: QueuePair, wrs: Sequence[SendWR]
    ) -> Generator["Event", object, None]:
        """Post a chain of send WRs in one call (``ibv_post_send`` takes a
        linked list; perftest's postlist mode).  For CoRD this is the
        paper-§6 "the problem is the API, not the transition" argument
        made concrete: one syscall amortized over the whole chain, while
        the per-WR driver fast path still runs (in the kernel)."""
        if not wrs:
            return
        if self.sim.trace.enabled:
            for wr, span in zip(wrs, self._open_spans("post_send", qp.qpn, wrs)):
                wr.span = span
        fast = 0.0
        for wr in wrs:
            wr.inline = driver.should_inline(self.system, qp, wr, self.cord)
            fast += driver.post_send_cpu_ns(self.system, wr, wr.inline)
        fast += driver.doorbell_cpu_ns(self.system)  # one doorbell per chain
        yield from self._charge(fast, "post_send", qp, wrs)
        for wr in wrs:
            self.host.nic.hw_post_send(qp, wr)
        self.ops_posted += len(wrs)

    def poll_cq(
        self, cq: CompletionQueue, max_entries: int = 16
    ) -> Generator["Event", object, list[CQE]]:
        cqes = cq.poll(max_entries)
        cpu = self.system.cpu
        yield from self._charge(cpu.poll_hit_ns if cqes else cpu.poll_miss_ns,
                                "poll_cq", cq=cq)
        self.polls += 1
        if self.sim.trace.enabled and cqes:
            self._end_spans([cqe.span for cqe in cqes])
        return cqes

    def _charge(
        self, fast_ns: float, op: Optional[str] = None,
        qp: Optional[QueuePair] = None, wrs=(),
        cq: Optional[CompletionQueue] = None,
    ) -> Generator["Event", object, None]:
        """Charge one call whose driver fast path costs ``fast_ns``.

        ``op``, ``qp``, ``wrs`` and ``cq`` say what a policy chain may
        inspect: each WR of a post, or the CQ of a poll.  ``op`` None (the
        missed probe of :meth:`wait_cq`) shows it nothing.
        """
        raise NotImplementedError

    # -- completion waiting ----------------------------------------------------------

    def wait_cq(
        self,
        cq: CompletionQueue,
        max_entries: int = 16,
        mode: WaitMode = WaitMode.POLL,
    ) -> Generator["Event", object, list[CQE]]:
        """Block (by polling or by interrupt) until >= 1 CQE, then reap.

        The polling path is modelled, not spun: the core is held busy for
        the waiting interval (so DVFS sees a saturated core), then one
        missed poll and one successful poll are charged.  This keeps event
        counts O(1) per completion while preserving CPU accounting.
        """
        if mode is WaitMode.EVENT:
            return (yield from self._wait_event(cq, max_entries))
        if not cq.entries:
            # busy_poll measures the spin itself (via a shift-aware start
            # mark), so the duration excludes any fast-forwarded jump.  A
            # CQ that already holds a CQE needs no wait: the spin would
            # take zero time.
            waited = yield from self.core.busy_poll(cq.wait_nonempty(), 0.0)
            self._waited(waited)
        # One unsuccessful probe (the loop iteration that raced the CQE)
        # plus the successful reap.
        self.polls += 1
        yield from self._charge(self.system.cpu.poll_miss_ns)
        cqes = yield from self.poll_cq(cq, max_entries)
        return cqes

    #: CPU cost of ibv_req_notify_cq + ibv_ack_cq_events bookkeeping.
    REARM_NS = 110.0

    def _wait_event(
        self, cq: CompletionQueue, max_entries: int
    ) -> Generator["Event", object, list[CQE]]:
        """Interrupt-driven completion (the §2 "no polling" configuration).

        Every batch of completions is learned through the completion
        channel's file descriptor — a ``get_cq_event`` system call — after
        the NIC's interrupt fired and its handler ran (stealing the app
        core).  This is the large, size-independent constant fig. 1a shows.
        """
        chan = self._channels.get(id(cq))
        if chan is None:
            chan = self.host.kernel.create_comp_channel()
            self.host.kernel.bind_cq_to_channel(cq, chan)
            self._channels[id(cq)] = chan
        woke = False
        while True:
            # Canonical perftest event loop: ack previous events, re-arm,
            # then drain (the order that avoids losing the arm/poll race).
            yield from self.core.run(self.REARM_NS)
            cq.req_notify()
            cqes = yield from self.poll_cq(cq, max_entries)
            if cqes:
                cq.armed = False
                if not woke:
                    # This batch was announced by a completion event: its
                    # interrupt ran on this core and the event fd was read
                    # with one syscall.  (The blocking path below already
                    # paid both through the kernel IRQ path + chan.wait.)
                    yield from self.core.run(self.system.cpu.irq_handler_ns)
                    yield from self.core.syscall(self.system.cpu.block_ns)
                return cqes
            yield from chan.wait(self.core)
            woke = True

    def _waited(self, duration_ns: float) -> None:
        """Hook: the dataplane spun for ``duration_ns`` awaiting a CQE.

        ``duration_ns`` is the spin proper — measured by ``busy_poll``
        from the moment the core was *acquired* (via a shift-aware mark,
        so fast-forward jumps never inflate it).  Time queued behind
        another thread on a shared core is deliberately excluded: while
        descheduled the process issues no poll syscalls, so counting that
        interval would overstate the DVFS idle credit below.

        Bypass spins in a tight user-space loop (full duty).  CoRD spins
        through repeated poll *syscalls*; the entry/exit stalls lower the
        core's effective power draw, which the DVFS governor rewards — the
        paper's observed "system calls interact with DVFS" effect (§5).
        """


class BypassDataplane(Dataplane):
    """Classical user-level RDMA dataplane (fig. 2b)."""

    tag = "BP"

    def _charge(self, fast_ns, op=None, qp=None, wrs=(), cq=None):
        """The user-space driver runs the fast path; nothing interposes."""
        return self.core.run(fast_ns)


class CordDataplane(Dataplane):
    """CoRD: every dataplane operation crosses the kernel (fig. 2c)."""

    tag = "CD"
    cord = True

    def __init__(
        self,
        host: "Host",
        core: Core,
        policies: Optional[PolicyChain] = None,
        tenant: str = "default",
    ):
        super().__init__(host, core, tenant=tenant)
        self.policies = policies if policies is not None else PolicyChain()
        self.denied_ops = 0

    def _charge(self, fast_ns, op=None, qp=None, wrs=(), cq=None):
        """One CoRD syscall: transition + serialize + policies + fast path.

        The chain is evaluated once per WR (once per poll); an empty chain
        builds no :class:`OpContext`, decided per call since a chain can
        grow.  A denial is charged by :meth:`_deny`, which re-raises it.
        """
        policy_ns = 0.0
        if op is not None and self.policies.policies:
            evaluate = self.policies.evaluate
            now, host, tenant = self.sim.now, self.host, self.tenant
            try:
                if cq is not None:
                    policy_ns += evaluate(OpContext(now, host, op, cq=cq, tenant=tenant))
                elif op == "post_send":
                    for wr in wrs:
                        policy_ns += evaluate(
                            OpContext(now, host, op, qp, send_wr=wr, tenant=tenant))
                else:
                    for wr in wrs:
                        policy_ns += evaluate(
                            OpContext(now, host, op, qp, recv_wr=wr, tenant=tenant))
            except PolicyViolation as exc:
                return self._deny(exc)
        return self.core.syscall(
            self.system.cord_serialize_ns + self.system.cord_kernel_driver_ns
            + policy_ns + fast_ns)

    def _deny(self, exc: PolicyViolation) -> Generator["Event", object, None]:
        """A denied operation: its syscall still happened.  Pay transition
        + serialization; the driver fast path never runs."""
        self.denied_ops += 1
        yield from self.core.syscall(
            self.system.cord_serialize_ns + self.system.cord_kernel_driver_ns)
        raise exc

    #: Share of a CoRD poll-wait the DVFS governor credits as idle
    #: (kernel entry/exit pipeline stalls during the syscall spin loop).
    WAIT_IDLE_CREDIT = 0.3

    def _waited(self, duration_ns: float) -> None:
        self.core.grant_idle_credit(duration_ns * self.WAIT_IDLE_CREDIT)
