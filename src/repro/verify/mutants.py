"""Hand-seeded protocol mutants proving the verifier has teeth.

Each mutant is a small, realistic protocol bug — the kind a refactor of
the RC machinery could plausibly introduce — applied as a reversible
monkeypatch under a context manager.
``tests/test_verify.py::test_every_mutant_is_caught_with_a_counterexample``
runs the explorer over each mutant's target scenarios and fails the build
unless **every** mutant produces a counterexample flagged with its
expected rule (and ``test_exploration_is_clean_on_the_real_tree`` keeps
the unmutated tree clean): a verifier that cannot catch these is
decoration, not verification.

The patches target *simulation* classes only and always restore the
original attributes on exit, so mutants compose with pytest and never
leak between runs.
"""

from __future__ import annotations

import contextlib
import dataclasses
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.hw.nic import Nic
from repro.verbs.qp import QPState, QueuePair
from repro.verbs.wr import CQE, Psn, WCStatus, WireMessage


@dataclass(frozen=True)
class Mutant:
    """One seeded bug: how to apply it and what must catch it."""

    name: str
    description: str
    rule: str  # the PROTO rule expected to flag it
    scenarios: tuple[str, ...]  # scenario names whose exploration catches it
    apply: Callable[[], "contextlib.AbstractContextManager[None]"]


@contextlib.contextmanager
def _patched(owner: type, attr: str, repl: Callable) -> Iterator[None]:
    orig = getattr(owner, attr)
    setattr(owner, attr, repl)
    try:
        yield
    finally:
        setattr(owner, attr, orig)


# -- M1: entering ERROR silently drops the SQ instead of flushing it ----------

@contextlib.contextmanager
def _skip_error_flush() -> Iterator[None]:
    def bad(self: QueuePair) -> None:
        # "Optimized" flush that forgets the send queue: consumers waiting
        # on signaled sends hang forever.
        from repro.verbs.wr import CQE, Opcode, WCStatus

        for rwr in self.rq:
            self.recv_cq.push(CQE(
                wr_id=rwr.wr_id, status=WCStatus.WR_FLUSH_ERR,
                opcode=Opcode.SEND, byte_len=0, qp_num=self.qpn))
        self.rq.clear()
        self.outstanding.clear()
        self.retx_retries.clear()
        self.retx_epoch.clear()
        self.sq_outstanding = 0

    with _patched(QueuePair, "_flush_with_errors", bad):
        yield


# -- M2: responder ACKs one PSN ahead of what it accepted ---------------------

@contextlib.contextmanager
def _ack_wrong_psn() -> Iterator[None]:
    orig = Nic._send_ack

    def bad(self: Nic, ctx: tuple) -> None:
        qp, request, kind, status = ctx
        shifted = dataclasses.replace(request, psn=Psn.next(request.psn))
        orig(self, (qp, shifted, kind, status))

    with _patched(Nic, "_send_ack", bad):
        yield


# -- M3: duplicate atomics re-execute instead of replaying the cache ----------

@contextlib.contextmanager
def _atomic_reexec() -> Iterator[None]:
    def bad(self, qp: QueuePair, msg: WireMessage) -> None:
        cached = qp.atomic_cache.get(msg.psn)
        if cached is not None:
            # Re-run the RMW: the "original" value returned to the retry
            # now includes the first execution's add — a lost update bug.
            add = msg.atomic[1] if msg.atomic else 1
            self.sim.call_soon(self._exec_atomic_resp, (qp, msg, cached + add))

    with _patched(Nic, "_replay_atomic", bad):
        yield


# -- M4: acked WQEs resurrected in the outstanding window ---------------------

@contextlib.contextmanager
def _double_complete() -> Iterator[None]:
    orig = Nic._handle_response

    def bad(self: Nic, msg: WireMessage) -> None:
        qp = self._qps.get(msg.dst_qpn)
        wr = psn = None
        if qp is not None and msg.kind == "ack" and msg.token is not None:
            _qpn, psn = msg.token
            wr = qp.outstanding.get(psn)
        orig(self, msg)
        if (wr is not None and qp is not None
                and psn not in qp.outstanding
                and qp.state is QPState.RTS):
            # Stale bookkeeping: the completed WQE creeps back into the
            # window, so an ERROR flush completes it a second time.
            qp.outstanding[psn] = wr
            qp.sq_outstanding += 1

    with _patched(Nic, "_handle_response", bad):
        yield


# -- M5: retry exhaustion errors the QP by direct state write -----------------

@contextlib.contextmanager
def _direct_state_write() -> Iterator[None]:
    def bad(self: Nic, ctx: tuple) -> None:
        qp, wr = ctx
        if qp.state not in (QPState.ERROR, QPState.RESET):
            # Bypasses modify(): no legality check, no flush, and the
            # monitor's shadow state goes stale until the next hook.
            qp._state = QPState.ERROR  # sim: allow-qp-state-write(seeded mutant M5)
        self._post_cqe(
            qp.send_cq,
            CQE(wr_id=wr.wr_id, status=WCStatus.RETRY_EXC_ERR,
                opcode=wr.opcode, byte_len=wr.length, qp_num=qp.qpn,
                span=wr.span),
        )

    with _patched(Nic, "_complete_retry_exhausted", bad):
        yield


# -- M6: the ACK timer never gives up (unbounded retransmission) --------------

@contextlib.contextmanager
def _retransmit_forever() -> Iterator[None]:
    def bad(self: Nic, token: tuple) -> None:
        qp, psn, epoch = token
        if qp.retx_epoch.get(psn) != epoch:
            return
        wr = qp.outstanding.get(psn)
        if wr is None or qp.state is not QPState.RTS:
            qp.retx_epoch.pop(psn, None)
            return
        self.counters.ack_timeouts += 1
        retries = qp.retx_retries.get(psn, 0)
        # The retry_cnt check is gone: every timeout retransmits.
        qp.retx_retries[psn] = retries + 1
        self._queue_retransmit(qp, wr, psn, retries + 1)

    with _patched(Nic, "_ack_timer_fired", bad):
        yield


# -- M7: ERROR flush emits sends newest-first ---------------------------------

@contextlib.contextmanager
def _flush_reverse() -> Iterator[None]:
    def bad(self: QueuePair) -> None:
        from repro.verbs.wr import CQE, Opcode, WCStatus

        for rwr in self.rq:
            self.recv_cq.push(CQE(
                wr_id=rwr.wr_id, status=WCStatus.WR_FLUSH_ERR,
                opcode=Opcode.SEND, byte_len=0, qp_num=self.qpn))
        self.rq.clear()
        base = self.sq_psn
        for _psn, swr in sorted(
            self.outstanding.items(),
            key=lambda kv: Psn.delta(kv[0], base),
            reverse=True,  # newest-first: violates SQ flush order
        ):
            self.send_cq.push(CQE(
                wr_id=swr.wr_id, status=WCStatus.WR_FLUSH_ERR,
                opcode=swr.opcode, byte_len=0, qp_num=self.qpn))
        self.outstanding.clear()
        self.reorder.clear()
        self.retx_retries.clear()
        self.retx_epoch.clear()
        self.sq_outstanding = 0

    with _patched(QueuePair, "_flush_with_errors", bad):
        yield


# -- M8: accepting a message steps expected_psn backwards ---------------------

@contextlib.contextmanager
def _expected_psn_rewind() -> Iterator[None]:
    def bad(self, qp: QueuePair) -> None:
        qp.expected_psn = Psn.add(qp.expected_psn, -1)

    with _patched(Nic, "_advance_expected_psn", bad):
        yield


MUTANTS: dict[str, Mutant] = {
    m.name: m
    for m in (
        Mutant("skip_error_flush",
               "ERROR transition drops the SQ instead of flushing it",
               "PROTO101", ("flush_order", "retry_exhaustion"),
               _skip_error_flush),
        Mutant("ack_wrong_psn",
               "responder ACKs one PSN past what it accepted",
               "PROTO102", ("two_sends",), _ack_wrong_psn),
        Mutant("atomic_reexec",
               "duplicate atomics re-execute the RMW instead of replaying",
               "PROTO106", ("atomic_replay",), _atomic_reexec),
        Mutant("double_complete",
               "acked WQEs resurrected, so an ERROR flush completes twice",
               "PROTO101", ("flush_order",), _double_complete),
        Mutant("direct_state_write",
               "retry exhaustion writes qp._state directly, bypassing modify",
               "PROTO103", ("retry_exhaustion",), _direct_state_write),
        Mutant("retransmit_forever",
               "ACK timeout retransmits without a retry_cnt bound",
               "PROTO105", ("retry_exhaustion",), _retransmit_forever),
        Mutant("flush_reverse",
               "ERROR flush emits send CQEs newest-first",
               "PROTO104", ("flush_order",), _flush_reverse),
        Mutant("expected_psn_rewind",
               "responder steps expected_psn backwards on accept",
               "PROTO102", ("two_sends",), _expected_psn_rewind),
    )
}
