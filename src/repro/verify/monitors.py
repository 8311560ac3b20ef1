"""Runtime RC-protocol invariant monitors (PROTO101–PROTO107).

A :class:`ProtocolMonitor` attaches to a :class:`~repro.sim.engine.Simulator`
(``Simulator(monitors=True)``, ``REPRO_VERIFY_MONITORS=1``, or
``sim.attach_monitor``) and observes the verbs/NIC layers through a fixed
set of hook sites, each costing one ``is None`` branch when no monitor is
attached (the same discipline as trace/fault hooks — PROTO004
lints the sites).  Monitors only *observe*: attaching one never changes
simulation timing or results.

Invariants checked, in sanitizer style (rule ids match
:mod:`repro.sanitize.findings`):

- **PROTO101** — completion discipline: every signaled WR completes
  exactly once; no CQE for a WR that was never posted or already
  completed; no success CQE for an unsignaled send; nothing signaled is
  still pending at :meth:`finalize`.
- **PROTO102** — responder PSN discipline: ``expected_psn`` only moves
  forward (24-bit serial order), and a positive ACK is only ever sent
  for a PSN the responder has already accepted.
- **PROTO103** — QP state machine: transitions follow the legal table,
  and the state never changes outside :meth:`QueuePair.modify` (a shadow
  copy is compared at every hook).
- **PROTO104** — error-flush discipline: ``WR_FLUSH_ERR`` CQEs appear
  only while the QP is in ERROR, recvs flush before sends, sends flush
  in SQ (circular-PSN) order, and everything in flight at the ERROR
  transition eventually flushes.
- **PROTO105** — bounded recovery: no PSN is retransmitted more than
  ``max(retry_cnt, rnr_retries)`` times.
- **PROTO106** — atomic exactly-once: every response for one
  ``(qp, psn)`` atomic carries the same original value (replays must
  come from the cache, never from re-execution).
- **PROTO107** — SQ occupancy: ``0 <= sq_outstanding <= sq_depth``.

In strict mode the first violation raises
:class:`~repro.errors.ProtocolViolation`; in collect mode violations
accumulate as :class:`~repro.sanitize.findings.Finding` records
(``source="monitor"``) for the CLI/CI to report.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.errors import ProtocolViolation
from repro.sanitize.findings import Finding
from repro.verbs.qp import _VALID_TRANSITIONS, QPState, QueuePair
from repro.verbs.wr import CQE, Psn, RecvWR, SendWR, WCStatus, WireMessage

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator
    from repro.verbs.cq import CompletionQueue

#: Key identifying one QP across the cluster.
QpKey = tuple[int, int]  # (host_id, qpn)


class ProtocolMonitor:
    """Observe-only RC invariant checker; see the module docstring."""

    def __init__(self, sim: "Simulator", strict: bool = True) -> None:
        self.sim = sim
        self.strict = strict
        self.findings: list[Finding] = []
        self._qps: dict[QpKey, QueuePair] = {}
        self._qp_key: dict[int, QpKey] = {}          # id(qp) -> key
        self._cq_host: dict[int, int] = {}           # id(cq) -> host_id
        self._shadow: dict[QpKey, QPState] = {}
        #: wr_id -> FIFO of ``signaled`` flags for not-yet-completed sends.
        self._send_live: dict[QpKey, dict[int, list[bool]]] = {}
        self._recv_live: dict[QpKey, dict[int, int]] = {}
        self._expected: dict[QpKey, int] = {}
        #: Snapshot of the SQ flush order taken at the ERROR transition.
        self._flush_due: dict[QpKey, list[int]] = {}
        self._flush_done: dict[QpKey, int] = {}
        self._atomic_vals: dict[tuple[QpKey, int], int] = {}

    # -- reporting ---------------------------------------------------------------

    def _report(self, rule: str, message: str) -> None:
        finding = Finding(rule=rule, path="<runtime>", line=0,
                          message=message, source="monitor")
        self.findings.append(finding)
        if self.strict:
            raise ProtocolViolation(finding.text())

    def _key(self, qp: QueuePair) -> Optional[QpKey]:
        return self._qp_key.get(id(qp))

    # -- cross-cutting shadow checks --------------------------------------------

    def _check_qp(self, qp: QueuePair) -> None:
        key = self._qp_key.get(id(qp))
        if key is None:
            return
        shadow = self._shadow.get(key)
        if shadow is not None and qp.state is not shadow:
            # Report once per out-of-band change, then resync so collect
            # mode doesn't repeat the same finding at every later hook.
            self._shadow[key] = qp.state
            self._report(
                "PROTO103",
                f"QP {key} state changed outside modify(): monitor saw "
                f"{shadow.value}, QP is in {qp.state.value}",
            )
        if not 0 <= qp.sq_outstanding <= qp.sq_depth:
            self._report(
                "PROTO107",
                f"QP {key} sq_outstanding={qp.sq_outstanding} outside "
                f"[0, {qp.sq_depth}]",
            )

    # -- registration ------------------------------------------------------------

    def register_qp(self, host_id: int, qp: QueuePair) -> None:
        key = (host_id, qp.qpn)
        self._qps[key] = qp
        self._qp_key[id(qp)] = key
        self._cq_host[id(qp.send_cq)] = host_id
        self._cq_host[id(qp.recv_cq)] = host_id
        self._shadow[key] = qp.state
        self._expected[key] = qp.expected_psn
        self._send_live[key] = {}
        self._recv_live[key] = {}

    # -- posting hooks -----------------------------------------------------------

    def on_post_send(self, qp: QueuePair, wr: SendWR, psn: int) -> None:
        self._check_qp(qp)
        key = self._key(qp)
        if key is not None:
            self._send_live[key].setdefault(wr.wr_id, []).append(
                bool(wr.signaled)
            )

    def on_post_recv(self, qp: QueuePair, wr: RecvWR) -> None:
        key = self._key(qp)
        if key is not None:
            live = self._recv_live[key]
            live[wr.wr_id] = live.get(wr.wr_id, 0) + 1

    # -- state machine -----------------------------------------------------------

    def on_qp_transition(
        self, qp: QueuePair, old: QPState, new: QPState
    ) -> None:
        key = self._key(qp)
        if key is None:
            return
        shadow = self._shadow.get(key)
        if shadow is not None and old is not shadow:
            self._report(
                "PROTO103",
                f"QP {key} transition {old.value} -> {new.value} but the "
                f"monitor last saw {shadow.value}: a state write bypassed "
                "modify()",
            )
        if new not in _VALID_TRANSITIONS[old]:
            self._report(
                "PROTO103",
                f"QP {key} illegal transition {old.value} -> {new.value}",
            )
        self._shadow[key] = new
        if new is QPState.ERROR:
            # The flush contract: recvs first, then sends in SQ order —
            # i.e. by circular distance from the next-unassigned sq_psn.
            base = qp.sq_psn
            self._flush_due[key] = [
                wr.wr_id for _psn, wr in sorted(
                    qp.outstanding.items(),
                    key=lambda kv: Psn.delta(kv[0], base),
                )
            ]
            self._flush_done[key] = 0
        elif new is QPState.RESET:
            # RESET discards silently (no CQEs) and zeroes the PSN space:
            # mirror the model so stale expectations don't misfire later.
            self._send_live[key] = {}
            self._recv_live[key] = {}
            self._flush_due.pop(key, None)
            self._flush_done.pop(key, None)
            self._expected[key] = 0

    # -- responder discipline ----------------------------------------------------

    def on_responder_update(self, qp: QueuePair) -> None:
        self._check_qp(qp)
        key = self._key(qp)
        if key is None:
            return
        prev = self._expected.get(key)
        new = qp.expected_psn
        if prev is not None and Psn.cmp(new, prev) < 0:
            self._report(
                "PROTO102",
                f"QP {key} expected_psn rewound: {prev} -> {new}",
            )
        self._expected[key] = new

    def on_ack_sent(self, qp: QueuePair, ack: WireMessage) -> None:
        self._check_qp(qp)
        key = self._key(qp)
        if key is None or ack.kind != "ack":
            return
        if Psn.cmp(ack.psn, qp.expected_psn) >= 0:
            self._report(
                "PROTO102",
                f"QP {key} sent a positive ACK for PSN {ack.psn} but has "
                f"only accepted up to {qp.expected_psn} (exclusive)",
            )

    # -- recovery ----------------------------------------------------------------

    def on_retransmit(self, qp: QueuePair, psn: int, retries: int) -> None:
        self._check_qp(qp)
        key = self._key(qp)
        bound = max(qp.retry_cnt, qp.rnr_retries)
        if retries > bound:
            self._report(
                "PROTO105",
                f"QP {key} PSN {psn} retransmitted {retries} times, bound "
                f"is max(retry_cnt={qp.retry_cnt}, "
                f"rnr_retries={qp.rnr_retries}) = {bound}",
            )

    def on_atomic_response(self, qp: QueuePair, psn: int, value: int) -> None:
        key = self._key(qp)
        if key is None:
            return
        vkey = (key, psn)
        prev = self._atomic_vals.get(vkey)
        if prev is None:
            self._atomic_vals[vkey] = value
        elif prev != value:
            self._report(
                "PROTO106",
                f"QP {key} atomic PSN {psn} replayed with value {value}, "
                f"original response was {prev}: the RMW re-executed",
            )

    # -- completions -------------------------------------------------------------

    def on_cqe(self, cq: "CompletionQueue", cqe: CQE) -> None:
        host = self._cq_host.get(id(cq))
        if host is None:
            return  # CQ outside any registered QP (raw unit-test rigs)
        key = (host, cqe.qp_num)
        qp = self._qps.get(key)
        if qp is None:
            return
        self._check_qp(qp)
        sends = self._send_live[key]
        recvs = self._recv_live[key]
        is_send = cq is qp.send_cq
        is_recv = cq is qp.recv_cq
        if is_send and is_recv:
            # Shared CQ: disambiguate by live membership.
            is_send = cqe.wr_id in sends and bool(sends[cqe.wr_id])
            is_recv = not is_send
        if is_send:
            self._on_send_cqe(key, qp, cqe, sends)
        else:
            self._on_recv_cqe(key, qp, cqe, recvs)

    def _on_send_cqe(
        self, key: QpKey, qp: QueuePair, cqe: CQE, sends: dict[int, list[bool]]
    ) -> None:
        if cqe.status is WCStatus.WR_FLUSH_ERR:
            if self._shadow.get(key) is not QPState.ERROR:
                self._report(
                    "PROTO104",
                    f"QP {key} flush CQE for send wr_id={cqe.wr_id} while "
                    f"not in ERROR (state "
                    f"{self._shadow.get(key, QPState.RESET).value})",
                )
            due = self._flush_due.get(key)
            if due:
                if cqe.wr_id == due[0]:
                    due.pop(0)
                    self._flush_done[key] = self._flush_done.get(key, 0) + 1
                elif cqe.wr_id in due:
                    self._report(
                        "PROTO104",
                        f"QP {key} send flush out of SQ order: got "
                        f"wr_id={cqe.wr_id}, expected wr_id={due[0]}",
                    )
                    due.remove(cqe.wr_id)
                    self._flush_done[key] = self._flush_done.get(key, 0) + 1
                # A flush CQE not in the snapshot is a straggler WQE that
                # was still in the TX pipeline at the transition: legal.
        stack = sends.get(cqe.wr_id)
        if not stack:
            self._report(
                "PROTO101",
                f"QP {key} send CQE for wr_id={cqe.wr_id} "
                f"({cqe.status.value}) but no such send is in flight "
                "(never posted, or already completed)",
            )
            return
        signaled = stack.pop(0)
        if not stack:
            del sends[cqe.wr_id]
        if cqe.status is WCStatus.SUCCESS and not signaled:
            self._report(
                "PROTO101",
                f"QP {key} success CQE for unsignaled send "
                f"wr_id={cqe.wr_id}",
            )

    def _on_recv_cqe(
        self, key: QpKey, qp: QueuePair, cqe: CQE, recvs: dict[int, int]
    ) -> None:
        if cqe.status is WCStatus.WR_FLUSH_ERR:
            if self._shadow.get(key) is not QPState.ERROR:
                self._report(
                    "PROTO104",
                    f"QP {key} flush CQE for recv wr_id={cqe.wr_id} while "
                    "not in ERROR",
                )
            if self._flush_done.get(key, 0) > 0:
                self._report(
                    "PROTO104",
                    f"QP {key} recv wr_id={cqe.wr_id} flushed after send "
                    "flushes began: recvs must flush first",
                )
        n = recvs.get(cqe.wr_id, 0)
        if n > 0:
            if n == 1:
                del recvs[cqe.wr_id]
            else:
                recvs[cqe.wr_id] = n - 1
            return
        self._report(
            "PROTO101",
            f"QP {key} recv CQE for wr_id={cqe.wr_id} ({cqe.status.value}) "
            "but no such recv is posted (double or phantom completion)",
        )

    # -- end-of-run accounting ---------------------------------------------------

    def finalize(self) -> None:
        """End-of-run liveness checks: call once the simulation is idle.

        Anything *signaled* still pending is a lost completion; anything
        snapshotted at an ERROR transition that never flushed is a flush
        contract breach.  (Un-signaled sends and idle posted recvs on a
        healthy QP are legitimately allowed to sit forever.)
        """
        for key, qp in sorted(self._qps.items()):
            self._check_qp(qp)
            pending = sorted(
                wr_id for wr_id, stack in self._send_live[key].items()
                if any(stack)
            )
            if pending:
                self._report(
                    "PROTO101",
                    f"QP {key} signaled sends never completed: "
                    f"wr_ids={pending}",
                )
            due = self._flush_due.get(key)
            if due:
                self._report(
                    "PROTO104",
                    f"QP {key} entered ERROR but {len(due)} outstanding "
                    f"sends never flushed: wr_ids={sorted(due)}",
                )
            if self._shadow.get(key) is QPState.ERROR and self._recv_live[key]:
                self._report(
                    "PROTO104",
                    f"QP {key} in ERROR with unflushed recvs: "
                    f"wr_ids={sorted(self._recv_live[key])}",
                )
