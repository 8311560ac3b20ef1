"""Canonical state fingerprints for explicit-state exploration.

The explorer dedups schedules by hashing the *protocol-relevant* state at
each choice point: two schedules that reach the same fingerprint have the
same default continuation and the same set of untaken siblings, so one of
them can be pruned.  A fingerprint folds together:

- per-QP protocol state (state machine, PSN space, outstanding/reorder/
  replay-cache windows, occupancy, retry counts — epochs and other
  monotone allocators are deliberately excluded, they never recur);
- CQ contents and arming;
- the pending event heap in *relative* time (``t - now``), tagged by the
  stable :func:`~repro.sanitize.runtime._describe_event` labels — the
  positional order of equal-key records preserves the FIFO tie order that
  decides default dispatch;
- every registered component state provider (NIC queue depths, switch
  ports), the RNG stream positions, fabric port occupancy and the
  remaining fault budget.

Suspended generators are not hashed (neither their locals nor their
resume point); for the small closed scenarios the explorer drives, both
are a function of the fingerprinted component state and the record tags,
so this is exact in practice — and dedup can be disabled outright
(``Explorer(dedup=False)``) to fall back to pure schedule enumeration.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

from repro.sanitize.runtime import _describe_event
from repro.verbs.qp import QueuePair

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.fabric import Fabric
    from repro.sim.engine import Simulator
    from repro.verbs.cq import CompletionQueue
    from repro.verify.choice import ChoiceFaultInjector


def qp_signature(qp: QueuePair) -> tuple:
    """Protocol-relevant QP state (no monotone counters, no epochs)."""
    return (
        qp.qpn,
        qp.state.value,
        qp.sq_psn,
        qp.expected_psn,
        qp.sq_outstanding,
        tuple(sorted((psn, wr.wr_id) for psn, wr in qp.outstanding.items())),
        tuple(sorted(qp.reorder)),
        tuple(sorted(qp.atomic_cache.items())),
        tuple(sorted(qp.retx_retries.items())),
        tuple(sorted(qp.retx_epoch)),  # which PSNs have an armed timer
        tuple(wr.wr_id for wr in qp.rq),
    )


def cq_signature(cq: "CompletionQueue") -> tuple:
    return (
        cq.name,
        cq.armed,
        tuple((e.wr_id, e.status.value, e.qp_num) for e in cq.entries),
    )


def queue_signature(sim: "Simulator") -> tuple:
    """Pending heap in relative time with stable event tags.

    Sorting by the full ``(t, prio, seq)`` key then *dropping* ``seq``
    keeps the FIFO order of ties as positional order while erasing the
    monotone sequence numbers that would keep any state from recurring.
    """
    now = sim.now
    return tuple((when - now, prio, _describe_event(fn, arg))
                 for when, prio, _seq, fn, arg in sorted(sim._queue))


def fabric_signature(fabric: Optional["Fabric"]) -> tuple:
    if fabric is None:
        return ()
    ports = tuple(
        (hid, len(res.users), len(res.queue))
        for hid, res in sorted(fabric._tx_ports.items())
    )
    rx = tuple(
        (hid, port.queued_bytes, len(port.resource.users),
         len(port.resource.queue))
        for hid, port in sorted(fabric._rx_ports.items())
    )
    return (ports, rx)


def fingerprint(
    sim: "Simulator",
    qps: Iterable[QueuePair] = (),
    cqs: Iterable["CompletionQueue"] = (),
    fabric: Optional["Fabric"] = None,
    injector: Optional["ChoiceFaultInjector"] = None,
) -> tuple:
    """One hashable canonical state; see the module docstring."""
    return (
        tuple(qp_signature(qp) for qp in qps),
        tuple(cq_signature(cq) for cq in cqs),
        queue_signature(sim),
        sim.component_state(),
        sim.rng.stream_states(),
        fabric_signature(fabric),
        injector.budget if injector is not None else -1,
    )
