"""CoRD policy framework.

CoRD's reason to exist: once the dataplane crosses the kernel, the OS can
interpose policies on every operation.  The paper constrains them to be
*lightweight and non-blocking* (§3) — a policy may account, permit, or deny
(the application sees an EAGAIN-style rejection and may retry), but it must
never sleep on the dataplane.

A policy returns its extra kernel cost in nanoseconds; a
:class:`~repro.errors.PolicyViolation` denies the operation.  Costs and
verdicts are evaluated inside the CoRD syscall, so denied operations still
pay the user-kernel round trip (as they would in a real implementation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional

from repro.errors import PolicyViolation

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.host import Host
    from repro.verbs.cq import CompletionQueue
    from repro.verbs.qp import QueuePair
    from repro.verbs.wr import RecvWR, SendWR


@dataclass
class OpContext:
    """Everything a policy may inspect about one dataplane operation."""

    now: float
    host: "Host"
    op: str  # "post_send" | "post_recv" | "poll_cq"
    qp: Optional["QueuePair"] = None
    send_wr: Optional["SendWR"] = None
    recv_wr: Optional["RecvWR"] = None
    cq: Optional["CompletionQueue"] = None
    #: Tenant/cgroup label for isolation policies (set by the dataplane).
    tenant: str = "default"


class Policy:
    """Base policy: permit everything, cost nothing, count operations."""

    name = "policy"

    def __init__(self) -> None:
        self.evaluations = 0
        self.denials = 0

    def evaluate(self, ctx: OpContext) -> float:
        """Apply the policy; returns extra kernel ns, raises to deny."""
        self.evaluations += 1
        try:
            return self._evaluate(ctx)
        except PolicyViolation:
            self.denials += 1
            raise

    def _evaluate(self, ctx: OpContext) -> float:
        return 0.0

    def deny(self, reason: str) -> PolicyViolation:
        """Helper for subclasses: build the violation to raise."""
        return PolicyViolation(self.name, reason)


class PolicyChain:
    """Ordered policies evaluated on every CoRD dataplane operation
    (RDMA or storage)."""

    def __init__(self, policies: Iterable[Policy] = ()):
        self.policies: list[Policy] = list(policies)

    def add(self, policy: Policy) -> "PolicyChain":
        self.policies.append(policy)
        return self

    def evaluate(self, ctx: OpContext) -> float:
        """Total extra kernel cost; raises on the first denial.

        Denial short-circuits: later policies do not run (and do not
        charge), matching an in-kernel early return.
        """
        total = 0.0
        counter = None
        host = getattr(ctx, "host", None)  # storage contexts name no host
        if host is not None and host.sim.trace.enabled:
            counter = host.sim.trace.scope(host.name).counter("policy.eval_ns")
        for policy in self.policies:
            cost = policy.evaluate(ctx)
            if counter is not None:
                counter.inc(cost, key=policy.name)
            total += cost
        return total

    def __len__(self) -> int:
        return len(self.policies)

    def __iter__(self):
        return iter(self.policies)
