"""Storage flavours of the CoRD policies.

They are :class:`repro.core.policy.Policy` subclasses run by the same
:class:`~repro.core.policy.PolicyChain` (evaluate -> extra kernel ns or
deny), inspecting IO commands instead of work requests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.policy import Policy
from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.device import IoCommand

IO_CHECK_NS = 30.0


@dataclass
class IoOpContext:
    """What a storage policy may inspect.  It names no host, so the chain
    keeps no ``policy.eval_ns`` telemetry for it."""

    now: float
    op: str  # "submit" | "poll"
    cmd: "IoCommand | None" = None
    tenant: str = "default"


class IoRateLimit(Policy):
    """Token bucket over IO bytes per tenant (storage QoS)."""

    name = "storage.rate_limit"

    def __init__(self, rate_bytes_per_s: float, burst_bytes: int):
        super().__init__()
        if rate_bytes_per_s <= 0 or burst_bytes <= 0:
            raise ConfigError("rate and burst must be positive")
        self.rate_per_ns = rate_bytes_per_s / 1e9
        self.burst = float(burst_bytes)
        self._buckets: dict[str, tuple[float, float]] = {}

    def _evaluate(self, ctx: IoOpContext) -> float:
        if ctx.op != "submit" or ctx.cmd is None:
            return IO_CHECK_NS
        tokens, last = self._buckets.get(ctx.tenant, (self.burst, ctx.now))
        tokens = min(self.burst, tokens + (ctx.now - last) * self.rate_per_ns)
        if ctx.cmd.nbytes > tokens:
            self._buckets[ctx.tenant] = (tokens, ctx.now)
            raise self.deny(f"tenant {ctx.tenant!r} over IO rate")
        self._buckets[ctx.tenant] = (tokens - ctx.cmd.nbytes, ctx.now)
        return IO_CHECK_NS


class IoStats(Policy):
    """Per-tenant IO accounting (observability)."""

    name = "storage.stats"

    def __init__(self) -> None:
        super().__init__()
        self.per_tenant: dict[str, dict[str, int]] = {}

    def _evaluate(self, ctx: IoOpContext) -> float:
        rec = self.per_tenant.setdefault(
            ctx.tenant, {"submits": 0, "polls": 0, "bytes": 0, "reads": 0, "writes": 0}
        )
        if ctx.op == "submit" and ctx.cmd is not None:
            rec["submits"] += 1
            rec["bytes"] += ctx.cmd.nbytes
            rec["reads" if ctx.cmd.op == "read" else "writes"] += 1
        else:
            rec["polls"] += 1
        return IO_CHECK_NS * 0.7
