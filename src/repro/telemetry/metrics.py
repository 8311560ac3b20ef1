"""Per-host push metrics: counters, log2 histograms, and the registry.

Push metrics cover what no component counts on its own: per-op and
per-policy tallies and occupancy distributions.  Counts a component
already keeps (NIC, core, fabric and limiter counters) are read at
snapshot time by :func:`repro.telemetry.export.metrics_snapshot` instead
of being counted twice.  The registries hang off the simulator's
:class:`~repro.sim.trace.Trace` (``trace.scope("host0")``), so they ride
the one observation switch, ``trace.enabled``::

    trace = self.sim.trace
    if trace.enabled:
        trace.scope("host0").counter("dataplane.ops").inc()

Sites pay exactly one branch when the trace is off, and when it is on
they only mutate plain Python numbers — metrics never create events,
consume simulated time, or touch an RNG stream, so enabling them cannot
change simulation results (see ``tests/test_golden_determinism.py``).

Scopes group metrics per host (``"host0"``, ``"host1"``...); a scope is a
:class:`MetricsRegistry` created lazily on first use and dropped by
``Trace.clear()``.
"""

from __future__ import annotations

from typing import Optional


class MetricCounter:
    """Monotonic counter: occurrence count plus a summed amount.

    ``amount`` is whatever the site measures — bytes for queue counters,
    nanoseconds for cost counters.  ``key`` splits the count by a label
    (opcode, policy name, eager/rndv...).
    """

    __slots__ = ("name", "count", "total", "by_key")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.by_key: dict[str, int] = {}

    def inc(self, amount: float = 0.0, key: Optional[str] = None) -> None:
        self.count += 1
        self.total += amount
        if key is not None:
            self.by_key[key] = self.by_key.get(key, 0) + 1

    def snapshot(self) -> dict[str, object]:
        out: dict[str, object] = {"count": self.count, "total": self.total}
        if self.by_key:
            out["by_key"] = dict(self.by_key)
        return out


class Log2Histogram:
    """log2-bucketed histogram: bucket ``i`` counts values in [2^i, 2^(i+1)).

    Values below 1 land in bucket 0 (there is no sub-unit resolution worth
    paying for on the hot path).  The same binning the observability
    policy's flow records use for message sizes.
    """

    __slots__ = ("name", "buckets", "count", "sum")

    def __init__(self, name: str):
        self.name = name
        self.buckets: dict[int, int] = {}
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        bucket = max(0, int(value).bit_length() - 1) if value >= 1 else 0
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1
        self.count += 1
        self.sum += value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Estimate the q-th percentile (0..100), interpolated in-bucket.

        Bucket ``i`` spans ``[2^i, 2^(i+1))`` (bucket 0 starts at 0, since
        sub-unit values all land there); the estimate assumes a uniform
        spread within the bucket, so the error is bounded by the bucket
        width — the usual log2-histogram trade.
        """
        if not 0 <= q <= 100:
            raise ValueError(f"percentile q must be in [0, 100], got {q}")
        if self.count == 0:
            return 0.0
        target = q / 100.0 * self.count
        cumulative = 0
        for bucket, n in sorted(self.buckets.items()):
            if cumulative + n >= target:
                lo = 0.0 if bucket == 0 else float(2 ** bucket)
                hi = float(2 ** (bucket + 1))
                # Fraction of this bucket's mass needed to reach the target.
                frac = (target - cumulative) / n
                return lo + frac * (hi - lo)
            cumulative += n
        # q == 100 rounding tail: top of the last bucket.
        last = max(self.buckets)
        return float(2 ** (last + 1))

    def snapshot(self) -> dict[str, object]:
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p99": self.percentile(99),
            "buckets": {str(k): v for k, v in sorted(self.buckets.items())},
        }


class MetricsRegistry:
    """One scope's (usually one host's) named metrics, created on demand."""

    __slots__ = ("scope", "counters", "histograms")

    def __init__(self, scope: str):
        self.scope = scope
        self.counters: dict[str, MetricCounter] = {}
        self.histograms: dict[str, Log2Histogram] = {}

    def counter(self, name: str) -> MetricCounter:
        c = self.counters.get(name)
        if c is None:
            c = self.counters[name] = MetricCounter(name)
        return c

    def histogram(self, name: str) -> Log2Histogram:
        h = self.histograms.get(name)
        if h is None:
            h = self.histograms[name] = Log2Histogram(name)
        return h

    def snapshot(self) -> dict[str, object]:
        return {
            "counters": {n: c.snapshot() for n, c in sorted(self.counters.items())},
            "histograms": {
                n: h.snapshot() for n, h in sorted(self.histograms.items())
            },
        }

