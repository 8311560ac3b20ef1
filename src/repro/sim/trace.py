"""Structured tracing and the push metrics that ride on it.

Tracing exists for two consumers: tests (assert that a component emitted
the expected sequence of records) and :mod:`repro.telemetry`, which folds
the records into op spans for attribution, timelines and Perfetto/JSONL
export.  The trace also holds the per-host push-metric registries
(:meth:`Trace.scope`), so ``trace.enabled`` is the one observation
switch: it is off by default, and each instrumented site pays a single
branch when it is off.

Retention is bounded by ``max_records``: a ring buffer keeps the newest
records and counts what it evicted (``dropped``); ``max_records=0``
retains nothing.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.telemetry.metrics import MetricsRegistry


@dataclass(frozen=True)
class TraceRecord:
    """One traced happening."""

    time: float
    event: str
    fields: tuple[tuple[str, object], ...] = ()

    def get(self, key: str, default: object = None) -> object:
        for name, value in self.fields:
            if name == key:
                return value
        return default

    def asdict(self) -> dict[str, object]:
        out: dict[str, object] = {"time": self.time, "event": self.event}
        out.update(dict(self.fields))
        return out


class Trace:
    """An append-only trace with bounded retention, plus metric scopes."""

    __slots__ = ("enabled", "max_records", "records", "dropped", "scopes",
                 "_span_seq")

    def __init__(self, enabled: bool = True,
                 max_records: Optional[int] = None):
        self.enabled = enabled
        #: Retention cap: None = unbounded, 0 = keep nothing, N = ring
        #: buffer of the newest N.
        self.max_records = max_records
        self.records: deque[TraceRecord] = deque(maxlen=max_records)
        #: Records evicted by the ring buffer (or never retained at cap 0).
        self.dropped = 0
        #: Push-metric registries by scope name ("host0", ...), created on
        #: first use by :meth:`scope`.
        self.scopes: dict[str, "MetricsRegistry"] = {}
        # Span-id allocator for repro.telemetry op spans.  Lives here so
        # span instrumentation rides the same enabled gate as emit().
        self._span_seq = 0

    def emit(self, time: float, event: str, **fields: object) -> None:
        """Record an event if tracing is on."""
        if not self.enabled:
            return
        records = self.records
        if records.maxlen is not None and len(records) == records.maxlen:
            self.dropped += 1
        records.append(TraceRecord(time, event, tuple(sorted(fields.items()))))

    def new_span(self) -> int:
        """Allocate the next op-span id (see :mod:`repro.telemetry.spans`)."""
        self._span_seq += 1
        return self._span_seq

    def scope(self, name: str) -> "MetricsRegistry":
        """The push-metric registry of scope ``name``.  Sites call it only
        under ``if trace.enabled:``; metrics never feed back into the
        simulation."""
        reg = self.scopes.get(name)
        if reg is None:
            # Deferred: importing repro.telemetry imports this module.
            from repro.telemetry.metrics import MetricsRegistry

            reg = self.scopes[name] = MetricsRegistry(name)
        return reg

    def select(self, event: Optional[str] = None) -> list[TraceRecord]:
        """Records with the given event name (all records for None)."""
        return [r for r in self.records if event is None or r.event == event]

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)

    def clear(self) -> None:
        """Forget every record, the drop count and every metric scope."""
        self.records.clear()
        self.dropped = 0
        self.scopes.clear()
