"""Structured tracing.

Tracing exists for two consumers: tests (assert that a component emitted
the expected sequence of records) and :mod:`repro.telemetry`, which folds
the ``"span"`` records into op spans for attribution, timelines and
Perfetto/JSONL export.  The trace is disabled by default and costs a
single branch per call site when off.

Retention is bounded by ``max_records``: a ring buffer keeps the newest
records and counts what it evicted (``dropped``); ``max_records=0``
retains nothing.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterator, Optional


@dataclass(frozen=True)
class TraceRecord:
    """One traced happening."""

    time: float
    category: str
    event: str
    fields: tuple[tuple[str, object], ...] = ()

    def get(self, key: str, default: object = None) -> object:
        for name, value in self.fields:
            if name == key:
                return value
        return default

    def asdict(self) -> dict[str, object]:
        out: dict[str, object] = {
            "time": self.time,
            "category": self.category,
            "event": self.event,
        }
        out.update(dict(self.fields))
        return out


class Trace:
    """An append-only trace with bounded retention."""

    __slots__ = ("enabled", "max_records", "records", "dropped", "_span_seq")

    def __init__(self, enabled: bool = True,
                 max_records: Optional[int] = None):
        self.enabled = enabled
        #: Retention cap: None = unbounded, 0 = keep nothing, N = ring
        #: buffer of the newest N.
        self.max_records = max_records
        self.records: deque[TraceRecord] = deque(maxlen=max_records)
        #: Records evicted by the ring buffer (or never retained at cap 0).
        self.dropped = 0
        # Span-id allocator for repro.telemetry op spans.  Lives here so
        # span instrumentation rides the same enabled gate as emit().
        self._span_seq = 0

    def emit(self, time: float, category: str, event: str, **fields: object) -> None:
        """Record an event if tracing is on."""
        if not self.enabled:
            return
        records = self.records
        if records.maxlen is not None and len(records) == records.maxlen:
            self.dropped += 1
        records.append(TraceRecord(time, category, event,
                                   tuple(sorted(fields.items()))))

    def new_span(self) -> int:
        """Allocate the next op-span id (see :mod:`repro.telemetry.spans`)."""
        self._span_seq += 1
        return self._span_seq

    def select(self, category: Optional[str] = None, event: Optional[str] = None) -> list[TraceRecord]:
        """Records matching the given category and/or event name."""
        return [
            r
            for r in self.records
            if (category is None or r.category == category)
            and (event is None or r.event == event)
        ]

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)

    def clear(self) -> None:
        self.records.clear()
        self.dropped = 0
