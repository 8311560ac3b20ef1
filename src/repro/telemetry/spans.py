"""Causal op spans reconstructed from trace records.

Instrumented layers write four record shapes into the simulator's
:class:`~repro.sim.trace.Trace`:

- ``op_begin`` — a dataplane entry point (``post_send``/``post_recv``)
  allocated a span id (``Trace.new_span``) and attached it to the WR;
- ``mark``     — a stage boundary somewhere downstream (NIC doorbell, WQE
  fetch, wire serialization, delivery, DMA, CQE write...).  The span id
  rides the :class:`~repro.verbs.wr.SendWR` → ``WireMessage`` → ``CQE``
  chain, so marks on *both* hosts correlate to the one operation;
- ``note``     — a protocol event with a ``name`` (``ack_timeout``,
  ``retransmit``, ``cnp_send``, ``cnp_recv``, ``ecn_mark``, ``rx_drop``,
  fault ``drop``) plus its detail fields.  ``span`` names the message's
  span where the site has one and is ``None`` otherwise (a CNP, an IPoIB
  segment, a fault drop);
- ``op_end``   — the application observed a completion for the span (its
  ``poll_cq`` returned the span's CQE).

:func:`build_spans` folds those records into :class:`OpSpan` objects whose
stages partition ``[begin, end]`` exactly: stage *i* runs from mark *i* to
mark *i+1*, so per-stage durations always sum to the span's total latency.
Notes ride along in :attr:`OpSpan.notes` and never create stages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Union

from repro.sim.trace import Trace, TraceRecord


@dataclass(frozen=True)
class SpanMark:
    """One causal milestone inside a span."""

    time: float
    stage: str
    host: object  # host id, or "?" when the layer has none
    comp: str  # component track: "driver", "nic.tx", "wire", "nic.rx", "cq", "app"


@dataclass
class SpanStage:
    """The interval between two consecutive marks, named by its start."""

    name: str
    start_ns: float
    end_ns: float
    host: object
    comp: str

    @property
    def duration_ns(self) -> float:
        return self.end_ns - self.start_ns


@dataclass
class OpSpan:
    """One dataplane operation's full lifecycle."""

    span_id: int
    op: str = "?"
    host: object = "?"
    dataplane: str = "?"
    qpn: int = -1
    wr_id: int = -1
    size: int = 0
    begin_ns: float = 0.0
    marks: list[SpanMark] = field(default_factory=list)
    #: The span's ``note`` records, in emission order (never stages).
    notes: list[TraceRecord] = field(default_factory=list)
    #: True once an op_end arrived (the app saw the completion).
    complete: bool = False

    @property
    def end_ns(self) -> float:
        return self.marks[-1].time if self.marks else self.begin_ns

    @property
    def duration_ns(self) -> float:
        return self.end_ns - self.begin_ns

    def stages(self) -> list[SpanStage]:
        """Consecutive-mark intervals; durations telescope to duration_ns."""
        out: list[SpanStage] = []
        prev = SpanMark(self.begin_ns, "post", self.host, "driver")
        for mark in self.marks:
            name = prev.stage
            n = 2
            existing = {s.name for s in out}
            while name in existing:  # repeats (e.g. two rx_arrive hops)
                name = f"{prev.stage}#{n}"
                n += 1
            out.append(SpanStage(name, prev.time, mark.time, prev.host, prev.comp))
            prev = mark
        return out

    def stage_durations(self) -> dict[str, float]:
        return {s.name: s.duration_ns for s in self.stages()}


def build_spans(
    source: Union[Trace, Iterable[TraceRecord]],
    op: Optional[str] = None,
) -> list[OpSpan]:
    """Fold span trace records into :class:`OpSpan` objects.

    ``source`` is a :class:`Trace` or any iterable of records (e.g. one
    read back with ``records_from_jsonl``).  Spans come back sorted by
    begin time; marks and notes are kept in emission (= causal, the trace
    is append-only) order.  Spans whose ``op_begin`` was evicted from a
    ring-buffered trace are skipped, as are notes with no span.
    """
    spans: dict[int, OpSpan] = {}
    for rec in source:
        span_id = rec.get("span")
        if span_id is None:
            continue
        if rec.event == "op_begin":
            spans[span_id] = OpSpan(
                span_id=span_id,
                op=str(rec.get("op", "?")),
                host=rec.get("host", "?"),
                dataplane=str(rec.get("dataplane", "?")),
                qpn=int(rec.get("qpn", -1)),
                wr_id=int(rec.get("wr_id", -1)),
                size=int(rec.get("size", 0)),
                begin_ns=rec.time,
            )
            continue
        span = spans.get(span_id)
        if span is None:
            continue  # begin fell off the ring buffer; partial span dropped
        if rec.event == "mark":
            span.marks.append(SpanMark(
                rec.time, str(rec.get("stage", "?")),
                rec.get("host", "?"), str(rec.get("comp", "?")),
            ))
        elif rec.event == "note":
            span.notes.append(rec)
        elif rec.event == "op_end":
            span.marks.append(SpanMark(
                rec.time, "completion", rec.get("host", "?"), "app",
            ))
            span.complete = True
    out = sorted(spans.values(), key=lambda s: (s.begin_ns, s.span_id))
    if op is not None:
        out = [s for s in out if s.op == op]
    return out
