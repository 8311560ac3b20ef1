"""Per-op timelines rebuilt from op spans.

Enable tracing (``Simulator(trace=Trace(enabled=True))``), run traffic,
fold the trace with :func:`repro.telemetry.build_spans`, then render
where each nanosecond went — one header per op, then its stage marks and
protocol notes, relative to the op's post::

    post_send  BP  qpn=65 wr=0 1024 B  at 1747.160 us
      t+   0.000 us  host0  post          driver
      t+   0.250 us  host0  doorbell      nic.tx
      t+   0.355 us  host0  wqe_fetch     nic.tx
      t+   0.975 us  host0  tx_wire       wire
      t+   1.086 us  host0  tx_done       wire
      ...
      t+ 101.086 us  host0  !ack_timeout  psn=0  qpn=65
      t+ 101.191 us  host0  wqe_fetch     nic.tx
      t+ 101.811 us  host0  !retransmit   psn=0  qpn=65  retries=1
      t+ 101.811 us  host0  tx_wire       wire

Per-stage durations are ``OpSpan.stage_durations()``; one op kind is
``build_spans(trace, op=...)``.  This doubles as the debugging story for
the simulator itself and as the "what would an OS see" demo for
CoRD-style observability.
"""

from __future__ import annotations

from repro.telemetry.spans import OpSpan

_NOTE_SKIP = ("host", "name", "span")


def format_timeline(spans: list[OpSpan]) -> str:
    """Human-readable rendering of each op's marks and notes in time order.

    A note shares its instant with the mark emitted right after it (a
    retransmit with its ``tx_wire``), so notes sort ahead of marks on ties.
    """
    if not spans:
        return "(no trace records — is tracing enabled?)"
    lines = []
    for span in spans:
        lines.append(f"{span.op}  {span.dataplane}  qpn={span.qpn} "
                     f"wr={span.wr_id} {span.size} B  "
                     f"at {span.begin_ns / 1000:.3f} us")
        rows = [(span.begin_ns, span.host, "post", "driver")]
        rows += [
            (note.time, note.get("host", "?"), f"!{note.get('name', '?')}",
             "  ".join(f"{k}={v}" for k, v in note.fields
                       if k not in _NOTE_SKIP))
            for note in span.notes
        ]
        rows += [(m.time, m.host, m.stage, m.comp) for m in span.marks]
        rows.sort(key=lambda row: row[0])  # stable: post, notes, marks
        for time, host, what, detail in rows:
            lines.append(f"  t+{(time - span.begin_ns) / 1000:8.3f} us  "
                         f"host{host}  {what:<13} {detail}")
    return "\n".join(lines)
