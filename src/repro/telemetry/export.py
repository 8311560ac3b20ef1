"""Exporters: Chrome trace-event JSON (Perfetto), JSONL, metrics snapshots.

Chrome format reference: the Trace Event Format's ``traceEvents`` array.
Spans become complete (``"X"``) events — one per stage — on per-host
process tracks with per-component threads, so a message's life renders as
a causally ordered staircase across ``host0`` and ``host1`` tracks in
Perfetto (https://ui.perfetto.dev).  Every ``note`` record — a protocol
event such as a retransmit or a fault drop, with or without a span —
becomes an instant (``"i"``) event on its host's track.  Timestamps are microseconds (the
format's unit); simulated nanoseconds divide by 1e3.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Iterable, Optional, Union

from repro.sim.trace import Trace, TraceRecord
from repro.telemetry.spans import OpSpan, build_spans

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.host import Host
    from repro.sim.engine import Simulator

#: tid assigned to component tracks, in a stable render order.
_COMP_ORDER = ("driver", "app", "nic.tx", "wire", "nic.rx", "cq", "trace")


def _pid(host: object, pids: dict[object, int]) -> int:
    pid = pids.get(host)
    if pid is None:
        pid = pids[host] = len(pids) + 1
    return pid


def _tid(comp: str) -> int:
    try:
        return _COMP_ORDER.index(comp) + 1
    except ValueError:
        return len(_COMP_ORDER) + 1


def chrome_trace(
    trace: Union[Trace, Iterable[TraceRecord]],
    spans: Optional[list[OpSpan]] = None,
) -> dict[str, object]:
    """Build a Perfetto-loadable trace-event document.

    ``spans`` defaults to :func:`build_spans` over ``trace``; pass a
    pre-filtered list to export a subset (e.g. one operation).
    """
    if spans is None:
        spans = build_spans(trace)
    events: list[dict[str, object]] = []
    pids: dict[object, int] = {}

    for span in spans:
        for stage in span.stages():
            events.append({
                "name": stage.name,
                "cat": f"span.{span.op}",
                "ph": "X",
                "ts": stage.start_ns / 1e3,
                "dur": stage.duration_ns / 1e3,
                "pid": _pid(stage.host, pids),
                "tid": _tid(stage.comp),
                "args": {
                    "span": span.span_id,
                    "op": span.op,
                    "dataplane": span.dataplane,
                    "qpn": span.qpn,
                    "wr_id": span.wr_id,
                    "size": span.size,
                },
            })

    for rec in trace:
        if rec.event != "note":
            continue
        fields = dict(rec.fields)
        host = fields.pop("host", "?")
        events.append({
            "name": fields.pop("name", "?"),
            "cat": "note",
            "ph": "i",
            "s": "t",
            "ts": rec.time / 1e3,
            "pid": _pid(host, pids),
            "tid": _tid("trace"),
            "args": fields,
        })

    # Metadata: name the process/thread tracks.
    for host, pid in sorted(pids.items(), key=lambda kv: kv[1]):
        events.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": f"host{host}"},
        })
        for comp in _COMP_ORDER:
            events.append({
                "name": "thread_name", "ph": "M", "pid": pid,
                "tid": _tid(comp), "args": {"name": comp},
            })
    return {"traceEvents": events, "displayTimeUnit": "ns"}


# -- folded stacks (FlameGraph / speedscope) ----------------------------------


def folded_stacks(
    trace: Union[Trace, Iterable[TraceRecord], None] = None,
    blames: Optional[list] = None,
    op: Optional[str] = None,
) -> list[str]:
    """Render attribution as folded stacks with simulated-ns weights.

    One line per unique frame stack, ``frame;frame;... <weight>``, the
    format ``flamegraph.pl`` and speedscope ingest directly.  Frames are
    ``op → dataplane → host → component → stage → queue|service`` so the
    flame width at any level answers "where did the nanoseconds go" at
    that granularity, and the queue/service leaf split shows contention
    vs work.

    Pass either a trace (spans are built and attributed here) or
    pre-computed ``blames`` from
    :func:`repro.telemetry.attribution.attribute_spans`.
    """
    from repro.telemetry.attribution import attribute_spans

    if blames is None:
        if trace is None:
            raise ValueError("folded_stacks needs a trace or blames")
        blames = attribute_spans(build_spans(trace, op=op))
    weights: dict[str, int] = {}
    for blame in blames:
        prefix = f"{blame.op};{blame.dataplane};host{blame.host}"
        for stage in blame.stages:
            frame = f"{prefix};{stage.comp};{stage.name}"
            for leaf, ns in (("queue", stage.queue_ns),
                             ("service", stage.service_ns)):
                ins = int(round(ns))
                if ins > 0:
                    key = f"{frame};{leaf}"
                    weights[key] = weights.get(key, 0) + ins
    return [f"{key} {weight}" for key, weight in sorted(weights.items())]


# -- JSONL --------------------------------------------------------------------


def jsonl_lines(trace: Union[Trace, Iterable[TraceRecord]]) -> Iterable[str]:
    """One JSON object per trace record (streaming-friendly)."""
    for rec in trace:
        yield json.dumps(rec.asdict(), default=str, sort_keys=True)


def records_from_jsonl(lines: Iterable[str]) -> list[TraceRecord]:
    """Inverse of :func:`jsonl_lines` (modulo non-JSON field types)."""
    out = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        obj = json.loads(line)
        time = obj.pop("time")
        event = obj.pop("event")
        out.append(TraceRecord(time, event, tuple(sorted(obj.items()))))
    return out


# -- metrics snapshot ---------------------------------------------------------


def _core_stats(host: "Host") -> list[dict[str, object]]:
    return [
        {
            "name": core.name,
            "busy_ns": core.busy_ns,
            "syscalls": core.syscalls,
        }
        for core in host.cpus.cores
    ]


def metrics_snapshot(
    sim: "Simulator",
    hosts: Iterable["Host"] = (),
    flows: Optional[list[dict[str, object]]] = None,
) -> dict[str, object]:
    """JSON-ready metrics dump: live registry scopes + pulled device state.

    The registry half (``scopes``) holds what instrumented sites pushed
    while ``sim.trace`` was enabled; the pulled half reads each host's
    always-on counters (NIC, cores, IRQs, and per-QP DCQCN limiters when
    congestion control is on) and each distinct fabric's
    :meth:`~repro.cluster.fabric.Fabric.snapshot`, so every count has one
    source and the snapshot is complete for untraced runs.
    """
    out: dict[str, object] = {
        "time_ns": sim.now,
        "trace": {
            "enabled": sim.trace.enabled,
            "records": len(sim.trace),
            "dropped": sim.trace.dropped,
            "max_records": sim.trace.max_records,
        },
        "scopes": {name: sim.trace.scopes[name].snapshot()
                   for name in sorted(sim.trace.scopes)},
    }
    host_state: dict[str, object] = {}
    fabrics: dict[str, object] = {}
    for host in hosts:
        nic = host.nic
        state = host_state[host.name] = {
            "nic": nic.counters.snapshot(),
            "cores": _core_stats(host),
            "irqs_delivered": host.kernel.irq.delivered,
        }
        if nic.cc is not None:
            state["limiters"] = {
                str(qpn): lim.snapshot()
                for qpn, lim in sorted(nic._limiters.items())
            }
        fabric = host.fabric
        if fabric is not None and fabric.name not in fabrics:
            fabrics[fabric.name] = fabric.snapshot()
    if host_state:
        out["hosts"] = host_state
    if fabrics:
        out["fabrics"] = fabrics
    if flows is not None:
        out["flows"] = flows
    return out
