"""Latency attribution: blame trees over causal op spans.

:func:`repro.telemetry.spans.build_spans` already yields per-op stage
intervals that partition ``[begin, end]`` exactly.  This module is the
*post-processing* layer on top (the hot path gains nothing — attribution
only ever reads a finished trace): it splits every stage's duration into

- **queueing** — time spent waiting behind other operations on the same
  serial server (the tx WQE engine, the rx engine, the source wire port)
  or, for a written-but-unreaped CQE, waiting for the application to poll;
- **service** — time the stage's component actually worked on this op.

The split needs no extra instrumentation because the contended components
are serial FIFO servers: within one server, sort all spans' stage
intervals by completion time, and an interval's service can only have
started when the server finished the previous interval.  Formally, for
intervals in end order::

    service_start = max(own_start, previous_interval_end)

which is exact for FIFO service and degenerates to queue = 0 when the
server was idle.  The previous interval is remembered as the stage's
*blocker*, which is what lets :mod:`repro.analysis.critpath` chase the
critical path across coupled ops (send_bw's windowed transmitter).

Because the simulation is bit-deterministic, the resulting per-stage
totals are exact: ``benchmarks/bench_attribution.py`` records them and
``tools/check_results.py`` regenerates the record byte for byte.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Iterable, Optional

from repro import stats
from repro.telemetry.spans import OpSpan

#: Stages whose opening component is a serial FIFO server: the interval is
#: queue-behind-earlier-ops plus service, split by the end-order sweep.
#: ``doorbell`` = the tx WQE engine (one WQE at a time, message-rate cap),
#: ``rx_arrive`` = the rx engine, ``tx_wire`` = the source port
#: (capacity-1 resource; serialization is FIFO per host), ``rx_port`` =
#: the destination's switch output queue + RX ingress port (emitted only
#: on a switched fabric; fan-in queueing lands here).
SERIAL_STAGES = frozenset({"doorbell", "rx_arrive", "tx_wire", "rx_port"})

#: Stages that are pure waiting: the CQE is in host memory, the op is done
#: at the device, and the clock runs until the application reaps it.  The
#: whole interval is queueing (behind the app's poll loop / other CQEs).
#: ``cc_pace`` is the DCQCN token-bucket pacing delay before WQE fetch
#: (emitted only when congestion control is on and the op was actually
#: held back): self-imposed waiting, not service.
WAIT_STAGES = frozenset({"cqe", "cc_pace"})


def base_stage(name: str) -> str:
    """Strip the ``#n`` repeat suffix ``OpSpan.stages()`` adds."""
    return name.split("#", 1)[0]


@dataclass
class StageBlame:
    """One stage of one op, with its queueing/service split."""

    name: str  # instance name, repeat suffix kept ("rx_arrive#2")
    host: object
    comp: str
    start_ns: float
    end_ns: float
    #: "serial" (FIFO server: sweep decides), "wait" (all queue),
    #: "service" (fixed-latency pipeline segment: all service).
    kind: str
    #: When service actually began (== start_ns unless queued).
    service_start_ns: float
    #: (span_id, stage name) whose service end gated ours, if queued
    #: behind another op on the same serial server.
    blocker: Optional[tuple[int, str]] = None

    @property
    def duration_ns(self) -> float:
        return self.end_ns - self.start_ns

    @property
    def queue_ns(self) -> float:
        return self.service_start_ns - self.start_ns

    @property
    def service_ns(self) -> float:
        return self.end_ns - self.service_start_ns


@dataclass
class OpBlame:
    """One operation's blame tree: its stages, split and accounted."""

    span_id: int
    op: str
    dataplane: str
    host: object
    size: int
    begin_ns: float
    end_ns: float
    complete: bool
    stages: list[StageBlame] = field(default_factory=list)

    @property
    def total_ns(self) -> float:
        return self.end_ns - self.begin_ns

    @property
    def explained_ns(self) -> float:
        return sum(s.duration_ns for s in self.stages)

    @property
    def residual_ns(self) -> float:
        """End-to-end time not covered by any named stage.

        Zero by construction for spans built from an untruncated trace
        (stages partition ``[begin, end]``); reported explicitly so a
        nonzero value is loud, never silent.
        """
        return self.total_ns - self.explained_ns

    @property
    def explained_fraction(self) -> float:
        if self.total_ns <= 0:
            return 1.0
        return self.explained_ns / self.total_ns

    def tree_lines(self) -> list[str]:
        """Human-readable blame tree for this one op."""
        head = (f"span {self.span_id}  {self.op}  {self.size} B  "
                f"{self.dataplane}  total {self.total_ns:.1f} ns"
                + ("" if self.complete else "  [incomplete]"))
        lines = [head]
        for i, s in enumerate(self.stages):
            branch = "└─" if i == len(self.stages) - 1 else "├─"
            parts = [f"service {s.service_ns:.1f}"]
            if s.queue_ns > 0:
                blocked = (f" behind span {s.blocker[0]}:{s.blocker[1]}"
                           if s.blocker else "")
                parts.insert(0, f"queue {s.queue_ns:.1f}{blocked}")
            lines.append(
                f"{branch} host{s.host}/{s.comp:<7s} {s.name:<12s} "
                f"{s.duration_ns:10.1f} ns  ({', '.join(parts)})"
            )
        lines.append(f"   residual {self.residual_ns:.1f} ns "
                     f"(explained {self.explained_fraction * 100:.1f}%)")
        return lines


def attribute_spans(
    spans: Iterable[OpSpan], complete_only: bool = True
) -> list[OpBlame]:
    """Split every span's stages into queueing vs service.

    Incomplete spans (no ``op_end``; e.g. unsignaled one-sided WRs the
    application never reaps) are skipped unless ``complete_only=False`` —
    their extent ends at the last causal mark, not at an app observation,
    so mixing them into per-op latency aggregates would skew the tables.
    """
    blames: list[OpBlame] = []
    for span in spans:
        if complete_only and not span.complete:
            continue
        stages: list[StageBlame] = []
        for s in span.stages():
            base = base_stage(s.name)
            if base in SERIAL_STAGES:
                kind = "serial"
                svc_start = s.start_ns  # sweep below may push it later
            elif base in WAIT_STAGES:
                kind = "wait"
                svc_start = s.end_ns  # all queue: device done, app not yet
            else:
                kind = "service"
                svc_start = s.start_ns
            stages.append(StageBlame(
                name=s.name, host=s.host, comp=s.comp,
                start_ns=s.start_ns, end_ns=s.end_ns,
                kind=kind, service_start_ns=svc_start,
            ))
        blames.append(OpBlame(
            span_id=span.span_id, op=span.op, dataplane=span.dataplane,
            host=span.host, size=span.size, begin_ns=span.begin_ns,
            end_ns=span.end_ns, complete=span.complete, stages=stages,
        ))

    # The serial-server sweep: group same-server stage intervals across
    # ops, sort by end time, and gate each service start on the previous
    # end.  ``sorted`` keys include the span id so ties break
    # deterministically.
    groups: dict[tuple, list[tuple[StageBlame, int]]] = {}
    for blame in blames:
        for stage in blame.stages:
            if stage.kind == "serial":
                key = (str(stage.host), stage.comp, base_stage(stage.name))
                groups.setdefault(key, []).append((stage, blame.span_id))
    for items in groups.values():
        items.sort(key=lambda it: (it[0].end_ns, it[1]))
        prev_end = float("-inf")
        prev_ref: Optional[tuple[int, str]] = None
        for stage, span_id in items:
            if prev_end > stage.start_ns:
                # Queued behind the previous occupant.  Clamp at the stage
                # end (out-of-FIFO anomalies, e.g. PSN reorder holds under
                # faults, become all-queue rather than negative service).
                stage.service_start_ns = min(prev_end, stage.end_ns)
                stage.blocker = prev_ref
            prev_end = stage.end_ns
            prev_ref = (span_id, stage.name)
    return blames


# -- aggregation ---------------------------------------------------------------


@dataclass
class StageStats:
    """One stage's aggregate across the ops of a measurement."""

    name: str
    count: int = 0
    total_ns: float = 0.0
    queue_ns: float = 0.0
    service_ns: float = 0.0
    durations: list[float] = field(default_factory=list, repr=False)

    @property
    def mean_ns(self) -> float:
        return self.total_ns / self.count if self.count else 0.0

    @property
    def p50_ns(self) -> float:
        return stats.percentile(self.durations, 50) if self.durations else 0.0

    @property
    def p99_ns(self) -> float:
        return stats.percentile(self.durations, 99) if self.durations else 0.0

    def snapshot(self) -> dict[str, object]:
        return {
            "count": self.count,
            "total_ns": self.total_ns,
            "queue_ns": self.queue_ns,
            "service_ns": self.service_ns,
            "mean_ns": self.mean_ns,
            "p50_ns": self.p50_ns,
            "p99_ns": self.p99_ns,
        }


@dataclass
class AttributionTable:
    """Per-stage aggregate attribution for one measurement's ops."""

    op: str
    dataplane: str
    size: int
    ops: int = 0
    incomplete: int = 0
    total_latency_ns: float = 0.0
    residual_ns: float = 0.0
    explained_min: float = 1.0
    stages: dict[str, StageStats] = field(default_factory=dict)

    def rows(self) -> tuple[list[str], list[list[str]]]:
        header = ["stage", "count", "mean ns", "queue ns", "service ns",
                  "p50 ns", "p99 ns", "share %"]
        rows = []
        for name, st in self.stages.items():
            share = (st.total_ns / self.total_latency_ns * 100
                     if self.total_latency_ns else 0.0)
            rows.append([
                name, str(st.count), f"{st.mean_ns:.1f}",
                f"{st.queue_ns / st.count:.1f}" if st.count else "0.0",
                f"{st.service_ns / st.count:.1f}" if st.count else "0.0",
                f"{st.p50_ns:.1f}", f"{st.p99_ns:.1f}", f"{share:.1f}",
            ])
        return header, rows

    def snapshot(self) -> dict[str, object]:
        """JSON-ready dict with *exact* float stage totals (gate input)."""
        return {
            "op": self.op,
            "dataplane": self.dataplane,
            "size": self.size,
            "ops": self.ops,
            "incomplete": self.incomplete,
            "total_latency_ns": self.total_latency_ns,
            "residual_ns": self.residual_ns,
            "explained_min": self.explained_min,
            "stages": {
                name: st.snapshot() for name, st in self.stages.items()
            },
        }


def aggregate(blames: Iterable[OpBlame], incomplete: int = 0) -> list[AttributionTable]:
    """Fold blame trees into per-(op, dataplane, size) attribution tables.

    Stage instance names keep their repeat suffix: the forward ``rx_arrive``
    and the ACK leg's ``rx_arrive#2`` are different places to lose time.
    """
    tables: dict[tuple, AttributionTable] = {}
    for blame in blames:
        key = (blame.op, blame.dataplane, blame.size)
        table = tables.get(key)
        if table is None:
            table = tables[key] = AttributionTable(
                op=blame.op, dataplane=blame.dataplane, size=blame.size)
        table.ops += 1
        table.total_latency_ns += blame.total_ns
        table.residual_ns += blame.residual_ns
        table.explained_min = min(table.explained_min, blame.explained_fraction)
        for stage in blame.stages:
            st = table.stages.get(stage.name)
            if st is None:
                st = table.stages[stage.name] = StageStats(stage.name)
            st.count += 1
            st.total_ns += stage.duration_ns
            st.queue_ns += stage.queue_ns
            st.service_ns += stage.service_ns
            st.durations.append(stage.duration_ns)
    out = [tables[key] for key in sorted(tables, key=str)]
    for table in out:
        table.incomplete = incomplete
    return out


# -- figure attribution probes -------------------------------------------------
#
# Each figure has a small pinned-iteration slice of its sweep, run with full
# tracing.  ``benchmarks/bench_attribution.py`` records their per-stage
# attribution in ``results/BENCH_attribution.json``.  Iteration counts are
# pinned (never scaled by REPRO_BENCH_SCALE), so the whole record, the
# jittered system-A probes included, regenerates byte for byte.


@dataclass(frozen=True)
class ProbeSpec:
    """One pinned attribution measurement (reproducible from this spec)."""

    figure: str
    label: str
    kind: str  # "lat" | "bw"
    size: int
    system: str = "L"
    transport: str = "RC"
    op: str = "send"
    client: str = "bypass"
    server: str = "bypass"
    iters: int = 80
    warmup: int = 12
    window: int = 32
    seed: int = 7
    techniques: tuple[bool, bool, bool] = (True, True, True)

    @property
    def key(self) -> str:
        return f"{self.figure}/{self.label}/{self.kind}/{self.size}"

    def config(self):
        from repro.perftest.runner import PerftestConfig
        from repro.perftest.techniques import Techniques

        zero_copy, kernel_bypass, polling = self.techniques
        return PerftestConfig(
            system=self.system, transport=self.transport, op=self.op,
            client=self.client, server=self.server,
            iters=self.iters, warmup=self.warmup, window=self.window,
            seed=self.seed, fastforward=False,
            techniques=Techniques(zero_copy=zero_copy,
                                  kernel_bypass=kernel_bypass,
                                  polling=polling),
        )


def _fig1_probes() -> list[ProbeSpec]:
    variants = [
        ("baseline", (True, True, True)),
        ("no-zero-copy", (False, True, True)),
        ("no-kernel-bypass", (True, False, True)),
        ("no-polling", (True, True, False)),
    ]
    return [
        ProbeSpec(figure="fig1", label=label, kind="lat", size=65536,
                  techniques=tech)
        for label, tech in variants
    ]


def _fig3_probes() -> list[ProbeSpec]:
    out = []
    for size in (4096, 32768):
        out.append(ProbeSpec(figure="fig3", label="BP-BP", kind="lat", size=size))
        out.append(ProbeSpec(figure="fig3", label="CD-CD", kind="lat", size=size,
                             client="cord", server="cord"))
    return out


def _fig4_probes() -> list[ProbeSpec]:
    bw = dict(kind="bw", size=32768, iters=150, warmup=30, window=32)
    return [
        ProbeSpec(figure="fig4", label="BP-BP", **bw),
        ProbeSpec(figure="fig4", label="CD-CD", client="cord", server="cord", **bw),
    ]


def _fig5_probes() -> list[ProbeSpec]:
    a = dict(kind="lat", size=4096, system="A")
    return [
        ProbeSpec(figure="fig5", label="BP-BP", **a),
        ProbeSpec(figure="fig5", label="CD-CD", client="cord", server="cord", **a),
    ]


ATTRIBUTION_PROBES: dict[str, list[ProbeSpec]] = {
    "fig1": _fig1_probes(),
    "fig3": _fig3_probes(),
    "fig4": _fig4_probes(),
    "fig5": _fig5_probes(),
}


def run_probe(spec: ProbeSpec) -> dict[str, object]:
    """Run one probe measurement and return its baseline JSON entry."""
    from repro.perftest.runner import run_attributed

    _result, sim, _pair = run_attributed(spec.config(), spec.size, spec.kind)
    from repro.telemetry.spans import build_spans

    spans = build_spans(sim.trace, op="post_send")
    incomplete = sum(1 for s in spans if not s.complete)
    blames = attribute_spans(spans)
    tables = aggregate(blames, incomplete=incomplete)
    if len(tables) != 1:  # pragma: no cover - probes are single-config
        raise RuntimeError(f"probe {spec.key}: expected one table, "
                           f"got {len(tables)}")
    entry: dict[str, object] = {"spec": asdict(spec),
                                "dropped": sim.trace.dropped}
    entry.update(tables[0].snapshot())
    return entry
