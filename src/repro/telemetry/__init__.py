"""End-to-end telemetry for the converged dataplane simulation.

Three pieces, all off by default and free when off; one switch,
``Trace.enabled``, turns on the records and the push metrics together:

- :mod:`~repro.telemetry.spans` — causal op spans: one id allocated at
  ``post_send``/``post_recv`` entry, threaded driver → doorbell → WQE
  pipeline → DMA → wire → rx → CQE → completion, so one message's life is
  reconstructable with per-stage durations.
- :mod:`~repro.telemetry.metrics` — per-host registry of counters and
  log2 histograms (dataplane ops, NIC posts/deliveries, NIC/switch queue
  occupancy, CQ depth, per-policy cost, MPI protocol mix), kept on the
  trace (``trace.scope("host0")``).
- :mod:`~repro.telemetry.export` — Chrome trace-event JSON (Perfetto),
  JSONL record dumps, metrics snapshot JSON.

Enable with::

    sim = Simulator(seed=7, trace=Trace(enabled=True))

or set ``REPRO_TELEMETRY=1`` for the perftest runner / figure benchmarks
(exports land under ``REPRO_TELEMETRY_DIR``, default ``results/telemetry``).

Every public name loads its submodule on first access: a traced run that
only keeps push metrics imports :mod:`~repro.telemetry.metrics` alone.
"""

from typing import TYPE_CHECKING

from repro import lazy_exports

if TYPE_CHECKING:  # pragma: no cover
    from repro.telemetry.attribution import (
        ATTRIBUTION_PROBES,
        AttributionTable,
        OpBlame,
        ProbeSpec,
        StageBlame,
        aggregate,
        attribute_spans,
        run_probe,
    )
    from repro.telemetry.export import (
        chrome_trace,
        folded_stacks,
        jsonl_lines,
        metrics_snapshot,
        records_from_jsonl,
    )
    from repro.telemetry.metrics import Log2Histogram, MetricCounter, MetricsRegistry
    from repro.telemetry.spans import OpSpan, SpanMark, SpanStage, build_spans

__getattr__ = lazy_exports(__name__, {
    **dict.fromkeys(("ATTRIBUTION_PROBES", "AttributionTable", "OpBlame",
                     "ProbeSpec", "StageBlame", "aggregate", "attribute_spans",
                     "run_probe"), "attribution"),
    **dict.fromkeys(("chrome_trace", "folded_stacks", "jsonl_lines",
                     "metrics_snapshot", "records_from_jsonl"), "export"),
    **dict.fromkeys(("Log2Histogram", "MetricCounter", "MetricsRegistry"),
                    "metrics"),
    **dict.fromkeys(("OpSpan", "SpanMark", "SpanStage", "build_spans"), "spans"),
})

__all__ = [
    "ATTRIBUTION_PROBES",
    "AttributionTable",
    "OpBlame",
    "OpSpan",
    "ProbeSpec",
    "SpanMark",
    "SpanStage",
    "StageBlame",
    "aggregate",
    "attribute_spans",
    "build_spans",
    "chrome_trace",
    "folded_stacks",
    "jsonl_lines",
    "metrics_snapshot",
    "records_from_jsonl",
    "run_probe",
    "Log2Histogram",
    "MetricCounter",
    "MetricsRegistry",
]
