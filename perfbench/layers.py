"""Per-layer numbers, measured from outside the program.

- Host self time: a stdlib ``cProfile`` run folded by ``repro`` module into
  the layer names of :data:`LAYERS`.
- Model counters: :class:`BuildRecorder` wraps the testbed builders the
  public run functions call, keeps the simulator, fabric and hosts each
  measurement built, and reads their counters after the measurement.
- Simulated stages: the attribution engine's queueing/service split on the
  pinned ``ATTRIBUTION_PROBES`` or on a traced incast run.
"""

from __future__ import annotations

import os
from dataclasses import replace
from typing import Optional

#: Host-time layers.  ``harness`` is this benchmark's own code, ``other``
#: every ``repro`` module outside the named layers, ``stdlib`` everything
#: outside ``repro`` (builtins, heapq, enum, numpy, ...).
LAYERS = (
    "sim.engine", "sim.process", "sim.resources", "sim.store", "sim.events",
    "sim.fastforward", "sim.rng", "hw.nic", "hw.cpu", "hw.memory",
    "hw.congestion", "hw.other", "cluster.fabric", "verbs", "core.dataplane",
    "core.policy", "core.other", "kernel", "mpi", "npb", "perftest",
    "telemetry", "stdlib", "other", "harness",
)

#: Stages the attribution engine names (a span stage is named by the mark
#: that opens it; ``#n`` repeats fold into their base stage).
#: ``completion`` opens a stage when marks follow the app's observation.
STAGES = ("post", "doorbell", "wqe_fetch", "cc_pace", "tx_wire", "tx_done",
          "rx_port", "rx_arrive", "rx_exec", "ack", "cqe", "completion")

_EXACT = {
    "sim.engine", "sim.process", "sim.resources", "sim.store", "sim.events",
    "sim.fastforward", "sim.rng", "hw.nic", "hw.cpu", "hw.memory",
    "hw.congestion", "cluster.fabric", "core.dataplane", "core.policy",
}
_PACKAGES = ("verbs", "kernel", "mpi", "npb", "perftest", "telemetry")
_OTHER_OF = {"hw": "hw.other", "core": "core.other"}
_ALIASES = {"sim": "sim.engine", "sim.trace": "telemetry"}


def module_layer(module: str) -> str:
    """Layer of one ``repro`` module name, given without the ``repro.``."""
    if module.endswith(".__init__"):
        module = module[: -len(".__init__")]
    if module in _ALIASES:
        return _ALIASES[module]
    if module in _EXACT:
        return module
    if module.startswith("core.policies"):
        return "core.policy"
    top = module.split(".", 1)[0]
    if top in _PACKAGES:
        return top
    return _OTHER_OF.get(top, "other")


def make_layer_of(src_dir: str, harness_dir: str):
    """``filename -> layer`` for profile entries, with a per-file cache."""
    repro_dir = os.path.join(os.path.realpath(src_dir), "repro") + os.sep
    harness_dir = os.path.realpath(harness_dir) + os.sep
    cache: dict[str, str] = {}

    def layer_of(filename: str) -> str:
        layer = cache.get(filename)
        if layer is None:
            path = os.path.realpath(filename) if filename.endswith(".py") else ""
            if path.startswith(repro_dir):
                rel = path[len(repro_dir):-3].replace(os.sep, ".")
                layer = module_layer(rel)
            elif path.startswith(harness_dir):
                layer = "harness"
            else:
                layer = "stdlib"
            cache[filename] = layer
        return layer

    return layer_of


def fold_profile(profiler, layer_of) -> dict[str, float]:
    """Self (``tottime``) seconds per layer from a finished cProfile run."""
    profiler.create_stats()
    out = dict.fromkeys(LAYERS, 0.0)
    for (filename, _line, _func), (_cc, _nc, tottime, _ct, _callers) \
            in profiler.stats.items():
        out[layer_of(filename)] += tottime
    return out


# -- model counters ------------------------------------------------------------

COUNTERS = ("sim.events", "nic.tx_msgs", "nic.retransmits", "nic.ack_timeouts",
            "cpu.syscalls", "fabric.drops", "fabric.rxq_peak_bytes",
            "fabric.ecn_marked", "cc.cnps")

#: (module, name) of every builder a public run function calls.
_BUILDERS = (
    ("repro.perftest.runner", "build_pair"),
    ("repro.perftest.incast", "build_cluster"),
    ("repro.npb.runner", "build_cluster"),
)


class BuildRecorder:
    """Context manager: capture every testbed the program builds.

    Inside the ``with`` block the builders above are wrapped; each call
    records ``(sim, fabric, hosts)``.  :meth:`harvest` reads the counters
    of everything captured so far and forgets it.
    """

    def __init__(self) -> None:
        self._built: list = []
        self._saved: list = []
        self.totals = dict.fromkeys(COUNTERS, 0)

    def __enter__(self) -> "BuildRecorder":
        import importlib

        for module_name, attr in _BUILDERS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)  # AttributeError: builder moved
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        self._built.clear()

    def _wrap(self, builder):
        built = self._built

        def recording_builder(sim, *args, **kwargs):
            out = builder(sim, *args, **kwargs)
            # build_pair -> (fabric, host_a, host_b); build_cluster ->
            # (fabric, hosts).
            hosts = list(out[1:]) if len(out) == 3 else out[1]
            built.append((sim, out[0], hosts))
            return out

        return recording_builder

    def harvest(self) -> None:
        from repro.errors import HardwareError

        totals = self.totals
        for sim, fabric, hosts in self._built:
            totals["sim.events"] += sim.events_scheduled
            totals["fabric.drops"] += fabric.messages_dropped
            for host in hosts:
                counters = host.nic.counters
                totals["nic.tx_msgs"] += counters.tx_msgs
                totals["nic.retransmits"] += counters.retransmits
                totals["nic.ack_timeouts"] += counters.ack_timeouts
                totals["cc.cnps"] += counters.cnps_sent
                totals["cpu.syscalls"] += sum(c.syscalls for c in host.cpus.cores)
                try:
                    port = fabric.rx_port(host.host_id)
                except HardwareError:  # no receiver-side contention model
                    continue
                totals["fabric.ecn_marked"] += port.messages_marked
                totals["fabric.rxq_peak_bytes"] = max(
                    totals["fabric.rxq_peak_bytes"], port.peak_queued_bytes)
        self._built.clear()


# -- simulated-stage attribution -----------------------------------------------


def attribution(figures: tuple[str, ...], incast_cfg: Optional[object],
                seed: int) -> tuple[dict[str, float], int]:
    """Per-op stage queueing/service and trace records per op.

    Runs the pinned ``ATTRIBUTION_PROBES`` of ``figures`` (re-seeded with
    the workload seed) and, when given, one traced incast run.  Returns
    ``(metrics, measurements run)``.
    """
    from repro.perftest.incast import run_incast_attributed
    from repro.perftest.runner import run_attributed
    from repro.telemetry.attribution import (
        ATTRIBUTION_PROBES, attribute_spans, base_stage,
    )
    from repro.telemetry.spans import build_spans

    sims = []
    for figure in figures:
        for spec in ATTRIBUTION_PROBES[figure]:
            spec = replace(spec, seed=seed)
            _result, sim, _pair = run_attributed(spec.config(), spec.size,
                                                 spec.kind)
            sims.append(sim)
    if incast_cfg is not None:
        _result, sim = run_incast_attributed(incast_cfg)
        sims.append(sim)

    queue = dict.fromkeys(STAGES, 0.0)
    service = dict.fromkeys(STAGES, 0.0)
    ops = records = 0
    for sim in sims:
        if sim.trace.dropped:
            raise RuntimeError("attribution trace dropped records")
        records += len(sim.trace)
        for blame in attribute_spans(build_spans(sim.trace, op="post_send")):
            ops += 1
            for stage in blame.stages:
                name = base_stage(stage.name)
                if name not in queue:
                    raise RuntimeError(f"unknown attribution stage {name!r}")
                queue[name] += stage.queue_ns
                service[name] += stage.service_ns
    metrics: dict[str, float] = {}
    for name in STAGES:
        metrics[f"stage.{name}.queue_ns"] = queue[name] / ops if ops else 0.0
        metrics[f"stage.{name}.service_ns"] = service[name] / ops if ops else 0.0
    metrics["telemetry.records_per_op"] = records / ops if ops else 0.0
    return metrics, len(sims)
