"""Configuration glue: build a testbed, run one perftest, sweep sizes.

Every measurement gets a *fresh* simulator seeded from the config, so runs
are independent and reproducible — exactly like re-running the real
perftest binary.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Generator, Optional

from repro.cluster import build_pair
from repro.core.endpoint import Endpoint, make_rc_pair, make_ud_pair
from repro.core.policy import PolicyChain
from repro.errors import ConfigError
from repro.hw.profiles import SystemProfile, get_profile
from repro.perftest.bw import BwResult, read_bw, send_bw, write_bw
from repro.perftest.lat import LatencyResult, read_lat, send_lat, write_lat
from repro.perftest.techniques import Techniques
from repro.sim import FastForward, Simulator
from repro.sim.engine import env_flag

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults import FaultPlan

OPS = ("send", "read", "write")
TRANSPORTS = ("RC", "UD")

#: Opt-in benchmark telemetry: set REPRO_TELEMETRY=1 to run every
#: measurement traced (span records + push metrics) and export
#: Chrome-trace/metrics JSON into REPRO_TELEMETRY_DIR (default
#: results/telemetry).  Telemetry never changes measured results (see
#: tests/test_golden_determinism.py).
TELEMETRY_ENV = "REPRO_TELEMETRY"
TELEMETRY_DIR_ENV = "REPRO_TELEMETRY_DIR"
#: Trace ring-buffer cap while telemetry is on (bounds benchmark memory).
TELEMETRY_MAX_RECORDS = 200_000

#: Opt-in steady-state fast-forward: set REPRO_FASTFORWARD=1 (or pass
#: ``--fast-forward`` / ``PerftestConfig.fastforward=True``) to let every
#: measurement skip provably periodic loop cycles.  Results stay
#: bit-identical (see tests/test_fastforward.py); the probe auto-disarms
#: whenever exactness cannot be proven (faults, trace export, RNG draws
#: inside the loop — e.g. system A's syscall jitter).
FASTFORWARD_ENV = "REPRO_FASTFORWARD"


#: Per-process accounting across measurements (benchmark instrumentation:
#: perfbench and the fast-forward skip ledger read it).
RUN_STATS: dict[str, float] = {}


def _zero_stats() -> dict[str, float]:
    return {
        "measurements": 0,
        "events_scheduled": 0,
        "ff_boundaries": 0,
        "ff_jumps": 0,
        "ff_cycles_skipped": 0,
        "ff_units_skipped": 0,
        "ff_events_skipped": 0,
        "ff_time_skipped_ns": 0.0,
    }


RUN_STATS.update(_zero_stats())


def reset_run_stats() -> None:
    RUN_STATS.clear()
    RUN_STATS.update(_zero_stats())


def run_stats_snapshot() -> dict[str, float]:
    return dict(RUN_STATS)


def _make_probe(sim: Simulator,
                config: "PerftestConfig") -> Optional[FastForward]:
    enabled = config.fastforward if config.fastforward is not None \
        else env_flag(FASTFORWARD_ENV)
    if not enabled:
        return None
    return FastForward(sim, faults=config.faults)


def _note_run(sim: Simulator, probe: Optional[FastForward]) -> None:
    RUN_STATS["measurements"] += 1
    RUN_STATS["events_scheduled"] += sim.events_scheduled
    if probe is not None:
        stats = probe.stats
        RUN_STATS["ff_boundaries"] += stats.boundaries
        RUN_STATS["ff_jumps"] += stats.jumps
        RUN_STATS["ff_cycles_skipped"] += stats.cycles_skipped
        RUN_STATS["ff_units_skipped"] += stats.units_skipped
        RUN_STATS["ff_events_skipped"] += stats.events_skipped
        RUN_STATS["ff_time_skipped_ns"] += stats.time_skipped_ns
        key = f"ff_disarm_{probe.reason}"
        RUN_STATS[key] = RUN_STATS.get(key, 0) + 1


def _export_telemetry(sim: Simulator, config: "PerftestConfig", size: int,
                      kind: str, hosts) -> None:
    """Dump this measurement's trace + metrics (REPRO_TELEMETRY=1 only).

    Files are named by kind, size, seed and a short digest of the whole
    config (faults included), so sweep points never share a file, and each
    is written whole through a temporary file and ``os.replace``.
    """
    from repro.telemetry import chrome_trace, metrics_snapshot

    outdir = os.environ.get(TELEMETRY_DIR_ENV, os.path.join("results", "telemetry"))
    os.makedirs(outdir, exist_ok=True)
    digest = hashlib.sha256(repr(config).encode()).hexdigest()[:12]
    stem = os.path.join(outdir, (
        f"{kind}_{config.system}_{config.transport}_{config.op}_"
        f"{config.client}-{config.server}_{size}_seed{config.seed}_{digest}"))
    _write_json(stem + ".trace.json", chrome_trace(sim.trace))
    _write_json(stem + ".metrics.json", metrics_snapshot(sim, hosts=hosts),
                indent=2, sort_keys=True, default=str)


def _write_json(path: str, doc: object, **dump_kwargs) -> None:
    """Write ``doc`` to ``path`` atomically: readers see all of it or none."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(doc, fh, **dump_kwargs)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


@dataclass(frozen=True)
class PerftestConfig:
    """One perftest invocation's parameters."""

    system: str = "L"
    transport: str = "RC"
    op: str = "send"
    client: str = "bypass"  # dataplane kind on the initiating side
    server: str = "bypass"
    techniques: Techniques = field(default_factory=Techniques)
    iters: int = 200
    warmup: int = 20
    window: int = 128
    seed: int = 7
    buf_bytes: int = 16 * 1024 * 1024
    #: Optional fault-injection plan (see :mod:`repro.faults`): attached
    #: to the fabric of every measurement built from this config.
    faults: Optional[FaultPlan] = None
    #: Steady-state fast-forward: True/False force it on/off for this
    #: config; None defers to REPRO_FASTFORWARD.  Bit-identical either
    #: way — the probe disarms itself whenever it cannot be exact.
    fastforward: Optional[bool] = None

    def __post_init__(self):
        if self.op not in OPS:
            raise ConfigError(f"op must be one of {OPS}, got {self.op!r}")
        if self.transport not in TRANSPORTS:
            raise ConfigError(f"transport must be in {TRANSPORTS}")
        if self.transport == "UD" and self.op != "send":
            raise ConfigError("UD supports only send/recv (no one-sided ops)")

    @property
    def profile(self) -> SystemProfile:
        return get_profile(self.system)

    @property
    def label(self) -> str:
        return f"{self.transport}-{self.op} {self.client[:2].upper()}->{self.server[:2].upper()}"

    def with_(self, **kwargs) -> "PerftestConfig":
        return replace(self, **kwargs)


def _build(
    config: PerftestConfig,
    policies_client: Optional[PolicyChain] = None,
    policies_server: Optional[PolicyChain] = None,
    trace=None,
) -> tuple[Simulator, Endpoint, Endpoint]:
    if trace is not None:
        sim = Simulator(seed=config.seed, trace=trace)
    elif env_flag(TELEMETRY_ENV):
        from repro.sim.trace import Trace

        sim = Simulator(seed=config.seed,
                        trace=Trace(enabled=True,
                                    max_records=TELEMETRY_MAX_RECORDS))
    else:
        sim = Simulator(seed=config.seed)
    fabric, host_a, host_b = build_pair(sim, config.profile)
    if config.faults is not None:
        fabric.inject_faults(config.faults)
    holder: dict[str, tuple[Endpoint, Endpoint]] = {}

    def setup() -> Generator:
        if config.transport == "RC":
            pair = yield from make_rc_pair(
                host_a, host_b, config.client, config.server,
                policies_a=policies_client, policies_b=policies_server,
                buf_bytes=config.buf_bytes,
            )
        else:
            pair = yield from make_ud_pair(
                host_a, host_b, config.client, config.server,
                policies_a=policies_client, policies_b=policies_server,
                buf_bytes=config.buf_bytes,
            )
        holder["pair"] = pair

    sim.run(sim.process(setup()))
    client, server = holder["pair"]
    return sim, client, server


_LAT_FUNCS: dict[str, Callable] = {"send": send_lat, "read": read_lat, "write": write_lat}
_BW_FUNCS: dict[str, Callable] = {"send": send_bw, "read": read_bw, "write": write_bw}


def run_lat(config: PerftestConfig, size: int) -> LatencyResult:
    """One latency measurement at one message size."""
    sim, client, server = _build(config)
    func = _LAT_FUNCS[config.op]
    probe = _make_probe(sim, config)

    def main() -> Generator:
        result = yield from func(
            sim, client, server, size,
            iters=config.iters, warmup=config.warmup,
            techniques=config.techniques, fastforward=probe,
        )
        return result

    result = sim.run(sim.process(main()))
    _note_run(sim, probe)
    if env_flag(TELEMETRY_ENV):
        _export_telemetry(sim, config, size, "lat", [client.host, server.host])
    return result


def run_bw(config: PerftestConfig, size: int) -> BwResult:
    """One bandwidth measurement at one message size."""
    sim, client, server = _build(config)
    func = _BW_FUNCS[config.op]
    probe = _make_probe(sim, config)

    def main() -> Generator:
        result = yield from func(
            sim, client, server, size,
            iters=config.iters, window=config.window, warmup=config.warmup,
            techniques=config.techniques, fastforward=probe,
        )
        return result

    result = sim.run(sim.process(main()))
    _note_run(sim, probe)
    nic_c, nic_s = client.host.nic.counters, server.host.nic.counters
    result.retransmits = nic_c.retransmits + nic_s.retransmits
    result.ack_timeouts = nic_c.ack_timeouts + nic_s.ack_timeouts
    if env_flag(TELEMETRY_ENV):
        _export_telemetry(sim, config, size, "bw", [client.host, server.host])
    return result


def run_attributed(
    config: PerftestConfig, size: int, kind: str = "lat"
) -> tuple[object, Simulator, tuple[Endpoint, Endpoint]]:
    """One measurement run with a full (unbounded) trace kept for
    attribution.

    Unlike :func:`run_lat`/:func:`run_bw` this always traces — regardless
    of ``REPRO_TELEMETRY`` — with no ring cap, so
    :func:`repro.telemetry.attribution.attribute_spans` sees every span
    mark (a truncated ring would silently skew the blame tables; the
    callers check ``sim.trace.dropped == 0``).  Connection-setup records
    are cleared before the measurement starts so spans cover measured ops
    only.  Returns ``(result, sim, (client, server))``.
    """
    if kind not in ("lat", "bw"):
        raise ConfigError(f"kind must be 'lat' or 'bw', got {kind!r}")
    from repro.sim.trace import Trace

    sim, client, server = _build(config, trace=Trace(enabled=True))
    sim.trace.clear()  # drop connection-setup records; keep measured ops
    probe = _make_probe(sim, config)
    func = (_LAT_FUNCS if kind == "lat" else _BW_FUNCS)[config.op]
    kwargs = dict(iters=config.iters, warmup=config.warmup,
                  techniques=config.techniques, fastforward=probe)
    if kind == "bw":
        kwargs["window"] = config.window

    def main() -> Generator:
        result = yield from func(sim, client, server, size, **kwargs)
        return result

    result = sim.run(sim.process(main()))
    _note_run(sim, probe)
    return result, sim, (client, server)


def default_sizes(
    max_bytes: int = 8 * 1024 * 1024, min_bytes: int = 2
) -> list[int]:
    """perftest's power-of-two size ladder."""
    sizes = []
    size = min_bytes
    while size <= max_bytes:
        sizes.append(size)
        size *= 2
    return sizes
