"""NPB execution glue: build a cluster, run a benchmark, collect results."""

from __future__ import annotations

from typing import Optional

from repro.cluster import build_cluster
from repro.hw.profiles import SystemProfile, get_profile
from repro.mpi import MpiWorld
from repro.npb.base import NpbConfig, NpbResult, get_benchmark

# Ensure all benchmark modules register themselves.
from repro.npb import bt_sp, cg, ep, ft, is_, lu, mg  # noqa: F401

DEFAULT_SUITE = ("IS", "EP", "CG", "MG", "FT", "LU", "BT", "SP")


def run_npb(
    config: NpbConfig,
    transport: str = "bypass",
    system: "SystemProfile | str" = "A",
    hosts_n: int = 2,
    seed: int = 11,
) -> NpbResult:
    """Run one benchmark on a fresh cluster; returns its timing.

    A cluster of more than two hosts models each receiver's switch output
    queue (see :func:`repro.cluster.build_cluster`), so collective fan-in
    shares one link per receiver.
    """
    from repro.sim import Simulator

    profile = get_profile(system) if isinstance(system, str) else system
    sim = Simulator(seed=seed)
    _fabric, hosts = build_cluster(sim, profile, hosts_n)
    return run_on_hosts(config, hosts, transport)


def run_on_hosts(
    config: NpbConfig, hosts: list, transport: str = "bypass"
) -> NpbResult:
    """Run one benchmark over already-built hosts of one cluster."""
    world = MpiWorld(hosts[0].sim, hosts, config.ranks, transport=transport)
    program, iters = get_benchmark(config.name)(config)
    results = world.run(program)
    t0 = min(r[0] for r in results)
    t1 = max(r[1] for r in results)
    return NpbResult(
        name=config.name,
        klass=config.klass,
        transport=transport,
        ranks=config.ranks,
        iterations=iters,
        elapsed_ns=t1 - t0,
        bytes_sent_total=sum(r[2] for r in results),
        msgs_sent_total=sum(r[3] for r in results),
    )


def _suite_point(point: tuple[NpbConfig, str, str]) -> NpbResult:
    cfg, transport, system = point
    return run_npb(cfg, transport=transport, system=system)


def run_suite(
    names=DEFAULT_SUITE,
    transports=("bypass", "cord", "ipoib"),
    klass: str = "B",
    ranks: int = 32,
    iter_scale: float = 0.1,
    system: str = "A",
    iterations: Optional[int] = None,
) -> dict[str, dict[str, NpbResult]]:
    """The fig. 6 grid: benchmark x transport -> result.

    Every cell is an independent cluster simulation with its own seed, so
    the grid fans out over worker processes (``REPRO_BENCH_WORKERS``).
    """
    from repro.bench_support import parallel_sweep

    points = []
    for name in names:
        cfg = NpbConfig(name=name, klass=klass, ranks=ranks,
                        iterations=iterations, iter_scale=iter_scale)
        for transport in transports:
            points.append((cfg, transport, system))
    results = parallel_sweep(_suite_point, points)
    out: dict[str, dict[str, NpbResult]] = {name: {} for name in names}
    for (cfg, transport, _), result in zip(points, results):
        out[cfg.name][transport] = result
    return out
