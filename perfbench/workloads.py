"""The four benchmark workloads: measurement lists, simulated results, checks.

Each workload is a fixed list of measurements ("ops").  One op is one call
of a public run function -- ``run_lat``/``run_bw``, ``run_incast`` or
``run_npb`` -- on a fresh, seeded simulator, so running the list twice with
the same seed reproduces every simulated output bit for bit.  All of them
are closed loops: every simulated client waits for its completions.

``summarize`` folds one pass's results into the simulated metrics
(``sim_*``) and evaluates the paper's shape checks with the same
``check_between`` bounds the figure scripts in ``benchmarks/`` use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.analysis import check_between
from repro.hw.profiles import get_profile
from repro.npb.base import NpbConfig
from repro.npb.runner import run_npb
from repro.perftest.incast import IncastConfig, run_incast
from repro.perftest.runner import PerftestConfig, run_bw, run_lat
from repro.units import to_gbit_per_s

KIB = 1024
MIB = 1024 * 1024
PLANES = (("BP", "bypass"), ("CD", "cord"))


@dataclass(frozen=True)
class Op:
    """One measurement: ``key`` names it, ``run()`` performs it."""

    key: tuple
    run: Callable[[], object]


@dataclass(frozen=True)
class Workload:
    name: str
    #: fig5/fig3/fig4 probe lists of ATTRIBUTION_PROBES (empty: the traced
    #: run attributes ``incast_probe`` instead, or nothing).
    attribution_figures: tuple[str, ...]
    ops: Callable[[int, float], list[Op]]
    summarize: Callable[[dict], tuple[dict, list]]
    build_first: Callable[[int], None]
    incast_probe: Optional[Callable[[int, float], IncastConfig]] = None


def _iters(n: int, scale: float, minimum: int = 8) -> int:
    return max(minimum, int(round(n * scale)))


def _pair_build(system: str) -> Callable[[int], None]:
    def build(seed: int) -> None:
        from repro.cluster import build_pair
        from repro.sim import Simulator

        build_pair(Simulator(seed=seed), get_profile(system))
    return build


# -- fig5-systemA ------------------------------------------------------------

FIG5_LAT_SIZES = (64, 256, 512, 1024, 2048, 4096, 16384)
FIG5_BW_SIZES = (256, 1024, 4096, 16384, 65536, 262144, MIB)
#: The headline latency point keeps 1000 samples at every scale, so ten
#: of them lie beyond the reported p99.
HEADLINE_SIZE = 4096
HEADLINE_ITERS = 1000
#: The headline bandwidth point (``sim_bw_ratio``) also runs 1000
#: messages: over 200, the window's ramp-up moves the ratio by ~2% from
#: seed to seed.
HEADLINE_BW_SIZE = KIB


def _fig5_ops(seed: int, scale: float) -> list[Op]:
    ops = []
    for size in FIG5_LAT_SIZES:
        iters = HEADLINE_ITERS if size == HEADLINE_SIZE else _iters(150, scale)
        for label, kind in PLANES:
            cfg = PerftestConfig(system="A", client=kind, server=kind,
                                 iters=iters, warmup=25, seed=seed,
                                 fastforward=False)
            ops.append(Op(("lat", "RC", "send", label, size),
                          lambda c=cfg, s=size: run_lat(c, s)))
    for transport, op in (("RC", "send"), ("RC", "write"), ("UD", "send")):
        for size in FIG5_BW_SIZES:
            if transport == "UD" and size > 4096:
                continue
            headline = (transport, op, size) == ("RC", "send", HEADLINE_BW_SIZE)
            iters = HEADLINE_ITERS if headline else _iters(200, scale)
            for label, kind in PLANES:
                cfg = PerftestConfig(system="A", transport=transport, op=op,
                                     client=kind, server=kind, iters=iters,
                                     warmup=100 if headline else 60,
                                     window=64, seed=seed, fastforward=False)
                ops.append(Op(("bw", transport, op, label, size),
                              lambda c=cfg, s=size: run_bw(c, s)))
    return ops


def _headline(results: dict) -> dict:
    """sim_lat_*, sim_cord_overhead_us and sim_bw_ratio from a fig pass."""
    bp = results[("lat", "RC", "send", "BP", HEADLINE_SIZE)]
    cd = results[("lat", "RC", "send", "CD", HEADLINE_SIZE)]
    bw_bp = results[("bw", "RC", "send", "BP", HEADLINE_BW_SIZE)]
    bw_cd = results[("bw", "RC", "send", "CD", HEADLINE_BW_SIZE)]
    return {
        "sim_lat_p50_us": cd.p50_ns / 1e3,
        "sim_lat_p99_us": cd.p99_ns / 1e3,
        "sim_cord_overhead_us": (cd.p50_ns - bp.p50_ns) / 1e3,
        "sim_bw_ratio": bw_cd.gbit_per_s / bw_bp.gbit_per_s,
    }


def _fig5_summarize(results: dict) -> tuple[dict, list]:
    over = {size: (results[("lat", "RC", "send", "CD", size)].avg_us
                   - results[("lat", "RC", "send", "BP", size)].avg_us)
            for size in FIG5_LAT_SIZES}
    small = sum(over[s] for s in (64, 256, 512, 1024)) / 4
    large = sum(over[s] for s in (2048, 4096, 16384)) / 3
    checks = [
        check_between("fig5a small-message mode (<=1 KiB) larger than large mode",
                      small / large, 1.15, 3.0),
        check_between("fig5a large-mode overhead exceeds system L's (~1.1 us)",
                      large, 1.2, 4.0),
        check_between("fig5a small-mode overhead (us)", small, 1.6, 5.0),
    ]
    for transport, op in (("RC", "send"), ("RC", "write")):
        def rel(size, t=transport, o=op):
            return (results[("bw", t, o, "CD", size)].gbit_per_s
                    / results[("bw", t, o, "BP", size)].gbit_per_s)
        checks.append(check_between(
            f"fig5b {transport}-{op}: small messages degraded", rel(KIB), 0.1, 0.8))
        checks.append(check_between(
            f"fig5b {transport}-{op}: negligible from some size on",
            rel(MIB), 0.93, 1.05))
    return _headline(results), checks


FIG5 = Workload("fig5-systemA", ("fig5",), _fig5_ops, _fig5_summarize,
                _pair_build("A"))


# -- fig34-systemL-ff --------------------------------------------------------

FIG3_COMBOS = (("bypass", "bypass"), ("cord", "bypass"),
               ("bypass", "cord"), ("cord", "cord"))
FIG34_OPS = (("RC", "send"), ("RC", "read"), ("RC", "write"), ("UD", "send"))
#: The points fig4's shape checks and the headline read.  Each
#: fast-forwarded bandwidth point costs a fixed ~0.2 s of host time, so the
#: full 31-point sweep would make one pass too long to repeat in a run.
FIG4_SIZES = {("RC", "send"): (64, 1024, 32768, MIB), ("RC", "read"): (64, MIB),
              ("RC", "write"): (64, MIB), ("UD", "send"): (64, 4096)}


def _combo(client: str, server: str) -> str:
    return f"{client[:2].upper()}->{server[:2].upper()}"


def _fig34_ops(seed: int, scale: float) -> list[Op]:
    ops = []
    # Fast-forward skips the steady state, so the full 1000 samples of
    # the figure cost little here.
    lat_iters = HEADLINE_ITERS
    for transport, op in FIG34_OPS:
        for client, server in FIG3_COMBOS:
            cfg = PerftestConfig(system="L", transport=transport, op=op,
                                 client=client, server=server,
                                 iters=lat_iters, warmup=20, seed=seed,
                                 fastforward=True)
            ops.append(Op(("lat", transport, op, _combo(client, server),
                           HEADLINE_SIZE),
                          lambda c=cfg: run_lat(c, HEADLINE_SIZE)))
    for size in (256, 65536):
        for label, kind in PLANES:
            cfg = PerftestConfig(system="L", client=kind, server=kind,
                                 iters=lat_iters, warmup=20, seed=seed,
                                 fastforward=True)
            ops.append(Op(("lat", "RC", "send", label, size),
                          lambda c=cfg, s=size: run_lat(c, s)))
    for transport, op in FIG34_OPS:
        for size in FIG4_SIZES[transport, op]:
            for label, kind in PLANES:
                cfg = PerftestConfig(system="L", transport=transport, op=op,
                                     client=kind, server=kind,
                                     iters=_iters(5000, scale), warmup=300,
                                     window=64, seed=seed, fastforward=True)
                ops.append(Op(("bw", transport, op, label, size),
                              lambda c=cfg, s=size: run_bw(c, s)))
    return ops


def _fig34_summarize(results: dict) -> tuple[dict, list]:
    def over(transport, op, combo):
        base = results[("lat", transport, op, "BY->BY", HEADLINE_SIZE)].avg_us
        return results[("lat", transport, op, combo, HEADLINE_SIZE)].avg_us - base

    def delta(size):
        return (results[("lat", "RC", "send", "CD", size)].avg_us
                - results[("lat", "RC", "send", "BP", size)].avg_us)

    def rel(transport, op, size):
        return (results[("bw", transport, op, "CD", size)].gbit_per_s
                / results[("bw", transport, op, "BP", size)].gbit_per_s)

    checks = [
        check_between("fig3 read BP->CD overhead ~ 0 us",
                      over("RC", "read", "BY->CO"), -0.05, 0.05),
        check_between("fig3 read CO->BY overhead > 0",
                      over("RC", "read", "CO->BY"), 0.2, 3.0),
        check_between("fig3 send sides equal (CO->BY vs BY->CO)",
                      over("RC", "send", "CO->BY") / over("RC", "send", "BY->CO"),
                      0.7, 1.4),
        check_between("fig3 send CO->CO ~ sum of sides",
                      over("RC", "send", "CO->CO")
                      / (over("RC", "send", "CO->BY") + over("RC", "send", "BY->CO")),
                      0.7, 1.3),
        check_between("fig3 UD sides equal",
                      over("UD", "send", "CO->BY") / over("UD", "send", "BY->CO"),
                      0.7, 1.4),
        check_between("fig3 send one-side overhead (us)",
                      over("RC", "send", "CO->BY"), 0.1, 2.0),
        check_between("fig3 overhead size-independent (65KiB vs 256B)",
                      delta(65536) / delta(256), 0.7, 1.4),
    ]
    for transport, op in FIG34_OPS:
        name = f"{transport}-{op}"
        checks.append(check_between(f"fig4 {name}: small messages degraded",
                                    rel(transport, op, 64), 0.15, 0.85))
        if transport == "UD":
            checks.append(check_between(
                "fig4 UD-send: degradation shrinking by 4 KiB",
                rel(transport, op, 4096) / rel(transport, op, 64), 1.0, 4.0))
        else:
            checks.append(check_between(f"fig4 {name}: large messages ~unaffected",
                                        rel(transport, op, MIB), 0.93, 1.05))
    send_rate = results[("bw", "RC", "send", "BP", 32768)].msg_rate_per_s
    checks.append(check_between("fig4 32 KiB send msg rate (paper ~370k/s)",
                                send_rate, 280_000, 450_000))
    checks.append(check_between("fig4 32 KiB send degradation ~1%",
                                rel("RC", "send", 32768), 0.95, 1.01))
    # The headline reads the CD->CD / BP->BP points of the fig3 matrix.
    aliased = dict(results)
    for label, combo in (("BP", "BY->BY"), ("CD", "CO->CO")):
        aliased[("lat", "RC", "send", label, HEADLINE_SIZE)] = \
            results[("lat", "RC", "send", combo, HEADLINE_SIZE)]
    return _headline(aliased), checks


FIG34 = Workload("fig34-systemL-ff", ("fig3", "fig4"), _fig34_ops,
                 _fig34_summarize, _pair_build("L"))


# -- incast-dcqcn ------------------------------------------------------------

INCAST_SENDERS = 16
#: Bounded switch output buffer of the congestion-control point.
INCAST_BUFFER = MIB


def _incast_cfg(seed: int, scale: float, dataplane: str,
                bounded: bool) -> IncastConfig:
    cfg = IncastConfig(system="L", dataplane=dataplane, senders=INCAST_SENDERS,
                       size=64 * KIB, msgs_per_sender=_iters(128, scale),
                       window=16, seed=seed)
    if bounded:
        cfg = cfg.with_(buffer_bytes=INCAST_BUFFER, congestion="dcqcn")
    return cfg


def _incast_ops(seed: int, scale: float) -> list[Op]:
    ops = [Op(("incast", label, "dcqcn"),
              lambda c=_incast_cfg(seed, scale, kind, True): run_incast(c))
           for label, kind in PLANES]
    ref = _incast_cfg(seed, scale, "bypass", False)
    ops.append(Op(("incast", "BP", "unbounded"), lambda: run_incast(ref)))
    return ops


def _incast_summarize(results: dict) -> tuple[dict, list]:
    bp = results[("incast", "BP", "dcqcn")]
    cd = results[("incast", "CD", "dcqcn")]
    ref = results[("incast", "BP", "unbounded")]
    link_gbit = to_gbit_per_s(get_profile("L").nic.link_bw)
    posted = cd.config.senders * cd.config.msgs_per_sender
    checks = [
        check_between("incast aggregate receive rate capped at one link",
                      max(r.aggregate_gbit for r in (bp, cd, ref)),
                      0.0, link_gbit * 1.02),
        check_between("incast unbounded buffer never drops",
                      float(ref.messages_dropped + ref.retransmits), 0.0, 0.0),
    ]
    for label, r in (("BP", bp), ("CD", cd)):
        checks.append(check_between(
            f"incast {label}: DCQCN recovers >=80% of unbounded goodput at N=16",
            r.aggregate_gbit / ref.aggregate_gbit, 0.8, float("inf")))
        checks.append(check_between(
            f"incast {label}: DCQCN loop engaged (ECN marks and CNPs observed)",
            float(min(r.ecn_marked, r.cnps)), 1.0, float("inf")))
    metrics = {
        "sim_goodput_gbps": cd.aggregate_gbit,
        "sim_drop_ratio": cd.messages_dropped / posted,
        "sim_bw_ratio": cd.aggregate_gbit / bp.aggregate_gbit,
    }
    return metrics, checks


def _incast_build(seed: int) -> None:
    from repro.perftest.incast import build_incast
    from repro.sim import Simulator

    build_incast(Simulator(seed=seed), _incast_cfg(seed, 1.0, "bypass", True))


INCAST = Workload("incast-dcqcn", (), _incast_ops, _incast_summarize,
                  _incast_build,
                  incast_probe=lambda seed, scale: _incast_cfg(
                      seed, min(scale, 0.25), "cord", True))


# -- npb-scaleout ------------------------------------------------------------

NPB_HOSTS = 4
NPB_RANKS = 16
#: Simulated iterations per benchmark (results are per iteration).
NPB_ITERS = {"IS": 2, "CG": 4}


def _npb_ops(seed: int, scale: float) -> list[Op]:
    ops = []
    for name, iters in NPB_ITERS.items():
        cfg = NpbConfig(name=name, klass="A", ranks=NPB_RANKS,
                        iterations=_iters(iters, scale, minimum=1))
        for label, kind in PLANES:
            ops.append(Op(("npb", name, label),
                          lambda c=cfg, k=kind: run_npb(
                              c, transport=k, system="A", hosts_n=NPB_HOSTS,
                              seed=seed)))
    return ops


def _npb_summarize(results: dict) -> tuple[dict, list]:
    checks = [
        check_between(f"npb {name} x{NPB_RANKS}: CoRD within 2x of bypass",
                      results[("npb", name, "CD")].per_iter_ns
                      / results[("npb", name, "BP")].per_iter_ns, 0.9, 2.0)
        for name in NPB_ITERS
    ]
    bp, cd = results[("npb", "IS", "BP")], results[("npb", "IS", "CD")]
    metrics = {
        "sim_iter_us": cd.per_iter_ns / 1e3,
        "sim_bw_ratio": bp.per_iter_ns / cd.per_iter_ns,
    }
    return metrics, checks


def _npb_build(seed: int) -> None:
    from repro.cluster import build_cluster
    from repro.mpi import MpiWorld
    from repro.sim import Simulator

    sim = Simulator(seed=seed)
    _fabric, hosts = build_cluster(sim, get_profile("A"), NPB_HOSTS)
    MpiWorld(sim, hosts, NPB_RANKS, transport="bypass")


NPB = Workload("npb-scaleout", (), _npb_ops, _npb_summarize, _npb_build)


WORKLOADS = {w.name: w for w in (FIG5, FIG34, INCAST, NPB)}
