"""Convenience constructors for common testbed shapes."""

from __future__ import annotations

from typing import Optional, Union

from repro.cluster.fabric import Fabric
from repro.cluster.host import Host
from repro.errors import ConfigError
from repro.hw.profiles import CcProfile, RxContentionProfile, SystemProfile
from repro.sim.engine import Simulator

#: What callers may pass as ``congestion``: "auto" (follow the system
#: profile), "off"/None (disabled), "dcqcn" (profile's ``cc`` or DCQCN
#: defaults), or an explicit :class:`CcProfile`.
CongestionSpec = Union[str, None, CcProfile]


def _normalize_congestion(
    spec: CongestionSpec, system: SystemProfile
) -> Optional[CcProfile]:
    if spec == "auto":
        return system.cc
    if spec is None or spec == "off":
        return None
    if spec == "dcqcn":
        return system.cc or CcProfile()
    if isinstance(spec, CcProfile):
        return spec
    raise ConfigError(
        f"congestion must be 'auto'/'off'/'dcqcn'/None/CcProfile, got {spec!r}"
    )


def build_cluster(
    sim: Simulator,
    system: SystemProfile,
    num_hosts: int,
    rx_contention: Optional[RxContentionProfile] = None,
    congestion: CongestionSpec = "auto",
) -> tuple[Fabric, list[Host]]:
    """Build ``num_hosts`` hosts on one fabric.

    The fabric models a switch output queue per host (see
    :mod:`repro.cluster.fabric`) when ``rx_contention`` is given, when the
    cluster has more than two hosts (fan-in is possible), or when
    congestion control is on (marking keys off that queue); it then uses
    ``rx_contention`` or, by default, an unbounded-buffer
    :class:`RxContentionProfile`.  A two-host build with neither is the
    paper's back-to-back pair, with no switch port.

    ``congestion`` selects end-to-end congestion control (ECN marking +
    DCQCN-style rate limiting; see :mod:`repro.hw.congestion`): ``"auto"``
    (default) follows ``system.cc`` — ``None`` on the shipped profiles, so
    CC is strictly opt-in and all committed goldens stay bit-identical.
    Pass ``"dcqcn"`` (profile's ``cc`` or the DCQCN defaults), ``"off"``,
    or an explicit :class:`CcProfile`.
    """
    if num_hosts < 1:
        raise ValueError(f"need at least one host, got {num_hosts}")
    cc = _normalize_congestion(congestion, system)
    rx = rx_contention
    if rx is None and (num_hosts > 2 or cc is not None):
        rx = RxContentionProfile()
    fabric = Fabric(
        sim,
        system.nic,
        propagation_ns=system.propagation_ns,
        rx_contention=rx,
        cc=cc,
        name=f"fabric:{system.name}",
    )
    hosts = []
    for host_id in range(num_hosts):
        host = Host(sim, system, host_id)
        host.join_fabric(fabric)
        hosts.append(host)
    return fabric, hosts


def build_pair(
    sim: Simulator, system: SystemProfile
) -> tuple[Fabric, Host, Host]:
    """The paper's two-node testbed (back-to-back or one switch hop)."""
    fabric, hosts = build_cluster(sim, system, 2)
    return fabric, hosts[0], hosts[1]
