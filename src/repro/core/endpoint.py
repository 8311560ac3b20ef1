"""Endpoints: everything one communicating thread needs, wired together.

An :class:`Endpoint` bundles a pinned core, a dataplane (bypass or CoRD), a
device context, PD, CQs, one QP and a registered message buffer — the
boilerplate every benchmark, test and example would otherwise repeat.  The
pair/graph constructors connect endpoints across hosts.

All constructors are generators (control-plane verbs cost simulated time);
run them inside a simulation process::

    def setup():
        client, server = yield from make_rc_pair(host_a, host_b, "bypass", "cord")
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

from repro.core.dataplane import BypassDataplane, CordDataplane, Dataplane
from repro.core.policy import PolicyChain
from repro.errors import ConfigError
from repro.hw.cpu import Core
from repro.hw.memory import Buffer
from repro.verbs.cq import CompletionQueue
from repro.verbs.mr import MemoryRegionV
from repro.verbs.qp import QueuePair, Transport
from repro.verbs.wr import AccessFlags

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.host import Host
    from repro.sim.events import Event

#: Default message-buffer size registered per endpoint.
DEFAULT_BUF_BYTES = 16 * 1024 * 1024


def make_dataplane(
    kind: str,
    host: "Host",
    core: Core,
    policies: Optional[PolicyChain] = None,
    tenant: str = "default",
) -> Dataplane:
    """Dataplane factory: ``"bypass"``/``"bp"`` or ``"cord"``/``"cd"``."""
    kind = kind.lower()
    if kind in ("bypass", "bp"):
        if policies is not None and len(policies):
            raise ConfigError("bypass dataplane cannot enforce policies (that's the point)")
        return BypassDataplane(host, core, tenant=tenant)
    if kind in ("cord", "cd"):
        return CordDataplane(host, core, policies=policies, tenant=tenant)
    raise ConfigError(f"unknown dataplane kind {kind!r} (want 'bypass' or 'cord')")


class Endpoint:
    """A fully wired communication endpoint."""

    def __init__(
        self,
        host: "Host",
        core: Core,
        dataplane: Dataplane,
        ctx,
        pd,
        send_cq: CompletionQueue,
        recv_cq: CompletionQueue,
        qp: QueuePair,
        buf: Buffer,
        mr: MemoryRegionV,
    ):
        self.host = host
        self.core = core
        self.dataplane = dataplane
        self.ctx = ctx
        self.pd = pd
        self.send_cq = send_cq
        self.recv_cq = recv_cq
        self.qp = qp
        self.buf = buf
        self.mr = mr

    @property
    def sim(self):
        return self.host.sim

    @property
    def addr(self) -> tuple[int, int]:
        """(host_id, qpn) — what a peer needs to reach this endpoint."""
        return (self.host.host_id, self.qp.qpn)

    # -- dataplane shortcuts -------------------------------------------------------

    def post_send(self, wr) -> Generator["Event", object, None]:
        return self.dataplane.post_send(self.qp, wr)

    def post_recv(self, wr) -> Generator["Event", object, None]:
        return self.dataplane.post_recv(self.qp, wr)

    def poll_send(self, max_entries: int = 16):
        return self.dataplane.poll_cq(self.send_cq, max_entries)

    def poll_recv(self, max_entries: int = 16):
        return self.dataplane.poll_cq(self.recv_cq, max_entries)

    def wait_send(self, max_entries: int = 16, mode=None):
        from repro.core.dataplane import WaitMode

        return self.dataplane.wait_cq(
            self.send_cq, max_entries, mode or WaitMode.POLL
        )

    def wait_recv(self, max_entries: int = 16, mode=None):
        from repro.core.dataplane import WaitMode

        return self.dataplane.wait_cq(
            self.recv_cq, max_entries, mode or WaitMode.POLL
        )


def make_endpoint(
    host: "Host",
    kind: str,
    transport: Transport = Transport.RC,
    core: Optional[Core] = None,
    policies: Optional[PolicyChain] = None,
    buf_bytes: int = DEFAULT_BUF_BYTES,
    tenant: str = "default",
    separate_cqs: bool = True,
) -> Generator["Event", object, Endpoint]:
    """Create one endpoint (unconnected) on ``host``."""
    core = core or host.cpus.pin()
    dataplane = make_dataplane(kind, host, core, policies, tenant)
    device = host.device
    ctx = yield from device.open(core)
    pd = yield from ctx.alloc_pd()
    send_cq = yield from ctx.create_cq()
    recv_cq = (yield from ctx.create_cq()) if separate_cqs else send_cq
    qp = yield from ctx.create_qp(pd, transport, send_cq, recv_cq)
    space = host.new_address_space()
    buf = space.alloc(buf_bytes)
    mr = yield from ctx.reg_mr(pd, buf, AccessFlags.all_remote())
    return Endpoint(host, core, dataplane, ctx, pd, send_cq, recv_cq, qp, buf, mr)


def connect(
    a: Endpoint, b: Endpoint
) -> Generator["Event", object, None]:
    """Bring two RC endpoints to RTS against each other."""
    yield from a.ctx.connect_qp(a.qp, b.addr)
    yield from b.ctx.connect_qp(b.qp, a.addr)


def make_rc_pair(
    host_a: "Host",
    host_b: "Host",
    kind_a: str,
    kind_b: str,
    policies_a: Optional[PolicyChain] = None,
    policies_b: Optional[PolicyChain] = None,
    buf_bytes: int = DEFAULT_BUF_BYTES,
) -> Generator["Event", object, tuple[Endpoint, Endpoint]]:
    """Connected RC endpoint pair (the perftest topology)."""
    a = yield from make_endpoint(host_a, kind_a, Transport.RC, policies=policies_a, buf_bytes=buf_bytes)
    b = yield from make_endpoint(host_b, kind_b, Transport.RC, policies=policies_b, buf_bytes=buf_bytes)
    yield from connect(a, b)
    return a, b


def make_ud_pair(
    host_a: "Host",
    host_b: "Host",
    kind_a: str,
    kind_b: str,
    policies_a: Optional[PolicyChain] = None,
    policies_b: Optional[PolicyChain] = None,
    buf_bytes: int = DEFAULT_BUF_BYTES,
) -> Generator["Event", object, tuple[Endpoint, Endpoint]]:
    """Pair of RTS UD endpoints (datagram tests; address via ``wr.ah``)."""
    a = yield from make_endpoint(host_a, kind_a, Transport.UD, policies=policies_a, buf_bytes=buf_bytes)
    b = yield from make_endpoint(host_b, kind_b, Transport.UD, policies=policies_b, buf_bytes=buf_bytes)
    yield from a.ctx.activate_ud_qp(a.qp)
    yield from b.ctx.activate_ud_qp(b.qp)
    return a, b
