"""The MPI world: rank placement, transport wiring, program launch.

``MpiWorld`` places ``size`` ranks over the cluster's hosts (block
placement), pins each to a core, and builds the per-rank engine for the
chosen transport:

- ``"bypass"`` — verbs with the classical user-level dataplane,
- ``"cord"``   — verbs with every dataplane op through the kernel,
- ``"ipoib"``  — kernel sockets over the same NIC.

Connections (RC QPs for verbs) are established lazily and without
simulated cost: NPB-style measurements exclude MPI_Init / connection
setup, and real MPI libraries establish connections on demand anyway.
The *dataplane* operations — the object of study — are always charged.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.core.dataplane import BypassDataplane, CordDataplane
from repro.core.policy import PolicyChain
from repro.errors import ConfigError
from repro.mpi.communicator import Communicator
from repro.mpi.engine import SocketRankEngine, VerbsRankEngine
from repro.verbs.cq import CompletionQueue
from repro.verbs.mr import MemoryRegionV
from repro.verbs.pd import ProtectionDomain
from repro.verbs.qp import QPState, QueuePair, Transport
from repro.verbs.wr import AccessFlags

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.host import Host
    from repro.sim.engine import Simulator

TRANSPORTS = ("bypass", "cord", "ipoib")

#: Per-rank registered communication region.
RANK_BUF_BYTES = 16 * 1024 * 1024
#: Base port for IPoIB rank sockets.
RANK_PORT_BASE = 20_000


class MpiWorld:
    """All state for one MPI job on the simulated cluster."""

    def __init__(
        self,
        sim: "Simulator",
        hosts: list["Host"],
        size: int,
        transport: str = "bypass",
        eager_threshold: int = 8192,
        policies_factory: Optional[Callable[[int], PolicyChain]] = None,
    ):
        if transport not in TRANSPORTS:
            raise ConfigError(f"transport must be one of {TRANSPORTS}")
        if size < 1:
            raise ConfigError(f"world size must be >= 1, got {size}")
        self.sim = sim
        self.hosts = hosts
        self.size = size
        self.transport = transport
        self.eager_threshold = eager_threshold
        self.engines: list = []

        nhosts = len(hosts)
        for rank in range(size):
            host = hosts[rank * nhosts // size]
            core = host.cpus.pin()
            if transport in ("bypass", "cord"):
                engine = self._make_verbs_engine(
                    rank, host, core,
                    cord=(transport == "cord"),
                    policies=policies_factory(rank) if policies_factory else None,
                )
            else:
                engine = self._make_socket_engine(rank, host, core)
            self.engines.append(engine)
        if transport in ("bypass", "cord"):
            for engine in self.engines:
                engine._connect = self._connect_pair  # late binding, see _qp

    # -- engine construction (zero-cost control plane, see module docstring) ----

    def _make_verbs_engine(self, rank, host, core, cord, policies):
        pd = ProtectionDomain(context=None)
        cq = CompletionQueue(self.sim, depth=1 << 17, name=f"r{rank}.cq")
        space = host.new_address_space(f"rank{rank}")
        buf = space.alloc(RANK_BUF_BYTES)
        lkey, rkey = host.mr_table.next_keys()
        mr = MemoryRegionV(pd=pd, buffer=buf, addr=buf.addr, length=buf.length,
                           lkey=lkey, rkey=rkey, access=AccessFlags.all_remote())
        host.mr_table.install(mr)
        if cord:
            dataplane = CordDataplane(host, core, policies=policies,
                                      tenant=f"rank{rank}")
        else:
            if policies is not None and len(policies):
                raise ConfigError("bypass cannot enforce policies")
            dataplane = BypassDataplane(host, core, tenant=f"rank{rank}")
        engine = VerbsRankEngine(self.sim, rank, host, core, dataplane, cq, mr,
                                 eager_threshold=self.eager_threshold)
        return engine

    def _make_socket_engine(self, rank, host, core):
        device = host.kernel.ensure_ipoib()
        # All devices must share one cluster-wide registry.
        if not hasattr(self, "_ip_registry"):
            self._ip_registry = {}
        device.registry = self._ip_registry
        sock = device.socket()
        device.bind(sock, RANK_PORT_BASE + rank)
        return SocketRankEngine(
            self.sim, rank, host, core, sock, rank_addr=self._rank_addr
        )

    def _rank_addr(self, rank: int) -> tuple[int, int]:
        host = self.engines[rank].host
        return (host.host_id, RANK_PORT_BASE + rank)

    def _connect_pair(self, a: int, b: int) -> None:
        """Create and connect the RC QP pair between ranks a and b."""
        ea, eb = self.engines[a], self.engines[b]
        qa = self._new_qp(ea)
        qb = self._new_qp(eb)
        qa.modify(QPState.INIT)
        qa.modify(QPState.RTR, remote=(eb.host.host_id, qb.qpn))
        qa.modify(QPState.RTS)
        qb.modify(QPState.INIT)
        qb.modify(QPState.RTR, remote=(ea.host.host_id, qa.qpn))
        qb.modify(QPState.RTS)
        ea.add_peer(b, qa)
        eb.add_peer(a, qb)

    def _new_qp(self, engine) -> QueuePair:
        nicp = engine.host.nic.profile
        qp = QueuePair(
            pd=engine.mr.pd, transport=Transport.RC,
            send_cq=engine.cq, recv_cq=engine.cq,
            qpn=engine.host.nic.next_qpn(),
            sq_depth=nicp.sq_depth, rq_depth=max(nicp.rq_depth, 4096),
            max_inline=nicp.inline_threshold,
        )
        engine.host.nic.register_qp(qp)
        return qp

    # -- launching -----------------------------------------------------------------

    def comm(self, rank: int) -> Communicator:
        return Communicator(self.engines[rank], self.size)

    def launch(self, program: Callable, *args) -> list:
        """Spawn ``program(comm, *args)`` as one process per rank."""
        procs = []
        for rank in range(self.size):
            comm = self.comm(rank)
            procs.append(
                self.sim.process(program(comm, *args), name=f"mpi.rank{rank}")
            )
        return procs

    def run(self, program: Callable, *args) -> list:
        """Launch and run to completion; returns per-rank results."""
        procs = self.launch(program, *args)
        done = self.sim.all_of(procs)
        self.sim.run(done)
        return [p.value for p in procs]
