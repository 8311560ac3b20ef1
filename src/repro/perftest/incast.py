"""N→1 incast driver: many senders stream RDMA writes at one receiver.

The scale-out stress test for the fabric's switch output queue: the
flows share the receiver's switch output port, so the aggregate receive
rate caps at one link's bandwidth — with a bounded buffer, tail drops
feed the RC retransmit machinery.

Used by ``benchmarks/bench_incast.py`` (N/dataplane sweep and its
record), the ``repro incast`` CLI subcommand and the regression tests in
``tests/test_incast.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Generator, Optional

from repro.cluster import Fabric, Host, build_cluster
from repro.core.endpoint import Endpoint, connect, make_endpoint
from repro.errors import ConfigError
from repro.hw.nic import HEADER_BYTES
from repro.hw.profiles import RxContentionProfile, get_profile
from repro.sim import Simulator
from repro.units import to_gbit_per_s
from repro.verbs.qp import QPState
from repro.verbs.wr import Opcode, SendWR

#: Start offsets between sender loops (ns per sender index): real incast
#: senders are not clock-locked, and the skew keeps same-instant resource
#: grabs (heap-order coin flips) out of the model.
SENDER_SKEW_NS = 3.0


@dataclass(frozen=True)
class IncastConfig:
    """One incast run's parameters."""

    system: str = "L"
    #: Dataplane kind on every endpoint ("bypass"/"cord").
    dataplane: str = "bypass"
    senders: int = 8
    size: int = 64 * 1024
    msgs_per_sender: int = 32
    #: Per-sender write window (in-flight cap; clamped to sq_depth).
    window: int = 16
    seed: int = 7
    #: Switch output-port buffer in bytes; ``None`` = unbounded (no drops).
    buffer_bytes: Optional[int] = None
    #: End-to-end congestion control: "off" (default; bit-identical to the
    #: pre-CC model) or "dcqcn" (ECN marking + per-QP rate limiting — the
    #: fix for bounded-buffer congestion collapse).
    congestion: str = "off"

    def __post_init__(self):
        if self.senders < 1:
            raise ConfigError(f"need at least one sender, got {self.senders}")
        if self.msgs_per_sender < 1:
            raise ConfigError(
                f"need at least one message per sender, got {self.msgs_per_sender}"
            )
        if self.congestion not in ("off", "dcqcn"):
            raise ConfigError(
                f"congestion must be 'off' or 'dcqcn', got {self.congestion!r}"
            )
        if self.window < 1:
            raise ConfigError(
                f"window must be >= 1 (got {self.window}): no write could "
                "ever be posted"
            )
        if (self.buffer_bytes is not None
                and self.buffer_bytes < self.size + HEADER_BYTES):
            raise ConfigError(
                f"buffer_bytes {self.buffer_bytes} is below one write's wire "
                f"size ({self.size} + {HEADER_BYTES} B header): the switch "
                "would drop every write"
            )

    def with_(self, **kwargs) -> "IncastConfig":
        return replace(self, **kwargs)


@dataclass
class IncastResult:
    """Aggregate + per-flow outcome of one incast run."""

    config: IncastConfig
    #: First sender's loop start → last flow completion.
    duration_ns: float
    #: Per-sender goodput (payload bits over the flow's own lifetime).
    flow_goodputs_gbit: tuple
    #: Peak switch output-queue occupancy at the receiver.
    rx_queue_peak_bytes: int
    #: Messages lost in the fabric (switch tail drops; 0 when unbounded).
    messages_dropped: int
    #: RC loss recovery across all NICs.
    retransmits: int
    ack_timeouts: int
    #: Congestion-control loop activity (all zero with CC off): messages
    #: ECN-marked at the receiver's switch port, CNPs generated by the
    #: receiver NIC, and the lowest post-cut rate any sender reached
    #: (bytes/ns; 0.0 when no rate was ever cut).
    ecn_marked: int = 0
    cnps: int = 0
    min_rate: float = 0.0
    #: Messages that never delivered: RETRY_EXC_ERR under total collapse
    #: plus everything flushed/unposted behind the failure.  Zero unless
    #: congestion collapse actually defeats the RC retry budget.
    failed_msgs: int = 0

    @property
    def bytes_delivered(self) -> int:
        cfg = self.config
        return (cfg.senders * cfg.msgs_per_sender - self.failed_msgs) * cfg.size

    @property
    def aggregate_gbit(self) -> float:
        """Payload rate absorbed by the receiver over the whole run."""
        if self.duration_ns <= 0:
            return 0.0
        return to_gbit_per_s(self.bytes_delivered / self.duration_ns)

    @property
    def per_flow_mean_gbit(self) -> float:
        flows = self.flow_goodputs_gbit
        return sum(flows) / len(flows) if flows else 0.0


def _flow(
    sim: Simulator,
    config: IncastConfig,
    sender: Endpoint,
    rcv: Endpoint,
    spans: list[tuple[float, float]],
    fails: list[int],
    idx: int,
) -> Generator:
    """One sender: windowed signaled RDMA writes into its receiver buffer.

    Failed completions (``RETRY_EXC_ERR`` when congestion collapse defeats
    the retry budget, then ``WR_FLUSH_ERR`` for everything behind it) are
    *counted*, not asserted away: total collapse is a legitimate outcome
    this driver must be able to report.  ``fails[idx]`` collects the
    messages this flow never delivered, including any it could no longer
    post once its QP errored out.
    """
    size = config.size
    total = config.msgs_per_sender
    window = min(config.window, sender.qp.sq_depth)
    loop_ns = sender.host.system.cpu.loop_overhead_ns
    yield 1.0 + SENDER_SKEW_NS * idx
    t0 = sim.now
    posted = 0
    completed = 0
    failed = 0
    while completed < total:
        while (posted < total and posted - completed < window
               and sender.qp.state is QPState.RTS):
            yield from sender.core.run(loop_ns)
            wr = SendWR(wr_id=posted, opcode=Opcode.RDMA_WRITE,
                        addr=sender.buf.addr, length=size,
                        lkey=sender.mr.lkey, signaled=True,
                        remote_addr=rcv.buf.addr, rkey=rcv.mr.rkey)
            yield from sender.post_send(wr)
            posted += 1
        if completed == posted:
            # QP dead with nothing in flight: the rest will never post.
            failed += total - posted
            break
        cqes = yield from sender.wait_send(16)
        for cqe in cqes:
            if not cqe.ok:
                failed += 1
            completed += 1
    spans[idx] = (t0, sim.now)
    fails[idx] = failed


def build_incast(
    sim: Simulator, config: IncastConfig
) -> tuple[Fabric, list, list[tuple[Endpoint, Endpoint]]]:
    """Build the cluster + one connected RC pair per sender.

    Host 0 is the receiver; hosts 1..N each run one sender.  All receiver
    endpoints share one pinned core (the sink is passive for RDMA writes).
    """
    profile = get_profile(config.system)
    fabric, hosts = build_cluster(
        sim, profile, config.senders + 1,
        rx_contention=RxContentionProfile(buffer_bytes=config.buffer_bytes),
        congestion=config.congestion,
    )
    buf_bytes = max(config.size, 4096)
    pairs: list[tuple[Endpoint, Endpoint]] = []

    def setup() -> Generator:
        rx_core = hosts[0].cpus.pin()
        for shost in hosts[1:]:
            s = yield from make_endpoint(shost, config.dataplane,
                                         buf_bytes=buf_bytes)
            r = yield from make_endpoint(hosts[0], config.dataplane,
                                         core=rx_core, buf_bytes=buf_bytes)
            yield from connect(s, r)
            pairs.append((s, r))

    sim.run(sim.process(setup()))
    return fabric, hosts, pairs


def _drive(
    sim: Simulator, config: IncastConfig, fabric: Fabric, hosts, pairs
) -> IncastResult:
    spans: list[tuple[float, float]] = [(0.0, 0.0)] * config.senders
    fails: list[int] = [0] * config.senders

    def root() -> Generator:
        procs = [
            sim.process(_flow(sim, config, s, r, spans, fails, i),
                        name=f"incast.s{i + 1}")
            for i, (s, r) in enumerate(pairs)
        ]
        yield sim.all_of(procs)

    sim.run(sim.process(root(), name="incast.root"))
    t_first = min(t0 for t0, _ in spans)
    t_last = max(t1 for _, t1 in spans)
    goodputs = tuple(
        to_gbit_per_s((config.msgs_per_sender - nf) * config.size / (t1 - t0))
        if t1 > t0 else 0.0
        for (t0, t1), nf in zip(spans, fails)
    )
    port = fabric.rx_port(0)
    rates = [
        lim.lowest_rate for h in hosts for lim in h.nic._limiters.values()
        if lim.rate_cuts
    ]
    return IncastResult(
        config=config,
        duration_ns=t_last - t_first,
        flow_goodputs_gbit=goodputs,
        rx_queue_peak_bytes=port.peak_queued_bytes,
        messages_dropped=fabric.messages_dropped,
        retransmits=sum(h.nic.counters.retransmits for h in hosts),
        ack_timeouts=sum(h.nic.counters.ack_timeouts for h in hosts),
        ecn_marked=port.messages_marked,
        cnps=sum(h.nic.counters.cnps_sent for h in hosts),
        min_rate=min(rates) if rates else 0.0,
        failed_msgs=sum(fails),
    )


def run_incast(config: IncastConfig) -> IncastResult:
    """One incast run on a fresh, seeded simulator."""
    sim = Simulator(seed=config.seed)
    fabric, hosts, pairs = build_incast(sim, config)
    return _drive(sim, config, fabric, hosts, pairs)


def trace_incast(
    config: IncastConfig,
) -> tuple[IncastResult, Simulator, list[Host]]:
    """One incast run with a full trace kept for span attribution.

    Returns the hosts too, so a caller can snapshot the run it traced
    (``metrics_snapshot(sim, hosts=hosts)``).  Connection-setup records
    are cleared so spans cover measured writes only; callers should check
    ``sim.trace.dropped == 0`` before blaming.
    """
    from repro.sim.trace import Trace

    sim = Simulator(seed=config.seed, trace=Trace(enabled=True))
    fabric, hosts, pairs = build_incast(sim, config)
    sim.trace.clear()
    result = _drive(sim, config, fabric, hosts, pairs)
    return result, sim, hosts


def run_incast_attributed(
    config: IncastConfig,
) -> tuple[IncastResult, Simulator]:
    """:func:`trace_incast` without the hosts (perfbench's traced pass
    unpacks this pair)."""
    result, sim, _hosts = trace_incast(config)
    return result, sim
