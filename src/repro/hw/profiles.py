"""Calibrated hardware parameter sets.

The two shipped profiles mirror the paper's testbeds:

- **System L**: 2 nodes, Intel i5-4590 (4 cores, 3.3/3.7 GHz), NVIDIA
  ConnectX-6 Dx RoCE at 100 Gbit/s (motherboard-limited), back-to-back,
  Linux 6.0, KPTI off, Turbo Boost off, processes pinned.
- **System A**: 2 Azure HB120 nodes, AMD EPYC 7V73X (120 vCPUs),
  virtualized ConnectX-6 InfiniBand at 200 Gbit/s, KPTI off, DVFS cannot
  be disabled, syscall costs are larger and noisy (virtualization), and the
  CoRD prototype lacks inline-message support there (paper §5, fig. 5a).

Calibration anchors (paper §2 and §5):

- extra memcpy costs ~140 µs/MiB         -> memcpy_bw ≈ 7.5 GB/s
- baseline small-message bw ≈ 1.4 Gbit/s  -> per-message CPU ≈ 360 ns @64 B
- 32 KiB send: ~370 k msg/s, CoRD degradation ~1 %
- interrupt-driven completion adds a large, size-independent constant
- CoRD per-op overhead ≈ 0.3–0.7 µs/side on L; larger and bimodal on A
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.units import gbit_per_s, gib_per_s


@dataclass(frozen=True)
class CpuProfile:
    """Per-core timing parameters (all times in ns at nominal frequency)."""

    name: str
    cores: int
    nominal_ghz: float
    #: Max single-core turbo relative to nominal (1.0 == turbo off).
    turbo_headroom: float
    #: One user->kernel->user round trip for a null syscall, KPTI off.
    syscall_ns: float
    #: Extra cost KPTI adds to every syscall (CR3 switches + TLB effects).
    kpti_extra_ns: float
    #: Full context switch (schedule out + in), used on blocking waits.
    context_switch_ns: float
    #: Interrupt delivery to handler entry (APIC/vector dispatch).
    irq_entry_ns: float
    #: Interrupt handler body for a NIC completion (reap + wake).
    irq_handler_ns: float
    #: Cost of arming an event channel / entering epoll-style wait.
    block_ns: float
    #: User-level driver: build one WQE and prepare a post (ibverbs fast path).
    post_wqe_ns: float
    #: One ibv_poll_cq call that finds a completion (user space).
    poll_hit_ns: float
    #: One ibv_poll_cq call that finds nothing (user space).
    poll_miss_ns: float
    #: Benchmark/application loop bookkeeping per message.
    loop_overhead_ns: float
    #: EMA window for the DVFS duty-cycle estimate.
    dvfs_window_ns: float = 50_000.0
    #: Idle credit the DVFS model grants per syscall (models the observed
    #: "system calls interact with DVFS" effect, paper §5).
    dvfs_syscall_credit_ns: float = 0.0


@dataclass(frozen=True)
class MemoryProfile:
    """Host memory subsystem."""

    #: Single-threaded memcpy bandwidth (bytes/ns).  7.5 GB/s -> 140 us/MiB.
    memcpy_bw: float
    #: Fixed cost of any copy call (function + cache setup).
    memcpy_overhead_ns: float
    #: Cost to pin + map one 4 KiB page at registration time.
    page_pin_ns: float
    page_size: int = 4096


@dataclass(frozen=True)
class NicProfile:
    """ConnectX-like NIC engine parameters."""

    #: Link bandwidth (bytes/ns).
    link_bw: float
    #: Path MTU (bytes).
    mtu: int
    #: Per-packet wire/NIC overhead folded into serialization (headers,
    #: inter-frame gap, per-packet DMA descriptor work).
    per_packet_ns: float
    #: NIC send-engine occupancy per WQE (doorbell decode + WQE fetch + sched).
    wqe_process_ns: float
    #: NIC receive-engine occupancy per message.
    rx_process_ns: float
    #: PCIe DMA read latency (first byte) — WQE/payload fetch from host RAM.
    dma_read_lat_ns: float
    #: PCIe DMA write latency — payload/CQE delivery into host RAM.
    dma_write_lat_ns: float
    #: PCIe payload bandwidth (bytes/ns); x16 Gen3/4 outruns the link here.
    pcie_bw: float
    #: CPU-side MMIO doorbell write (posted, but store-buffer pressure).
    doorbell_ns: float
    #: Max message payload eligible for inline send (data in WQE).
    inline_threshold: int
    #: ACK turnaround at the responder NIC (RC reliability).
    ack_ns: float
    #: Base RC ACK-timeout: an un-acked PSN retransmits after
    #: ``ack_timeout_ns << retries`` (exponential back-off, computed in
    #: integer nanoseconds and clamped to ``max_ack_timeout_ns``).  Timers
    #: are armed only when a fault layer is attached or a bounded switch
    #: buffer can drop — the fabric is lossless otherwise — so this never
    #: perturbs fault-free runs.
    ack_timeout_ns: float = 100_000.0
    #: Ceiling on the backed-off ACK timeout.  Without a clamp retry 7
    #: waits ``128x`` the base timeout (~12.8 ms of dead air per PSN),
    #: which turns a transient congestion drop into a goodput cliff; real
    #: HCAs bound the timeout field to a few binades.  16x base here.
    max_ack_timeout_ns: float = 1_600_000.0
    #: Send queue depth per QP.
    sq_depth: int = 128
    #: Receive queue depth per QP.
    rq_depth: int = 512
    #: UD max payload = MTU (IB spec); RC segments larger messages.
    grh_bytes: int = 40
    #: Interrupt moderation delay before raising a completion IRQ.
    irq_moderation_ns: float = 0.0


@dataclass(frozen=True)
class RxContentionProfile:
    """A switched fabric's receiver side (see ``cluster/fabric.py``).

    Every switched :class:`~repro.cluster.fabric.Fabric` carries one
    (``build_cluster`` attaches the default for more than two hosts or
    with congestion control); only a back-to-back pair has none.  Every
    host gets an RX ingress port — a capacity-1 serial resource mirroring
    the TX side — fed by a switch output queue with ``buffer_bytes`` of
    buffering.  An N→1 incast therefore drains at one link's bandwidth,
    and a bounded buffer tail-drops overflow into the RC retransmit
    machinery.  The default (``None`` buffer) is an unbounded, lossless
    output queue: contention without drops.
    """

    #: Per switch-output-port buffer in bytes; ``None`` = unbounded.
    buffer_bytes: Optional[int] = None


@dataclass(frozen=True)
class CcProfile:
    """End-to-end congestion control (opt-in; DCQCN-style, Zhu et al.
    SIGCOMM'15).

    Three cooperating pieces, all driven by simulated time and named
    seeded RNG streams only:

    - **ECN marking** at the switch output queue (``cluster/fabric.py``):
      a request admitted while ``queued_bytes`` is at or above
      ``kmax_bytes`` is always marked; between ``kmin_bytes`` and
      ``kmax_bytes`` it is marked with probability rising linearly to
      ``pmax`` (WRED), drawn from the fabric's per-port ECN stream.
    - **CNP generation** at the responder NIC (``hw/nic.py``): an
      ECN-marked RC request triggers a congestion-notification packet
      back to the initiator through the normal TX path, throttled to at
      most one CNP per ``cnp_interval_ns`` per (initiator host, QP).
    - **Rate limiting** at the initiator NIC (``hw/congestion.py``): a
      per-QP DCQCN limiter cuts its rate multiplicatively on each CNP
      (``rate *= 1 - alpha/2``), tracks the congestion estimate ``alpha``
      with gain ``g``, and recovers through fast-recovery / additive /
      hyper increase stages on a ``rate_increase_ns`` timer.  WQE fetch
      is paced by a token bucket refilled at the current rate.  An ACK
      timeout is treated as the strongest congestion signal (a dropped
      message can never carry an ECN mark back): the rate drops to the
      floor, RTO-style, so retransmit waves cannot re-overflow the queue
      that dropped them.

    Entirely opt-in: ``SystemProfile.cc`` is ``None`` on the shipped
    profiles and the NIC/fabric hooks cost one branch when disabled, so
    every committed golden stays bit-identical.

    Defaults are tuned for the 16-into-1 incast on System L (100 Gbit/s
    links, 1 MiB switch buffer ≈ sixteen 64 KiB messages): feedback
    granularity is one *message*, not one MTU packet, and the queue-drain
    delay (~83 µs full) dominates the control loop, so recovery is set
    slower and the floor higher than NIC-firmware DCQCN defaults.
    """

    #: WRED low threshold: below this queue depth nothing is marked.
    kmin_bytes: int = 64 * 1024
    #: WRED high threshold: at or above this everything is marked.
    kmax_bytes: int = 320 * 1024
    #: Marking probability as the queue reaches ``kmax_bytes``.
    pmax: float = 0.5
    #: Min spacing between CNPs per (initiator host, QP) at the responder.
    cnp_interval_ns: float = 4_000.0
    #: Min spacing between successive rate cuts on one limiter (DCQCN's
    #: rate-reduce period): a burst of near-simultaneous CNPs/timeouts
    #: counts as one congestion event.
    cut_interval_ns: float = 50_000.0
    #: EWMA gain for the congestion estimate ``alpha`` (DCQCN's ``g``).
    g: float = 1.0 / 16.0
    #: Period of the alpha-decay timer (runs while alpha is elevated).
    alpha_update_ns: float = 20_000.0
    #: Period of the rate-increase timer (runs while rate < line rate).
    rate_increase_ns: float = 100_000.0
    #: Rate-increase rounds spent in fast recovery (halving toward the
    #: pre-cut target) before additive increase begins.
    fast_recovery_rounds: int = 2
    #: Additive increase step applied to the target rate (bytes/ns);
    #: 0.15625 B/ns == 1.25 Gbit/s per round.
    rai_bytes_per_ns: float = 0.15625
    #: Hyper increase step after ``hyper_after_rounds`` additive rounds.
    #: Mostly governs how fast an *uncongested* flow climbs from the
    #: conservative start to line rate — under sustained congestion the
    #: cuts keep resetting the round count below the hyper threshold.
    hai_bytes_per_ns: float = 1.5625
    #: Additive rounds before the increase goes hyper.
    hyper_after_rounds: int = 4
    #: Rate floor as a fraction of line rate (never pace below this).
    #: 0.05 keeps a fully collapsed 16-sender incast at ~80 % link
    #: utilization without overflowing the receiver queue.
    min_rate_fraction: float = 0.05
    #: Starting rate as a fraction of line rate (the RP initial-rate knob
    #: real DCQCN firmware exposes).  Feedback here is one CNP per
    #: *delivered 64 KiB message*, so a line-rate start lets N senders
    #: blast N×window messages into the switch buffer before the first
    #: notification can possibly arrive — the first-RTT drop burst is
    #: decided before the control loop exists.  A conservative start
    #: closes the loop before the buffer fills; the increase timer runs
    #: from creation, so an uncongested flow still climbs to line rate.
    initial_rate_fraction: float = 0.125
    #: Token-bucket burst allowance (bytes); one MTU keeps pacing tight.
    burst_bytes: int = 4096


@dataclass(frozen=True)
class SystemProfile:
    """A complete two-ish-node testbed description."""

    name: str
    cpu: CpuProfile
    memory: MemoryProfile
    nic: NicProfile
    #: One-way wire propagation (back-to-back cable or one switch hop).
    propagation_ns: float
    #: KPTI enabled? (both testbeds in the paper run with it off)
    kpti: bool
    #: Turbo/DVFS active? (off on L, cannot be disabled on A)
    turbo_enabled: bool
    #: Coefficient of variation for syscall/IRQ cost jitter (virtualization).
    syscall_jitter_cv: float
    #: Does the CoRD kernel path support inline sends?  (Not on A, §5.)
    cord_inline_supported: bool
    #: Extra per-dataplane-op kernel cost in CoRD beyond the null syscall:
    #: argument serialization + kernel-driver WQE path (paper §4: ioctl
    #: serialization is the main tax).
    cord_serialize_ns: float = 150.0
    cord_kernel_driver_ns: float = 120.0
    #: End-to-end congestion control (ECN + DCQCN-style rate limiting).
    #: ``None`` on the shipped profiles: the loop is strictly opt-in via
    #: ``build_cluster(..., congestion=...)`` / the ``--congestion`` CLI
    #: flag, so committed goldens and records stay bit-identical.
    cc: Optional[CcProfile] = None

    def syscall_cost(self) -> float:
        """Mean syscall round-trip including KPTI if enabled."""
        return self.cpu.syscall_ns + (self.cpu.kpti_extra_ns if self.kpti else 0.0)

    def cord_op_cost(self) -> float:
        """Mean extra CPU cost CoRD adds to one dataplane op (one side)."""
        return self.syscall_cost() + self.cord_serialize_ns + self.cord_kernel_driver_ns

    def with_overrides(self, **kwargs) -> "SystemProfile":
        """A copy with selected fields replaced (for ablation benches)."""
        return replace(self, **kwargs)


# ---------------------------------------------------------------------------
# System L: i5-4590 + ConnectX-6 Dx RoCE @ 100 Gbit/s, back-to-back.
# ---------------------------------------------------------------------------

_CPU_L = CpuProfile(
    name="i5-4590",
    cores=4,
    nominal_ghz=3.3,
    turbo_headroom=1.09,  # 3.6/3.3 all-core turbo
    syscall_ns=95.0,
    kpti_extra_ns=240.0,
    context_switch_ns=1_300.0,
    irq_entry_ns=600.0,
    irq_handler_ns=900.0,
    block_ns=350.0,
    post_wqe_ns=150.0,
    poll_hit_ns=90.0,
    poll_miss_ns=35.0,
    loop_overhead_ns=60.0,
    dvfs_syscall_credit_ns=25.0,
)

_MEM_L = MemoryProfile(
    memcpy_bw=gib_per_s(7.0),  # ~7.0 GiB/s -> ~140 us per MiB copied
    memcpy_overhead_ns=120.0,
    page_pin_ns=210.0,
)

_NIC_L = NicProfile(
    link_bw=gbit_per_s(100.0),  # motherboard-limited to 100 Gbit/s
    mtu=4096,
    per_packet_ns=25.0,
    wqe_process_ns=105.0,
    rx_process_ns=160.0,
    dma_read_lat_ns=310.0,
    dma_write_lat_ns=200.0,
    pcie_bw=gib_per_s(24.0),
    doorbell_ns=100.0,
    inline_threshold=220,
    ack_ns=150.0,
)

SYSTEM_L = SystemProfile(
    name="L",
    cpu=_CPU_L,
    memory=_MEM_L,
    nic=_NIC_L,
    propagation_ns=250.0,  # back-to-back DAC + PHY
    kpti=False,
    turbo_enabled=False,  # paper disables Turbo Boost on L
    syscall_jitter_cv=0.0,
    cord_inline_supported=True,
)


# ---------------------------------------------------------------------------
# System A: Azure HB120 (EPYC 7V73X) + virtualized ConnectX-6 IB @ 200 Gbit/s.
# ---------------------------------------------------------------------------

_CPU_A = CpuProfile(
    name="EPYC-7V73X",
    cores=120,
    nominal_ghz=3.0,
    turbo_headroom=1.12,
    syscall_ns=180.0,  # virtualized: pricier and noisy
    kpti_extra_ns=260.0,
    context_switch_ns=2_000.0,
    irq_entry_ns=1_500.0,  # virtual interrupt injection
    irq_handler_ns=1_200.0,
    block_ns=450.0,
    post_wqe_ns=80.0,
    poll_hit_ns=70.0,
    poll_miss_ns=28.0,
    loop_overhead_ns=50.0,
    dvfs_syscall_credit_ns=35.0,
)

_MEM_A = MemoryProfile(
    memcpy_bw=gib_per_s(11.0),
    memcpy_overhead_ns=90.0,
    page_pin_ns=450.0,  # hypervisor-mediated pinning
)

_NIC_A = NicProfile(
    link_bw=gbit_per_s(200.0),
    mtu=4096,
    per_packet_ns=18.0,
    wqe_process_ns=90.0,
    rx_process_ns=140.0,
    dma_read_lat_ns=420.0,  # SR-IOV / longer PCIe path
    dma_write_lat_ns=260.0,
    pcie_bw=gib_per_s(40.0),
    doorbell_ns=110.0,
    inline_threshold=1024,  # extended inline segments on the virtualized path
    ack_ns=130.0,
)

SYSTEM_A = SystemProfile(
    name="A",
    cpu=_CPU_A,
    memory=_MEM_A,
    nic=_NIC_A,
    propagation_ns=600.0,  # one switch hop in the cloud fabric
    kpti=False,  # hardware Meltdown mitigation; KPTI disabled
    turbo_enabled=True,  # provider policy: DVFS cannot be disabled
    syscall_jitter_cv=0.35,
    cord_inline_supported=False,  # prototype lacks inline there (fig. 5a)
    cord_serialize_ns=260.0,
    cord_kernel_driver_ns=180.0,
)


#: Registry for CLI/benchmark lookup by name.
PROFILES: dict[str, SystemProfile] = {"L": SYSTEM_L, "A": SYSTEM_A}


def get_profile(name: str) -> SystemProfile:
    """Look up a profile by name, raising a helpful error otherwise."""
    try:
        return PROFILES[name]
    except KeyError:
        raise KeyError(
            f"unknown system profile {name!r}; available: {sorted(PROFILES)}"
        ) from None
