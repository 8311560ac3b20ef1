"""N→1 incast regressions: receiver-side contention, drops, attribution.

The regression suite for the switch output-queue model: an 8→1 incast's
aggregate receive rate must cap at one link's bandwidth.  Also covers
the bounded switch buffer (tail drops recovered by RC
retransmission), the ``rx_port`` attribution stage, and the satellite
fabric fixes (delivered-only counters, loopback
fault coverage).
"""

import pytest

from repro.cluster import Fabric, build_cluster
from repro.errors import ConfigError, HardwareError
from repro.faults import FaultInjector, FaultPlan
from repro.hw.nic import HEADER_BYTES
from repro.hw.profiles import SYSTEM_L, RxContentionProfile, get_profile
from repro.perftest.incast import IncastConfig, run_incast, trace_incast
from repro.perftest.runner import PerftestConfig, run_attributed
from repro.sim import Simulator
from repro.telemetry import attribute_spans, build_spans, chrome_trace
from repro.units import to_gbit_per_s

LINK_GBIT = to_gbit_per_s(get_profile("L").nic.link_bw)


def _cfg(**kwargs):
    base = dict(senders=8, size=64 * 1024, msgs_per_sender=12, window=8)
    base.update(kwargs)
    return IncastConfig(**base)


# -- the tentpole: fan-in is bounded by the receiver's port -----------------------


def test_incast_rx_on_caps_aggregate_at_one_link():
    r = run_incast(_cfg())
    assert r.aggregate_gbit <= LINK_GBIT * 1.02
    assert r.messages_dropped == 0 and r.retransmits == 0
    # The queue really formed: at some instant ~7 messages sat waiting.
    assert r.rx_queue_peak_bytes >= 6 * 64 * 1024


def test_per_flow_goodput_splits_the_link():
    r4 = run_incast(_cfg(senders=4))
    r8 = run_incast(_cfg(senders=8))
    assert r8.per_flow_mean_gbit < r4.per_flow_mean_gbit
    # Fair-ish share: no flow starves outright.
    assert min(r8.flow_goodputs_gbit) > 0.3 * max(r8.flow_goodputs_gbit)


def test_bounded_buffer_drops_and_rc_recovers():
    r = run_incast(_cfg(buffer_bytes=1024 * 1024))
    assert r.messages_dropped > 0
    assert r.retransmits >= r.messages_dropped
    assert r.ack_timeouts > 0
    # Every flow still finished (goodput is measured to its completion).
    assert all(g > 0 for g in r.flow_goodputs_gbit)
    assert r.rx_queue_peak_bytes <= 1024 * 1024


def test_unbounded_rx_never_arms_recovery():
    """rx on with an unbounded buffer is lossless: no timers, no retries."""
    r = run_incast(_cfg(senders=4))
    assert r.messages_dropped == 0
    assert r.retransmits == 0 and r.ack_timeouts == 0


def test_incast_same_seed_is_bit_identical():
    a = run_incast(_cfg(senders=4, seed=9))
    b = run_incast(_cfg(senders=4, seed=9))
    assert repr(a.duration_ns) == repr(b.duration_ns)
    assert a.flow_goodputs_gbit == b.flow_goodputs_gbit
    assert a.rx_queue_peak_bytes == b.rx_queue_peak_bytes


# -- attribution: the rx_port stage owns the added latency ------------------------


def test_rx_port_stage_explains_added_incast_latency():
    """Every ``rx_port`` stage is one message's drain through the switch
    port (its serialization time) plus the fan-in queue ahead of it."""
    _r, sim, _hosts = trace_incast(_cfg(senders=4, msgs_per_sender=8))
    assert sim.trace.dropped == 0
    blames = attribute_spans(build_spans(sim.trace, op="post_send"))
    stages = [s for b in blames for s in b.stages
              if s.name.split("#")[0] == "rx_port"]
    # One per write at the receiver (host 0), one per ACK at its sender.
    assert len(blames) == 32 and len(stages) == 64
    wire = Fabric(Simulator(seed=1), SYSTEM_L.nic, propagation_ns=0.0)
    for s in stages:
        carried = 64 * 1024 + HEADER_BYTES if s.host == 0 else HEADER_BYTES
        assert s.service_ns == pytest.approx(wire.serialization_ns(carried),
                                             rel=1e-9)
    # And the stage rides the serial-server queue/service split.
    queued = [s for s in stages if s.queue_ns > 0]
    assert queued, "expected some rx_port stages to report queueing"


def test_rx_contention_off_has_no_rx_port_stage():
    """A back-to-back pair has no switch, so no ``rx_port`` stage."""
    cfg = PerftestConfig(iters=8, warmup=2, window=4, seed=7)
    _r, sim, _pair = run_attributed(cfg, 64 * 1024, "bw")
    blames = attribute_spans(build_spans(sim.trace, op="post_send"))
    assert blames
    assert not any(s.name.split("#")[0] == "rx_port"
                   for b in blames for s in b.stages)


# -- satellite fixes --------------------------------------------------------------


def test_rx_port_accessor_rejects_when_model_off():
    sim = Simulator(seed=1)
    fabric, _hosts = build_cluster(sim, SYSTEM_L, 2)  # back-to-back pair
    with pytest.raises(HardwareError):
        fabric.rx_port(0)


def test_fabric_counts_only_delivered_traffic():
    sim = Simulator(seed=1)
    fabric, _hosts = build_cluster(sim, SYSTEM_L, 2)
    fabric.inject_faults(FaultPlan(flaps=((0.0, 1e9),)))

    def proc():
        yield from fabric.transmit(0, 1, 4096, "payload")

    sim.run(sim.process(proc()))
    sim.run()
    assert fabric.messages_dropped == 1 and fabric.bytes_dropped == 4096
    assert fabric.messages_carried == 0 and fabric.bytes_carried == 0


def test_loopback_traffic_goes_through_fault_hook():
    """Regression: src==dst used to bypass the injector entirely."""
    sim = Simulator(seed=1)
    fabric, _hosts = build_cluster(sim, SYSTEM_L, 1)
    inj = fabric.inject_faults(FaultPlan(flaps=((0.0, 1e9),)))
    got = []
    fabric.nic(0).deliver = got.append

    def proc():
        yield from fabric.transmit(0, 0, 256, "hairpin")

    sim.run(sim.process(proc()))
    sim.run()
    assert got == []
    assert inj.drops == 1
    assert inj.snapshot()["drops_by_link"] == {"0-0": 1}
    assert fabric.messages_dropped == 1 and fabric.messages_carried == 0


def test_loopback_uses_dedicated_rng_stream():
    sim = Simulator(seed=3)
    inj = FaultInjector(sim, FaultPlan(loss=0.5), scope="fabric")
    for _ in range(8):
        inj.on_transmit(0, 0, 0.0, "send", 100, 0.0)
    assert "faults.fabric.loopback0" in sim.rng._streams
    assert "faults.fabric.l0-0" not in sim.rng._streams


def test_rx_contention_spec_validation():
    sim = Simulator(seed=1)
    with pytest.raises(HardwareError):
        Fabric(sim, SYSTEM_L.nic, propagation_ns=100.0, rx_contention="yes")
    fabric = Fabric(sim, SYSTEM_L.nic, propagation_ns=100.0,
                    rx_contention=RxContentionProfile(buffer_bytes=4096))
    assert fabric.rx_contention.buffer_bytes == 4096
    assert fabric.lossy  # bounded buffer can drop even without faults
    unbounded = Fabric(sim, SYSTEM_L.nic, propagation_ns=100.0,
                       rx_contention=RxContentionProfile())
    assert unbounded.rx_contention.buffer_bytes is None
    assert not unbounded.lossy  # unbounded: nothing can be lost


def test_retransmit_notes_match_the_counter():
    """A ``retransmit`` note is emitted where ``counters.retransmits`` is
    counted — when the duplicate really goes onto the wire.  Under incast
    tail drops many queued retries are overtaken by an ACK and never sent,
    so a note at queue time would overcount (56 notes for 50 sends here)."""
    cfg = _cfg(dataplane="cord", msgs_per_sender=8, window=16,
               buffer_bytes=256 * 1024, congestion="dcqcn")
    result, sim, _hosts = trace_incast(cfg)
    notes = sim.trace.select(event="note")
    names = {r.get("name") for r in notes}
    assert names >= {"retransmit", "ack_timeout", "rx_drop", "ecn_mark",
                     "cnp_send", "cnp_recv"}
    assert result.retransmits > 0
    assert sum(r.get("name") == "retransmit" for r in notes) \
        == result.retransmits
    # Every note is a Perfetto instant, span or not (a CNP has none).
    instants = [e for e in chrome_trace(sim.trace)["traceEvents"]
                if e["ph"] == "i"]
    assert len(instants) == len(notes)
    assert any(e["args"]["span"] is None for e in instants)


@pytest.mark.parametrize("buffer_bytes", [0, -4096])
def test_switch_buffer_must_hold_a_byte(buffer_bytes):
    """A switch port with no buffer tail-drops every message."""
    sim = Simulator(seed=1)
    with pytest.raises(HardwareError, match="buffer_bytes"):
        Fabric(sim, SYSTEM_L.nic, propagation_ns=100.0,
               rx_contention=RxContentionProfile(buffer_bytes=buffer_bytes))
    assert Fabric(sim, SYSTEM_L.nic, propagation_ns=100.0,
                  rx_contention=RxContentionProfile(buffer_bytes=1)).lossy


@pytest.mark.parametrize("window", [0, -1])
def test_incast_window_must_be_positive(window):
    """A zero window never posts, so every message used to be booked as
    failed behind a "dead" QP with an aggregate of 0.0."""
    with pytest.raises(ConfigError, match="window"):
        _cfg(senders=2, msgs_per_sender=2, window=window)


def test_incast_buffer_must_fit_one_write():
    """A write's wire size is its payload plus the RC header; a buffer
    below that drops every copy and every retransmit."""
    for buffer_bytes in (64 * 1024, 0, -1):
        with pytest.raises(ConfigError, match="buffer_bytes"):
            _cfg(senders=2, msgs_per_sender=2, buffer_bytes=buffer_bytes)
    r = run_incast(_cfg(senders=2, msgs_per_sender=2,
                        buffer_bytes=64 * 1024 + HEADER_BYTES))
    assert r.failed_msgs == 0 and r.aggregate_gbit > 0
