"""Fabric and NIC engine behaviour: serialization, sharing, loopback, UD."""

import pytest

from repro.cluster import build_cluster, build_pair
from repro.core.endpoint import connect, make_endpoint, make_rc_pair, make_ud_pair
from repro.errors import HardwareError
from repro.hw.nic import ACK_RX_FRACTION
from repro.hw.profiles import SYSTEM_L
from repro.sanitize import drain_global_findings
from repro.sim import Simulator
from repro.units import to_gbit_per_s, us
from repro.verbs.wr import Opcode, RecvWR, SendWR, WireMessage


def test_fabric_serialization_includes_packet_tax():
    sim = Simulator()
    fabric, _hosts = build_cluster(sim, SYSTEM_L, 2)
    nicp = SYSTEM_L.nic
    one = fabric.serialization_ns(100)
    assert one == pytest.approx(nicp.per_packet_ns + 100 / nicp.link_bw)
    # 3 packets for 3*MTU bytes.
    three = fabric.serialization_ns(3 * nicp.mtu)
    assert three == pytest.approx(3 * nicp.per_packet_ns + 3 * nicp.mtu / nicp.link_bw)


def test_fabric_rejects_unknown_host_and_negative_size():
    sim = Simulator()
    fabric, _ = build_cluster(sim, SYSTEM_L, 2)
    with pytest.raises(HardwareError):
        fabric.nic(99)

    def proc():
        yield from fabric.transmit(0, 1, -5, None)

    with pytest.raises(HardwareError):
        sim.run(sim.process(proc()))


def test_tx_port_is_shared_across_flows():
    """Two QPs on one host share the host's single TX port (fan-out caps)."""
    sim = Simulator(seed=2)
    _fabric, hosts = build_cluster(sim, SYSTEM_L, 3)
    src, dst1, dst2 = hosts
    size = 1 << 20
    done = []

    def stream(dst, tag):
        ep = yield from make_endpoint(src, "bypass")
        peer = yield from make_endpoint(dst, "bypass")
        yield from connect(ep, peer)
        t0 = sim.now
        nmsgs = 16
        for i in range(nmsgs):
            yield from ep.post_send(SendWR(
                wr_id=i, opcode=Opcode.RDMA_WRITE, addr=ep.buf.addr, length=size,
                lkey=ep.mr.lkey, remote_addr=peer.buf.addr, rkey=peer.mr.rkey,
                signaled=(i == nmsgs - 1)))
        while True:
            cqes = yield from ep.wait_send()
            if cqes:
                break
        done.append((tag, to_gbit_per_s(nmsgs * size / (sim.now - t0))))

    sim.process(stream(dst1, "flow1"))
    sim.process(stream(dst2, "flow2"))
    sim.run()
    total = sum(rate for _tag, rate in done)
    # Two flows to different destinations still share ~100 Gbit/s egress.
    assert total < 110.0
    assert total > 60.0


def _port_race(hosts_n: int, sources: tuple, dst: int,
               sanitize: bool = False) -> tuple:
    """Same-instant messages of 4 KiB from ``sources`` to ``dst`` on a
    system L cluster: (leave and delivery log, heap records)."""
    sim = Simulator(seed=0, sanitize=sanitize)
    fabric, hosts = build_cluster(sim, SYSTEM_L, hosts_n)
    log = []
    hosts[dst].nic.deliver = lambda p: log.append(("rx", p, sim.now))

    def send(src, tag):
        yield from fabric.transmit(src, dst, 4096, tag)
        log.append(("left", tag, sim.now))

    for i, src in enumerate(sources):
        sim.process(send(src, i))
    sim.run()
    drain_global_findings()
    return log, sim.events_scheduled


def test_same_instant_messages_share_the_tx_port_in_fifo_order():
    # Two messages from one host at t=0: the second waits for the port and
    # is granted through one zero-delay record at the first's release.
    # Pinned values; the sanitized run's port path must agree.
    want = ([("left", 0, 352.68), ("rx", 0, 602.6800000000001),
             ("left", 1, 705.36), ("rx", 1, 955.36)], 9)
    assert _port_race(2, (0, 0), 1) == want
    assert _port_race(2, (0, 0), 1, sanitize=True) == want


def test_two_to_one_incast_drains_through_the_switch_rx_port():
    # Two hosts send to a third at t=0: both leave at once, then drain one
    # after the other through the receiver's switch output port.
    want = ([("left", 0, 352.68), ("left", 1, 352.68),
             ("rx", 0, 955.3600000000001), ("rx", 1, 1308.0400000000002)], 11)
    assert _port_race(3, (0, 1), 2) == want
    assert _port_race(3, (0, 1), 2, sanitize=True) == want


def test_loopback_same_host_faster_than_wire_but_not_free():
    sim = Simulator(seed=2)
    _fabric, hosts = build_cluster(sim, SYSTEM_L, 1)
    host = hosts[0]

    def main():
        a = yield from make_endpoint(host, "bypass")
        b = yield from make_endpoint(host, "bypass")
        yield from connect(a, b)
        yield from b.post_recv(RecvWR(wr_id=1, addr=b.buf.addr,
                                      length=b.buf.length, lkey=b.mr.lkey))
        t0 = sim.now
        yield from a.post_send(SendWR(wr_id=1, opcode=Opcode.SEND,
                                      addr=a.buf.addr, length=65536,
                                      lkey=a.mr.lkey))
        cqes = yield from b.wait_recv()
        assert cqes[0].ok
        return sim.now - t0

    elapsed = sim.run(sim.process(main()))
    assert 0 < elapsed < us(50)


def test_fabric_two_node_transmit():
    sim = Simulator()
    fabric, _host_a, _host_b = build_pair(sim, SYSTEM_L)
    got = []
    fabric.nic(1).deliver = lambda msg: got.append((msg, sim.now))

    def proc():
        yield from fabric.transmit(0, 1, 4096, "payload")
        return sim.now

    left_wire = sim.run(sim.process(proc()))
    sim.run()
    assert left_wire == pytest.approx(fabric.serialization_ns(4096))
    assert got == [("payload", left_wire + fabric.propagation_ns)]


def test_nic_counters_track_traffic():
    sim = Simulator(seed=1)
    _fabric, host_a, host_b = build_pair(sim, SYSTEM_L)

    def main():
        a, b = yield from make_rc_pair(host_a, host_b, "bypass", "bypass")
        for i in range(3):
            yield from b.post_recv(RecvWR(wr_id=i, addr=b.buf.addr,
                                          length=b.buf.length, lkey=b.mr.lkey))
        for i in range(3):
            yield from a.post_send(SendWR(wr_id=i, opcode=Opcode.SEND,
                                          addr=a.buf.addr, length=1024,
                                          lkey=a.mr.lkey))
        got = 0
        while got < 3:
            got += len((yield from b.wait_recv()))

    sim.run(sim.process(main()))
    sim.run()
    assert host_a.nic.counters.tx_msgs == 3
    assert host_b.nic.counters.rx_msgs == 3
    assert host_b.nic.counters.acks_sent == 3
    assert host_b.nic.counters.rx_bytes >= 3 * 1024


def test_ud_drop_when_no_recv_posted():
    sim = Simulator(seed=1)
    _fabric, host_a, host_b = build_pair(sim, SYSTEM_L)

    def main():
        a, b = yield from make_ud_pair(host_a, host_b, "bypass", "bypass")
        wr = SendWR(wr_id=1, opcode=Opcode.SEND, addr=a.buf.addr, length=256,
                    lkey=a.mr.lkey, ah=b.addr)
        yield from a.post_send(wr)
        cqes = yield from a.wait_send()  # UD send still completes locally
        assert cqes[0].ok
        yield sim.timeout(us(50))
        return b.host.nic.counters.ud_drops

    assert sim.run(sim.process(main())) == 1


def test_memory_watch_fires_only_for_overlapping_range():
    sim = Simulator(seed=1)
    _fabric, host_a, host_b = build_pair(sim, SYSTEM_L)

    def main():
        a, b = yield from make_rc_pair(host_a, host_b, "bypass", "bypass")
        hit = b.host.nic.watch_memory(b.buf.addr, 64)
        miss = b.host.nic.watch_memory(b.buf.addr + 1 << 20, 64)
        wr = SendWR(wr_id=1, opcode=Opcode.RDMA_WRITE, addr=a.buf.addr,
                    length=64, lkey=a.mr.lkey,
                    remote_addr=b.buf.addr, rkey=b.mr.rkey)
        yield from a.post_send(wr)
        yield from a.wait_send()
        yield sim.timeout(us(10))
        return hit.triggered, miss.triggered

    assert sim.run(sim.process(main())) == (True, False)


# -- NIC engine service order ------------------------------------------------------
#
# The TX engine serves doorbelled WQEs one at a time (``wqe_process_ns``
# each, plus any congestion-control pacing) and hands every served WQE to
# the per-message ``_initiate`` stage; the RX engine serves arrivals one at
# a time (``rx_process_ns``, a quarter of it for ACK/NAK/CNP) and hands
# each to ``_dispatch``.  A hand-off is the inline call of the stage, made
# after the engine has taken its next item.  These tests pin when each
# hand-off happens and what the fast-forward queue-depth fingerprint sees
# meanwhile.


def _record_handoffs(monkeypatch, nic, method, log, extra, forward=True):
    """Log ``(now, *extra(arg))`` whenever ``nic`` hands ``arg`` to its
    ``<method>`` stage.

    With ``forward=False`` the stage is swallowed, for fake arrivals that
    target no QP.
    """
    stage = getattr(nic, method)

    def wrapped(arg):
        log.append((nic.sim.now, *extra(arg)))
        if forward:
            stage(arg)

    monkeypatch.setattr(nic, method, wrapped)


def _arrival(kind):
    return WireMessage(kind=kind, src_host=1, dst_host=0, src_qpn=1,
                       dst_qpn=2, transport="RC", psn=0, length=64)


def _rc_pairs(sim, src, dst, n):
    out = []

    def main():
        for _ in range(n):
            out.append((yield from make_rc_pair(src, dst, "bypass", "bypass")))

    sim.run(sim.process(main()))
    return out


def _write(ep, peer, wr_id, length=64):
    return SendWR(wr_id=wr_id, opcode=Opcode.RDMA_WRITE, addr=ep.buf.addr,
                  length=length, lkey=ep.mr.lkey, remote_addr=peer.buf.addr,
                  rkey=peer.mr.rkey, signaled=False)


def test_tx_burst_is_spaced_by_wqe_process_ns_in_fifo_order_across_qps(
        monkeypatch):
    sim = Simulator(seed=1)
    _fabric, host_a, host_b = build_pair(sim, SYSTEM_L)
    pairs = _rc_pairs(sim, host_a, host_b, 2)
    nic = host_a.nic
    log = []
    _record_handoffs(monkeypatch, nic, "_initiate", log,
                     lambda item: (item[0].qpn, item[1].wr_id,
                                   nic._queue_depth_state()[0]))
    n = 6
    posted = []
    depth_after_burst = []

    def burst():
        yield sim.timeout(us(1))
        for i in range(n):
            ep, peer = pairs[i % 2]
            nic.hw_post_send(ep.qp, _write(ep, peer, i))
            posted.append((ep.qp.qpn, i))
        depth_after_burst.append(nic._queue_depth_state()[0])
        return sim.now

    t0 = sim.run(sim.process(burst()))
    sim.run()
    # FIFO across QPs: served in exactly the post order.
    assert [(qpn, wr_id) for _t, qpn, wr_id, _d in log] == posted
    # Spaced by the WQE-processing occupancy, accumulated like the engine.
    expected = []
    t = t0
    for _ in range(n):
        t = t + nic.profile.wqe_process_ns
        expected.append(t)
    assert [t for t, *_ in log] == expected
    # The WQE in service is never counted as queued: N-1 wait right after
    # the burst, and each hand-off happens after the next WQE is taken.
    assert depth_after_burst == [n - 1]
    assert [d for *_, d in log] == list(range(n - 2, -1, -1)) + [0]
    assert nic._queue_depth_state()[:2] == (0, 0)


def test_rx_control_messages_cost_ack_fraction_of_rx_process_ns(monkeypatch):
    sim = Simulator(seed=1)
    _fabric, host_a, _host_b = build_pair(sim, SYSTEM_L)
    nic = host_a.nic
    log = []
    _record_handoffs(monkeypatch, nic, "_dispatch", log,
                     lambda msg: (msg.kind,), forward=False)
    kinds = ["ack", "nak_rnr", "cnp", "send", "write", "read_resp"]
    full = nic.profile.rx_process_ns
    cost = {k: full * ACK_RX_FRACTION if k in ("ack", "nak_rnr", "cnp") else full
            for k in kinds}

    def feed():
        # One at a time, then the same kinds as one same-instant burst.
        alone = []
        for kind in kinds:
            t = sim.now
            nic.deliver(_arrival(kind))
            alone.append(t + cost[kind])
            yield sim.timeout(us(1))
        t = sim.now
        burst = []
        for kind in kinds:
            nic.deliver(_arrival(kind))
        for kind in kinds:
            t = t + cost[kind]
            burst.append(t)
        return alone + burst

    expected = sim.run(sim.process(feed()))
    sim.run()
    assert [k for _t, k in log] == kinds + kinds
    assert [t for t, _k in log] == expected
    assert nic._queue_depth_state()[:2] == (0, 0)


def test_rx_burst_depth_counts_only_waiting_messages(monkeypatch):
    sim = Simulator(seed=1)
    _fabric, host_a, _host_b = build_pair(sim, SYSTEM_L)
    nic = host_a.nic
    depths = []
    _record_handoffs(monkeypatch, nic, "_dispatch", depths,
                     lambda msg: (nic._queue_depth_state()[1],), forward=False)

    def feed():
        yield sim.timeout(us(1))
        for _ in range(4):
            nic.deliver(_arrival("cnp"))
        return nic._queue_depth_state()[1]

    assert sim.run(sim.process(feed())) == 3
    sim.run()
    # Each hand-off follows the engine taking the next arrival.
    assert [d for _t, d in depths] == [2, 1, 0, 0]


def test_cc_paced_qp_holds_the_tx_engine_for_other_qps(monkeypatch):
    sim = Simulator(seed=3)
    _fabric, hosts = build_cluster(sim, SYSTEM_L, 2, congestion="dcqcn")
    src, dst = hosts
    nic = src.nic
    assert nic.cc is not None
    (big, big_peer), (small, small_peer) = _rc_pairs(sim, src, dst, 2)
    log = []
    _record_handoffs(monkeypatch, nic, "_initiate", log,
                     lambda item: (item[1].wr_id,))
    wqe = nic.profile.wqe_process_ns

    def burst():
        yield sim.timeout(us(1))
        # 64 KiB against a fresh limiter's 4 KiB bucket: paced.  The small
        # WQE on another QP fits its own bucket but queues behind it.
        nic.hw_post_send(big.qp, _write(big, big_peer, 1, length=64 * 1024))
        nic.hw_post_send(small.qp, _write(small, small_peer, 2))
        return sim.now

    t0 = sim.run(sim.process(burst()))
    sim.run(until=sim.now + us(200))
    (t_big, id_big), (t_small, id_small) = log[:2]
    assert (id_big, id_small) == (1, 2)
    paced = nic._limiters[big.qp.qpn].paced_ns
    assert paced > 0.0
    assert nic._limiters[small.qp.qpn].paced_ns == 0.0
    assert t_big == (t0 + paced) + wqe
    # Not t0 + 2*wqe: the paced QP held the single scheduler slot.
    assert t_small == t_big + wqe
