"""Kernel model: completion channels/IRQs, IPoIB sockets, softirq."""

import pytest

from repro.cluster import build_pair
from repro.errors import KernelError
from repro.hw.profiles import SYSTEM_A, SYSTEM_L
from repro.kernel.netstack import NetstackProfile
from repro.sim import Simulator
from repro.units import us


def make_sockets(system=SYSTEM_L, seed=2):
    sim = Simulator(seed=seed)
    _fabric, host_a, host_b = build_pair(sim, system)
    dev_a = host_a.kernel.ensure_ipoib()
    dev_b = host_b.kernel.ensure_ipoib()
    registry = {}
    dev_a.registry = registry
    dev_b.registry = registry
    return sim, host_a, host_b, dev_a, dev_b


def test_socket_sendto_recvfrom_roundtrip():
    sim, host_a, host_b, dev_a, dev_b = make_sockets()
    payload = b"x" * 5000
    out = {}

    def receiver():
        sock = dev_b.socket()
        dev_b.bind(sock, 80)
        src, nbytes, data, _meta = yield from sock.recvfrom(host_b.cpus.pin())
        out["got"] = (src, nbytes, data)

    def sender():
        sock = dev_a.socket()
        yield from sock.sendto(host_a.cpus.pin(), host_b.host_id, 80,
                               len(payload), data=payload)

    sim.process(receiver())
    sim.process(sender())
    sim.run()
    assert out["got"] == (host_a.host_id, len(payload), payload)


def test_sendto_unbound_port_refused():
    sim, host_a, _hb, dev_a, _db = make_sockets()

    def sender():
        sock = dev_a.socket()
        yield from sock.sendto(host_a.cpus.pin(), 1, 9999, 64)

    with pytest.raises(KernelError, match="no socket bound"):
        sim.run(sim.process(sender()))


def test_double_bind_rejected():
    _sim, _ha, _hb, dev_a, _db = make_sockets()
    dev_a.bind(dev_a.socket(), 42)
    with pytest.raises(KernelError, match="already bound"):
        dev_a.bind(dev_a.socket(), 42)


def test_sendto_recvfrom_with_meta():
    sim, host_a, host_b, dev_a, dev_b = make_sockets()
    out = {}

    def receiver():
        sock = dev_b.socket()
        dev_b.bind(sock, 7)
        src, nbytes, _data, meta = yield from sock.recvfrom(host_b.cpus.pin())
        out["r"] = (src, nbytes, meta)

    def sender():
        sock = dev_a.socket()
        yield from sock.sendto(host_a.cpus.pin(), host_b.host_id, 7, 1234,
                               meta={"tag": 9})

    sim.process(receiver())
    sim.process(sender())
    sim.run()
    assert out["r"] == (host_a.host_id, 1234, {"tag": 9})


def test_large_message_segmented_and_reassembled():
    sim, host_a, host_b, dev_a, dev_b = make_sockets()
    nbytes = 300_000  # several 64 KiB bursts
    payload = bytes(range(256)) * (300_000 // 256) + b"\x00" * (300_000 % 256)
    out = {}

    def receiver():
        sock = dev_b.socket()
        dev_b.bind(sock, 7)
        _src, got_bytes, data, _meta = yield from sock.recvfrom(host_b.cpus.pin())
        out["r"] = (got_bytes, data)

    def sender():
        sock = dev_a.socket()
        yield from sock.sendto(host_a.cpus.pin(), host_b.host_id, 7, nbytes,
                               data=payload)

    sim.process(receiver())
    sim.process(sender())
    sim.run()
    assert out["r"][0] == nbytes
    assert out["r"][1] == payload


def test_interleaved_senders_reassemble_correctly():
    """Segments from two same-host senders must not cross-contaminate."""
    sim, host_a, host_b, dev_a, dev_b = make_sockets()
    out = []

    def receiver():
        sock = dev_b.socket()
        dev_b.bind(sock, 7)
        for _ in range(2):
            _s, n, data, meta = yield from sock.recvfrom(host_b.cpus.pin())
            out.append((meta, n, data[:1]))

    def sender(tag, fill):
        sock = dev_a.socket()
        payload = bytes([fill]) * 200_000
        yield from sock.sendto(host_a.cpus.pin(), host_b.host_id, 7, 200_000,
                               meta=tag, data=payload)

    sim.process(receiver())
    sim.process(sender("s1", 0xAA))
    sim.process(sender("s2", 0xBB))
    sim.run()
    by_tag = {meta: first for meta, _n, first in out}
    assert by_tag == {"s1": b"\xaa", "s2": b"\xbb"}


def test_bulk_payload_roundtrip_exact():
    sim, host_a, host_b, dev_a, dev_b = make_sockets()
    payload = bytes(range(256)) * 512  # 128 KiB, crosses burst segmentation
    out = {}

    def receiver():
        sock = dev_b.socket()
        dev_b.bind(sock, 80)
        _src, _n, data, _meta = yield from sock.recvfrom(host_b.cpus.pin())
        out["data"] = data

    def sender():
        sock = dev_a.socket()
        yield from sock.sendto(host_a.cpus.pin(), host_b.host_id, 80,
                               len(payload), data=payload)
        out["sent"] = sock.bytes_sent

    sim.process(receiver())
    sim.process(sender())
    sim.run()
    assert out["sent"] == len(payload)
    assert out["data"] == payload


def test_socket_bulk_far_slower_than_verbs():
    """The full socket path (copies + per-packet kernel work) caps well
    below the RDMA wire rate — the premise of the whole paper."""
    sim, host_a, host_b, dev_a, dev_b = make_sockets(seed=4)
    nbytes = 4 << 20
    out = {}

    def receiver():
        sock = dev_b.socket()
        dev_b.bind(sock, 80)
        yield from sock.recvfrom(host_b.cpus.pin())
        out["t"] = sim.now

    def sender():
        sock = dev_a.socket()
        out["t0"] = sim.now
        yield from sock.sendto(host_a.cpus.pin(), host_b.host_id, 80, nbytes)

    sim.process(receiver())
    sim.process(sender())
    sim.run()
    gbit = nbytes * 8 / (out["t"] - out["t0"])
    assert gbit < 60  # far below the 100 Gbit/s the RDMA path reaches
    assert gbit > 2


def test_socket_latency_far_above_verbs():
    """The socket path costs micro-seconds where verbs costs ~1.5 us."""
    sim, host_a, host_b, dev_a, dev_b = make_sockets()
    out = {}

    def receiver():
        sock = dev_b.socket()
        dev_b.bind(sock, 7)
        yield from sock.recvfrom(host_b.cpus.pin())
        out["t"] = sim.now

    def sender():
        sock = dev_a.socket()
        yield from sock.sendto(host_a.cpus.pin(), host_b.host_id, 7, 64)

    sim.process(receiver())
    sim.process(sender())
    sim.run()
    assert out["t"] > us(4)


def test_softirq_serializes_receive_processing():
    """Aggregate IPoIB receive throughput is capped by softirq, not wire."""
    profile = NetstackProfile()
    per_byte = profile.rx_per_packet_ns / profile.ipoib_mtu
    softirq_bw = 1.0 / per_byte  # bytes/ns
    assert softirq_bw < SYSTEM_A.nic.link_bw  # the model's whole point


def test_netstack_profile_packet_math():
    p = NetstackProfile()
    assert p.packets(0) == 1
    assert p.packets(2044) == 1
    assert p.packets(2045) == 2
    assert p.tx_kernel_ns(2045) == pytest.approx(
        p.per_message_ns + 2 * p.tx_per_packet_ns)


def test_completion_channel_wakeup_costs():
    """Event-driven completion pays block + wakeup + context switch."""
    sim = Simulator(seed=2)
    _fabric, host_a, _hb = build_pair(sim, SYSTEM_L)
    kernel = host_a.kernel
    chan = kernel.create_comp_channel()
    core = host_a.cpus.pin()

    from repro.verbs.cq import CompletionQueue

    cq = CompletionQueue(sim, depth=8)
    kernel.attach_cq(cq)
    kernel.bind_cq_to_channel(cq, chan)
    out = {}

    def waiter():
        t0 = sim.now
        got = yield from chan.wait(core)
        out["elapsed"] = sim.now - t0
        out["cq"] = got

    def producer():
        yield sim.timeout(us(5))
        cq.req_notify()
        from repro.verbs.wr import CQE, Opcode, WCStatus

        cq.push(CQE(wr_id=1, status=WCStatus.SUCCESS, opcode=Opcode.SEND,
                    byte_len=0, qp_num=1))

    sim.process(waiter())
    sim.process(producer())
    sim.run()
    assert out["cq"] is cq
    cpu = SYSTEM_L.cpu
    floor = us(5) + cpu.irq_entry_ns + cpu.context_switch_ns
    assert out["elapsed"] >= floor


def test_zero_byte_message_roundtrip():
    sim, host_a, host_b, dev_a, dev_b = make_sockets()
    out = {}

    def receiver():
        sock = dev_b.socket()
        dev_b.bind(sock, 9)
        src, nbytes, data, meta = yield from sock.recvfrom(host_b.cpus.pin())
        out["r"] = (nbytes, meta)

    def sender():
        sock = dev_a.socket()
        yield from sock.sendto(host_a.cpus.pin(), host_b.host_id, 9, 0,
                               meta="empty")

    sim.process(receiver())
    sim.process(sender())
    sim.run()
    assert out["r"] == (0, "empty")


def test_negative_send_rejected():
    sim, host_a, host_b, dev_a, dev_b = make_sockets()
    sock = dev_b.socket()
    dev_b.bind(sock, 9)

    def sender():
        s = dev_a.socket()
        yield from s.sendto(host_a.cpus.pin(), host_b.host_id, 9, -5)

    with pytest.raises(KernelError):
        sim.run(sim.process(sender()))


def test_softirq_is_shared_across_sockets_of_a_host():
    """Two receivers on one host contend for the same softirq context."""
    sim, host_a, host_b, dev_a, dev_b = make_sockets()
    done = []

    def receiver(port):
        sock = dev_b.socket()
        dev_b.bind(sock, port)
        yield from sock.recvfrom(host_b.cpus.pin())
        done.append(sim.now)

    def sender(port):
        sock = dev_a.socket()
        yield from sock.sendto(host_a.cpus.pin(), host_b.host_id, port, 60_000)

    sim.process(receiver(11))
    sim.process(receiver(12))
    sim.process(sender(11))
    sim.process(sender(12))
    sim.run()
    assert len(done) == 2
    assert dev_b.softirq.packets_processed >= 2 * (60_000 // 2044)
