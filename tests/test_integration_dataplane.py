"""Integration tests: endpoints, dataplanes and the NIC end to end."""

import pytest

from repro.cluster import build_pair
from repro.core.dataplane import WaitMode
from repro.core.endpoint import make_rc_pair, make_ud_pair
from repro.hw.profiles import SYSTEM_L
from repro.sim import Simulator
from repro.units import us
from repro.verbs.wr import Opcode, RecvWR, SendWR, WCStatus


def run_pair(scenario, kind_a="bypass", kind_b="bypass", transport="rc", system=SYSTEM_L):
    """Build a two-host testbed, create a pair, run the scenario process."""
    sim = Simulator(seed=1)
    _fabric, host_a, host_b = build_pair(sim, system)

    def main():
        if transport == "rc":
            a, b = yield from make_rc_pair(host_a, host_b, kind_a, kind_b)
        else:
            a, b = yield from make_ud_pair(host_a, host_b, kind_a, kind_b)
        result = yield from scenario(sim, a, b)
        return result

    return sim.run(sim.process(main()))


def _send_one(sim, a, b, nbytes=4096, payload=None):
    """b posts a recv; a sends; both reap completions."""
    yield from b.post_recv(RecvWR(wr_id=1, addr=b.buf.addr, length=b.buf.length, lkey=b.mr.lkey))
    wr = SendWR(wr_id=2, opcode=Opcode.SEND, addr=a.buf.addr, length=nbytes,
                lkey=a.mr.lkey, data=payload)
    if a.qp.transport.value == "UD":
        wr.ah = b.addr
    yield from a.post_send(wr)
    recv_cqes = yield from b.wait_recv()
    send_cqes = yield from a.wait_send()
    return recv_cqes, send_cqes, sim.now


@pytest.mark.parametrize("kind_a,kind_b", [
    ("bypass", "bypass"), ("cord", "bypass"), ("bypass", "cord"), ("cord", "cord"),
])
def test_rc_send_completes_both_sides(kind_a, kind_b):
    recv_cqes, send_cqes, _ = run_pair(_send_one, kind_a, kind_b)
    assert len(recv_cqes) == 1 and recv_cqes[0].ok
    assert recv_cqes[0].byte_len == 4096
    assert len(send_cqes) == 1 and send_cqes[0].ok


def test_rc_send_delivers_payload():
    payload = bytes(range(256)) * 16  # 4096 bytes

    def scenario(sim, a, b):
        a.buf.write(0, payload)
        return (yield from _send_one(sim, a, b, nbytes=4096))

    recv_cqes, _, _ = run_pair(scenario)
    assert recv_cqes[0].data == payload
    # And it actually landed in the receiver's registered buffer.


def test_ud_send_completes():
    recv_cqes, send_cqes, _ = run_pair(_send_one, transport="ud")
    assert recv_cqes[0].ok and send_cqes[0].ok


def test_ud_oversized_message_rejected():
    from repro.errors import VerbsError

    def scenario(sim, a, b):
        wr = SendWR(wr_id=1, opcode=Opcode.SEND, addr=a.buf.addr,
                    length=8192, lkey=a.mr.lkey, ah=b.addr)
        with pytest.raises(VerbsError, match="MTU"):
            yield from a.post_send(wr)
        return "ok"
        yield  # pragma: no cover

    assert run_pair(scenario, transport="ud") == "ok"


def test_cord_latency_exceeds_bypass():
    """CoRD adds a constant per-side overhead (the paper's core trade-off)."""
    _, _, t_bp = run_pair(_send_one, "bypass", "bypass")
    _, _, t_cd = run_pair(_send_one, "cord", "cord")
    assert t_cd > t_bp
    # Overhead should be well under 5 us for a single message on system L.
    assert t_cd - t_bp < us(5)


def test_polls_count_the_same_on_both_dataplanes():
    """wait_cq's missed probe is one poll whichever dataplane charges it."""

    def scenario(sim, a, b):
        yield from _send_one(sim, a, b)
        return a.dataplane.polls, b.dataplane.polls

    bp = run_pair(scenario, "bypass", "bypass")
    assert bp == run_pair(scenario, "cord", "cord")
    assert bp == (2, 2)  # per side: the missed probe plus the reap


def test_rdma_write_places_data_without_receiver_cpu():
    payload = b"\xab" * 2048

    def scenario(sim, a, b):
        a.buf.write(0, payload)
        wr = SendWR(wr_id=3, opcode=Opcode.RDMA_WRITE, addr=a.buf.addr,
                    length=2048, lkey=a.mr.lkey,
                    remote_addr=b.buf.addr, rkey=b.mr.rkey, data=payload)
        yield from a.post_send(wr)
        cqes = yield from a.wait_send()
        return cqes, b.buf.read(0, 2048), b.dataplane.polls

    cqes, landed, b_polls = run_pair(scenario)
    assert cqes[0].ok and cqes[0].opcode is Opcode.RDMA_WRITE
    assert landed == payload
    assert b_polls == 0  # one-sided: receiver CPU never participated


def test_rdma_read_fetches_remote_data():
    payload = b"\x5a" * 1024

    def scenario(sim, a, b):
        b.buf.write(0, payload)
        wr = SendWR(wr_id=4, opcode=Opcode.RDMA_READ, addr=a.buf.addr,
                    length=1024, lkey=a.mr.lkey,
                    remote_addr=b.buf.addr, rkey=b.mr.rkey)
        yield from a.post_send(wr)
        cqes = yield from a.wait_send()
        return cqes, a.buf.read(0, 1024)

    cqes, fetched = run_pair(scenario)
    assert cqes[0].ok and cqes[0].opcode is Opcode.RDMA_READ
    assert fetched == payload


def test_rdma_write_bad_rkey_error_completion():
    def scenario(sim, a, b):
        wr = SendWR(wr_id=5, opcode=Opcode.RDMA_WRITE, addr=a.buf.addr,
                    length=64, lkey=a.mr.lkey,
                    remote_addr=b.buf.addr, rkey=0xDEAD)
        yield from a.post_send(wr)
        cqes = yield from a.wait_send()
        return cqes

    cqes = run_pair(scenario)
    assert cqes[0].status is WCStatus.REM_ACCESS_ERR


def test_rnr_retry_recovers_when_recv_posted_late():
    def scenario(sim, a, b):
        wr = SendWR(wr_id=6, opcode=Opcode.SEND, addr=a.buf.addr,
                    length=256, lkey=a.mr.lkey)
        yield from a.post_send(wr)
        # Receiver posts its recv WQE only after a delay: the first delivery
        # RNR-NAKs, the NIC retries, and everything completes.
        yield sim.timeout(us(30))
        yield from b.post_recv(RecvWR(wr_id=7, addr=b.buf.addr, length=4096, lkey=b.mr.lkey))
        recv_cqes = yield from b.wait_recv()
        send_cqes = yield from a.wait_send()
        return recv_cqes, send_cqes, b.host.nic.counters.rnr_naks_sent

    recv_cqes, send_cqes, naks = run_pair(scenario)
    assert recv_cqes[0].ok and send_cqes[0].ok
    assert naks >= 1


def test_event_driven_wait_completes_and_costs_more():
    """The interrupt path works and adds the constant no-polling tax."""

    def scenario_mode(mode):
        def scenario(sim, a, b):
            yield from b.post_recv(RecvWR(wr_id=1, addr=b.buf.addr, length=4096, lkey=b.mr.lkey))
            start = sim.now
            wr = SendWR(wr_id=2, opcode=Opcode.SEND, addr=a.buf.addr, length=64, lkey=a.mr.lkey)
            yield from a.post_send(wr)
            cqes = yield from b.dataplane.wait_cq(b.recv_cq, mode=mode)
            assert cqes and cqes[0].ok
            return sim.now - start
        return scenario

    t_poll = run_pair(scenario_mode(WaitMode.POLL))
    t_event = run_pair(scenario_mode(WaitMode.EVENT))
    assert t_event > t_poll + us(1)  # IRQ + wakeup constant


def test_message_ordering_preserved_per_qp():
    """Mixed inline/non-inline sizes must still arrive in post order."""

    def scenario(sim, a, b):
        for i in range(8):
            yield from b.post_recv(RecvWR(wr_id=100 + i, addr=b.buf.addr, length=1 << 20, lkey=b.mr.lkey))
        sizes = [64, 65536, 64, 16384, 64, 128, 262144, 64]
        for i, size in enumerate(sizes):
            yield from a.post_send(SendWR(wr_id=i, opcode=Opcode.SEND, addr=a.buf.addr,
                                          length=size, lkey=a.mr.lkey))
        got = []
        while len(got) < len(sizes):
            cqes = yield from b.wait_recv()
            got.extend(c.byte_len for c in cqes)
        return sizes, got

    sizes, got = run_pair(scenario)
    assert got == sizes
