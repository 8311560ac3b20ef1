"""MPI layer tests: point-to-point protocols, matching, collectives."""

import numpy as np
import pytest

from repro.cluster import build_cluster
from repro.hw.profiles import SYSTEM_L
from repro.mpi import ANY_SOURCE, MpiWorld
from repro.sim import Simulator


def run_world(program, size=4, transport="bypass", hosts_n=2, **kwargs):
    sim = Simulator(seed=3)
    _fabric, hosts = build_cluster(sim, SYSTEM_L, hosts_n)
    world = MpiWorld(sim, hosts, size, transport=transport, **kwargs)
    return world.run(program), world


TRANSPORTS = ["bypass", "cord", "ipoib"]


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_eager_send_recv_payload(transport):
    payload = b"hello-mpi"

    def program(comm):
        if comm.rank == 0:
            yield from comm.send(1, data=payload, tag=7)
            return "sent"
        if comm.rank == 1:
            req = yield from comm.recv(0, tag=7)
            return (req.source, req.tag, req.nbytes, req.data)
        return None
        yield

    results, _ = run_world(program, size=2, transport=transport)
    assert results[0] == "sent"
    assert results[1] == (0, 7, len(payload), payload)


@pytest.mark.parametrize("transport", ["bypass", "cord"])
def test_rendezvous_large_message(transport):
    """Messages above the eager threshold take the RTS/CTS/WRITE path."""
    nbytes = 256 * 1024
    data = np.arange(nbytes // 8, dtype=np.float64)

    def program(comm):
        if comm.rank == 0:
            yield from comm.send(1, data=data)
            return comm.engine.host.nic.counters.tx_msgs
        req = yield from comm.recv(0)
        return (req.nbytes, float(np.sum(req.data)))

    results, world = run_world(program, size=2, transport=transport)
    assert results[1][0] == nbytes
    assert results[1][1] == float(np.sum(data))
    # The rendezvous must have used RDMA write-with-imm (zero copy): check
    # that the receiver never copied the payload through the bounce path.


def test_eager_vs_rendezvous_threshold():
    """Crossing the eager threshold switches protocol (visible in counters)."""

    def program(comm, nbytes):
        if comm.rank == 0:
            yield from comm.send(1, nbytes=nbytes)
            return comm.engine.msgs_sent
        req = yield from comm.recv(0)
        return req.nbytes

    # 1 KiB: one SEND on the wire.  1 MiB: RTS + CTS + WRITE (3 wire msgs).
    sim = Simulator(seed=3)
    _f, hosts = build_cluster(sim, SYSTEM_L, 2)
    world = MpiWorld(sim, hosts, 2, transport="bypass")
    world.run(program, 1024)
    small_wire = sum(h.nic.counters.tx_msgs for h in hosts)

    sim2 = Simulator(seed=3)
    _f2, hosts2 = build_cluster(sim2, SYSTEM_L, 2)
    world2 = MpiWorld(sim2, hosts2, 2, transport="bypass")
    world2.run(program, 1 << 20)
    big_wire = sum(h.nic.counters.tx_msgs for h in hosts2)
    assert big_wire > small_wire  # extra control messages for rendezvous


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_any_source_matching(transport):
    def program(comm):
        if comm.rank == 0:
            got = []
            for _ in range(3):
                req = yield from comm.recv(ANY_SOURCE, tag=5)
                got.append(req.source)
            return sorted(got)
        yield from comm.send(0, nbytes=64, tag=5)
        return None

    results, _ = run_world(program, size=4, transport=transport)
    assert results[0] == [1, 2, 3]


def test_message_ordering_same_source_tag():
    """MPI guarantees non-overtaking between a sender/receiver pair."""

    def program(comm):
        if comm.rank == 0:
            for i in range(10):
                yield from comm.send(1, data=bytes([i]) * 32, tag=1)
            return None
        got = []
        for _ in range(10):
            req = yield from comm.recv(0, tag=1)
            got.append(req.data[0])
        return got

    results, _ = run_world(program, size=2)
    assert results[1] == list(range(10))


def test_unexpected_message_queue():
    """A send arriving before the recv is posted must still match."""

    def program(comm):
        if comm.rank == 0:
            yield from comm.send(1, data=b"early", tag=9)
            return None
        # Compute for a while before posting the recv.
        yield from comm.compute(50_000.0)
        req = yield from comm.recv(0, tag=9)
        return req.data

    results, _ = run_world(program, size=2)
    assert results[1] == b"early"


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_barrier_synchronizes(transport):
    def program(comm):
        # Stagger arrival; everyone must leave after the latest arriver.
        yield from comm.compute(float(comm.rank) * 10_000.0)
        yield from comm.barrier()
        return comm.sim.now

    results, _ = run_world(program, size=4, transport=transport)
    assert max(results) - min(results) < 10_000.0  # all left together-ish


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_allreduce_sum(transport):
    def program(comm):
        data = np.full(128, float(comm.rank + 1))
        out = yield from comm.allreduce(data=data)
        return float(out[0])

    results, _ = run_world(program, size=4, transport=transport)
    assert results == [10.0] * 4  # 1+2+3+4


def test_allreduce_non_power_of_two():
    def program(comm):
        out = yield from comm.allreduce(data=np.array([float(comm.rank)]))
        return float(out[0])

    results, _ = run_world(program, size=6)
    assert results == [15.0] * 6


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_alltoall_exchanges_blocks(transport):
    def program(comm):
        blocks = [np.array([comm.rank * 100 + peer]) for peer in range(comm.size)]
        out = yield from comm.alltoall(8, data_per_peer=blocks)
        return [int(b[0]) for b in out]

    results, _ = run_world(program, size=4, transport=transport)
    for rank, row in enumerate(results):
        assert row == [src * 100 + rank for src in range(4)]


def test_alltoallv_varying_sizes():
    def program(comm):
        counts = [64 * (peer + 1) for peer in range(comm.size)]
        out = yield from comm.alltoallv(counts)
        return comm.engine.bytes_sent

    results, _ = run_world(program, size=4)
    assert all(r > 0 for r in results)


def test_cord_mpi_slower_than_bypass_small_messages():
    """The dataplane tax shows up in MPI small-message exchanges."""

    def program(comm):
        for _ in range(50):
            if comm.rank == 0:
                yield from comm.send(1, nbytes=64)
                yield from comm.recv(1)
            else:
                yield from comm.recv(0)
                yield from comm.send(0, nbytes=64)
        return comm.sim.now

    r_bp, _ = run_world(program, size=2, transport="bypass")
    r_cd, _ = run_world(program, size=2, transport="cord")
    assert r_cd[0] > r_bp[0]


def test_ipoib_much_slower_than_verbs():
    def program(comm):
        if comm.rank == 0:
            yield from comm.send(1, nbytes=4096)
            return None
        req = yield from comm.recv(0)
        return comm.sim.now

    r_bp, _ = run_world(program, size=2, transport="bypass")
    r_ip, _ = run_world(program, size=2, transport="ipoib")
    assert r_ip[1] > 2 * r_bp[1]


def test_same_host_ranks_use_nic_loopback():
    """No shared memory: two ranks on one host still move via the NIC."""

    def program(comm):
        if comm.rank == 0:
            yield from comm.send(1, nbytes=1024)
        else:
            yield from comm.recv(0)
        return None

    sim = Simulator(seed=3)
    _fabric, hosts = build_cluster(sim, SYSTEM_L, 1)
    world = MpiWorld(sim, hosts, 2, transport="bypass")
    world.run(program)
    assert _fabric.messages_carried > 0  # traversed the fabric loopback
