"""Collective algorithm edge cases and cost sanity."""

import numpy as np
import pytest

from repro.cluster import build_cluster
from repro.errors import MPIError
from repro.hw.profiles import SYSTEM_L
from repro.mpi import MpiWorld
from repro.mpi.collectives import MAX, MIN
from repro.sim import Simulator


def run_world(program, size=4, seed=2):
    sim = Simulator(seed=seed)
    _f, hosts = build_cluster(sim, SYSTEM_L, 2)
    world = MpiWorld(sim, hosts, size)
    return world.run(program)


def test_single_rank_world_collectives_are_trivial():
    def program(comm):
        yield from comm.barrier()
        out = yield from comm.allreduce(data=np.array([3.0]))
        blocks = yield from comm.allgather(data="me")
        bc = yield from comm.bcast(0, data=b"x")
        a2a = yield from comm.alltoall(8, data_per_peer=["only"])
        return (float(out[0]), blocks, bc, a2a)

    results = run_world(program, size=1)
    assert results[0] == (3.0, ["me"], b"x", ["only"])


def test_reduce_min_operator():
    def program(comm):
        out = yield from comm.reduce(1, data=np.array([float(10 - comm.rank)]),
                                     op=MIN)
        return None if out is None else float(out[0])

    results = run_world(program, size=5)
    assert results[1] == 6.0  # min(10, 9, 8, 7, 6)
    assert results[0] is None


def test_reduce_max_scalar_payloads():
    def program(comm):
        out = yield from comm.reduce(0, nbytes=8, data=comm.rank * 2, op=MAX)
        return out

    results = run_world(program, size=4)
    assert results[0] == 6


def test_allgather_sizes_scale_messages():
    """Ring allgather sends (P-1) blocks per rank."""
    sim = Simulator(seed=2)
    _f, hosts = build_cluster(sim, SYSTEM_L, 2)
    world = MpiWorld(sim, hosts, 4)

    def program(comm):
        yield from comm.allgather(nbytes=1024)
        return comm.engine.msgs_sent

    results = world.run(program)
    assert all(r == 3 for r in results)


def test_alltoall_wrong_block_count_rejected():
    def program(comm):
        with pytest.raises(MPIError):
            yield from comm.alltoall(8, data_per_peer=["too", "few"])
        return "ok"

    assert run_world(program, size=4) == ["ok"] * 4


def test_alltoallv_wrong_counts_rejected():
    def program(comm):
        with pytest.raises(MPIError):
            yield from comm.alltoallv([1, 2])
        return "ok"

    assert run_world(program, size=4) == ["ok"] * 4


def test_scatter_gather_none_payloads():
    """Size-only scatter/gather works without data."""

    def program(comm):
        block = yield from comm.scatter(0, 512)
        got = yield from comm.gather(0, nbytes=512)
        if comm.rank == 0:
            return len(got)
        return got  # None off-root

    results = run_world(program, size=4)
    assert results[0] == 4
    assert results[1:] == [None, None, None]


def test_collective_payload_sizes_affect_runtime():
    def timed(nbytes):
        def program(comm):
            yield from comm.barrier()
            t0 = comm.sim.now
            yield from comm.allreduce(nbytes=nbytes)
            return comm.sim.now - t0

        return max(run_world(program, size=4))

    assert timed(1 << 20) > 2 * timed(64)


def test_bcast_large_payload_uses_rendezvous():
    sim = Simulator(seed=2)
    _f, hosts = build_cluster(sim, SYSTEM_L, 2)
    world = MpiWorld(sim, hosts, 4)

    def program(comm):
        data = np.ones(1 << 17) if comm.rank == 0 else None  # 1 MiB
        out = yield from comm.bcast(0, nbytes=1 << 20, data=data)
        return float(np.sum(out))

    results = world.run(program)
    assert results == [float(1 << 17)] * 4
    # Rendezvous control traffic happened (RTS+CTS+DATA per tree edge).
    assert sum(h.nic.counters.tx_msgs for h in hosts) >= 9


def test_concurrent_collectives_different_tags_dont_cross():
    """A barrier right after an allreduce must not consume its traffic."""

    def program(comm):
        out = yield from comm.allreduce(data=np.array([1.0]))
        yield from comm.barrier()
        out2 = yield from comm.allreduce(data=np.array([2.0]))
        return (float(out[0]), float(out2[0]))

    results = run_world(program, size=4)
    assert all(r == (4.0, 8.0) for r in results)
