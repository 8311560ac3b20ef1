"""Collective algorithm edge cases and cost sanity."""

import numpy as np
import pytest

from repro.cluster import build_cluster
from repro.errors import MPIError
from repro.hw.profiles import SYSTEM_L
from repro.mpi import MpiWorld
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
        a2a = yield from comm.alltoall(8, data_per_peer=["only"])
        a2av = yield from comm.alltoallv([8], data_per_peer=["mine"])
        return (float(out[0]), a2a, a2av)

    results = run_world(program, size=1)
    assert results[0] == (3.0, ["only"], ["mine"])


def test_allreduce_min_operator_non_power_of_two():
    """Five ranks take the reduce-to-0 + broadcast fallback with ``op``."""

    def program(comm):
        out = yield from comm.allreduce(data=np.array([float(10 - comm.rank)]),
                                        op=np.minimum)
        return float(out[0])

    assert run_world(program, size=5) == [6.0] * 5  # min(10, 9, 8, 7, 6)


def test_allreduce_max_scalar_payloads():
    def program(comm):
        out = yield from comm.allreduce(nbytes=8, data=comm.rank * 2, op=max)
        return out

    assert run_world(program, size=4) == [6] * 4
    assert run_world(program, size=3) == [4] * 3


def test_alltoall_sends_one_message_per_peer():
    """Pairwise alltoall sends (P-1) blocks per rank."""
    sim = Simulator(seed=2)
    _f, hosts = build_cluster(sim, SYSTEM_L, 2)
    world = MpiWorld(sim, hosts, 4)

    def program(comm):
        yield from comm.alltoall(1024)
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


def test_collective_payload_sizes_affect_runtime():
    def timed(nbytes):
        def program(comm):
            yield from comm.barrier()
            t0 = comm.sim.now
            yield from comm.allreduce(nbytes=nbytes)
            return comm.sim.now - t0

        return max(run_world(program, size=4))

    assert timed(1 << 20) > 2 * timed(64)


def test_allreduce_large_payload_uses_rendezvous():
    """Three ranks reduce a 1 MiB array to rank 0 and broadcast it back."""
    sim = Simulator(seed=2)
    _f, hosts = build_cluster(sim, SYSTEM_L, 2)
    world = MpiWorld(sim, hosts, 3)

    def program(comm):
        out = yield from comm.allreduce(nbytes=1 << 20, data=np.ones(1 << 17))
        return float(np.sum(out))

    results = world.run(program)
    assert results == [float(3 << 17)] * 3
    # Rendezvous control traffic happened (RTS+CTS+DATA per tree edge).
    assert sum(h.nic.counters.tx_msgs for h in hosts) >= 12


def test_concurrent_collectives_different_tags_dont_cross():
    """A barrier right after an allreduce must not consume its traffic."""

    def program(comm):
        out = yield from comm.allreduce(data=np.array([1.0]))
        yield from comm.barrier()
        out2 = yield from comm.allreduce(data=np.array([2.0]))
        return (float(out[0]), float(out2[0]))

    results = run_world(program, size=4)
    assert all(r == (4.0, 8.0) for r in results)
