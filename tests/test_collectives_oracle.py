"""Non-power-of-two collectives vs a brute-force pairwise oracle.

The alltoall/alltoallv algorithms take different code paths for
non-power-of-two worlds (ring shifts instead of XOR partners).  These
tests run them on >2-host clusters — where every receiver has a switch
output queue — at world sizes 3 and 6, and compare the data
every rank receives against a naive oracle that moves the same payloads
with one tagged point-to-point message per (src, dst) pair.
"""

import pytest

from repro.cluster import build_cluster
from repro.hw.profiles import SYSTEM_L
from repro.mpi import MpiWorld
from repro.sim import Simulator

TAG_ORACLE = 7777
SIZES = [3, 6]


def run_world(program, size, hosts_n=3, seed=5):
    sim = Simulator(seed=seed)
    fabric, hosts = build_cluster(sim, SYSTEM_L, hosts_n)
    assert fabric.rx_contention is not None  # >2 hosts -> switch queue
    world = MpiWorld(sim, hosts, size)
    return world.run(program)


def _block(src, dst):
    return f"blk{src}->{dst}"


def _oracle_exchange(comm, payload_for):
    """Move payload_for(dst) to every dst with plain pairwise messages."""
    rreqs = []
    for peer in range(comm.size):
        if peer == comm.rank:
            continue
        rreqs.append((yield from comm.irecv(peer, TAG_ORACLE)))
    sreqs = []
    for peer in range(comm.size):
        if peer == comm.rank:
            continue
        data = payload_for(peer)
        sreqs.append((yield from comm.isend(peer, len(data), TAG_ORACLE,
                                            data)))
    yield from comm.waitall(sreqs + rreqs)
    out = [None] * comm.size
    out[comm.rank] = payload_for(comm.rank)
    for req in rreqs:
        out[req.source] = req.data
    return out


@pytest.mark.parametrize("size", SIZES)
def test_alltoall_matches_pairwise_oracle(size):
    def collective(comm):
        blocks = [_block(comm.rank, dst) for dst in range(comm.size)]
        out = yield from comm.alltoall(64, data_per_peer=blocks)
        return out

    def oracle(comm):
        out = yield from _oracle_exchange(
            comm, lambda dst: _block(comm.rank, dst))
        return out

    got = run_world(collective, size)
    want = run_world(oracle, size)
    assert got == want
    # Rank r must hold exactly the blocks addressed to it, by source.
    for r, blocks in enumerate(got):
        assert blocks == [_block(src, r) for src in range(size)]


@pytest.mark.parametrize("size", SIZES)
def test_alltoallv_matches_pairwise_oracle(size):
    """Variable-size blocks: dst gets (src+1)*(dst+1) bytes from src."""

    def payload(src, dst):
        return bytes([src * 16 + dst]) * ((src + 1) * (dst + 1))

    def collective(comm):
        counts = [(comm.rank + 1) * (dst + 1) for dst in range(comm.size)]
        data = [payload(comm.rank, dst) for dst in range(comm.size)]
        out = yield from comm.alltoallv(counts, data_per_peer=data)
        return out

    def oracle(comm):
        out = yield from _oracle_exchange(
            comm, lambda dst: payload(comm.rank, dst))
        return out

    got = run_world(collective, size)
    want = run_world(oracle, size)
    assert got == want
    for r, blocks in enumerate(got):
        assert blocks == [payload(src, r) for src in range(size)]
        assert [len(b) for b in blocks] == [
            (src + 1) * (r + 1) for src in range(size)]


def test_six_ranks_on_three_hosts_uses_loopback_and_fabric():
    """Co-located ranks talk over the hairpin path, remote over the fabric."""

    def program(comm):
        out = yield from comm.alltoall(
            32, data_per_peer=[_block(comm.rank, d) for d in range(comm.size)])
        return out

    sim = Simulator(seed=5)
    fabric, hosts = build_cluster(sim, SYSTEM_L, 3)
    world = MpiWorld(sim, hosts, 6)
    results = world.run(program)
    for r, blocks in enumerate(results):
        assert blocks == [_block(src, r) for src in range(6)]
    assert fabric.messages_carried > 0
    assert fabric.messages_dropped == 0
