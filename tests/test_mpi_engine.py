"""MPI engine internals: protocol wire traffic, backpressure, matching."""

import pytest

from repro.cluster import build_cluster
from repro.errors import MPIError
from repro.hw.profiles import SYSTEM_L
from repro.mpi import ANY_SOURCE, MpiWorld
from repro.mpi.engine import _PostedRecv, match_first
from repro.sim import Simulator
from collections import deque


def build_world(size=2, transport="bypass", eager_threshold=8192):
    sim = Simulator(seed=8)
    _fabric, hosts = build_cluster(sim, SYSTEM_L, 2)
    world = MpiWorld(sim, hosts, size, transport=transport,
                     eager_threshold=eager_threshold)
    return sim, hosts, world


# -- matcher --------------------------------------------------------------------


def test_match_first_respects_order_and_wildcards():
    q = deque([
        _PostedRecv(req="r0", source=ANY_SOURCE, tag=5),
        _PostedRecv(req="r1", source=2, tag=ANY_SOURCE),
        _PostedRecv(req="r2", source=2, tag=5),
    ])
    hit = match_first(q, src_rank=2, tag=5)
    assert hit.req == "r0"  # earliest posted wins, even though later match better
    hit = match_first(q, src_rank=2, tag=9)
    assert hit.req == "r1"
    assert match_first(q, src_rank=3, tag=9) is None
    assert len(q) == 1


# -- protocol wire counts -------------------------------------------------------------


def wire_messages_for(nbytes, eager_threshold=8192):
    sim, hosts, world = build_world(eager_threshold=eager_threshold)

    def program(comm):
        if comm.rank == 0:
            yield from comm.send(1, nbytes=nbytes)
        else:
            yield from comm.recv(0)

    world.run(program)
    # tx_msgs counts data-plane messages; RC acks are tracked separately.
    return sum(h.nic.counters.tx_msgs for h in hosts)


def test_eager_is_one_wire_message():
    assert wire_messages_for(1024) == 1


def test_rendezvous_is_three_wire_messages():
    # RTS + CTS + WRITE_WITH_IMM.
    assert wire_messages_for(1 << 20) == 3


def test_threshold_boundary():
    assert wire_messages_for(8192) == 1       # at the threshold: still eager
    assert wire_messages_for(8193) == 3       # above: rendezvous


def test_custom_threshold_respected():
    assert wire_messages_for(1024, eager_threshold=512) == 3


# -- backpressure ------------------------------------------------------------------


def test_many_small_sends_respect_sq_depth():
    """Posting far beyond the SQ depth must progress, not error out."""
    sim, hosts, world = build_world()
    n = 400  # >> sq_depth 128

    def program(comm):
        if comm.rank == 0:
            reqs = []
            for i in range(n):
                r = yield from comm.isend(1, nbytes=64, tag=i)
                reqs.append(r)
            yield from comm.waitall(reqs)
            return "sent"
        got = 0
        while got < n:
            yield from comm.recv(0)
            got += 1
        return got

    results = world.run(program)
    assert results == ["sent", n]


def test_self_send_rejected():
    sim, hosts, world = build_world()

    def program(comm):
        if comm.rank == 0:
            with pytest.raises(MPIError, match="self-sends"):
                yield from comm.isend(0, nbytes=8)
        return "done"
        yield

    assert world.run(program) == ["done", "done"]


def test_out_of_range_rank_rejected():
    sim, hosts, world = build_world()

    def program(comm):
        if comm.rank == 0:
            with pytest.raises(MPIError, match="out of range"):
                yield from comm.isend(5, nbytes=8)
        return "ok"
        yield

    world.run(program)


def test_wildcard_tag_and_source_fill_request_fields():
    sim, hosts, world = build_world()

    def program(comm):
        if comm.rank == 0:
            yield from comm.send(1, nbytes=128, tag=42)
            return None
        req = yield from comm.recv(ANY_SOURCE, ANY_SOURCE)
        return (req.source, req.tag, req.nbytes)

    results = world.run(program)
    assert results[1] == (0, 42, 128)


def test_rendezvous_zero_copy_no_bounce_memcpy():
    """Rendezvous must not charge eager copy costs: for very large
    messages the CoRD/bypass runtime gap stays tiny relative to size."""
    def one(nbytes):
        sim, hosts, world = build_world()

        def program(comm):
            if comm.rank == 0:
                t0 = comm.sim.now
                yield from comm.send(1, nbytes=nbytes)
                return comm.sim.now - t0
            yield from comm.recv(0)
            return None

        return world.run(program)[0]

    t_8m = one(8 << 20)
    t_4m = one(4 << 20)
    # Pure wire scaling: doubling the size ~doubles the time (copies would
    # add another ~560 us/8MiB on each side).
    wire_per_byte = 1 / SYSTEM_L.nic.link_bw
    assert (t_8m - t_4m) < (4 << 20) * wire_per_byte * 1.6


def test_unexpected_rendezvous_rts_matches_later_recv():
    sim, hosts, world = build_world()

    def program(comm):
        if comm.rank == 0:
            yield from comm.send(1, nbytes=1 << 20, tag=3)
            return "sent"
        yield from comm.compute(100_000.0)  # RTS arrives before the recv
        req = yield from comm.recv(0, tag=3)
        return req.nbytes

    assert world.run(program) == ["sent", 1 << 20]


def test_socket_transport_message_order_preserved():
    sim, hosts, world = build_world(transport="ipoib")

    def program(comm):
        if comm.rank == 0:
            for i in range(20):
                yield from comm.send(1, data=bytes([i]), tag=1)
            return None
        got = []
        for _ in range(20):
            req = yield from comm.recv(0, tag=1)
            got.append(req.data[0])
        return got

    results = world.run(program)
    assert results[1] == list(range(20))


def test_progress_handles_interleaved_traffic_from_many_peers():
    sim, hosts, world = build_world(size=6)

    def program(comm):
        if comm.rank == 0:
            got = {}
            for _ in range(10):
                req = yield from comm.recv(ANY_SOURCE, tag=7)
                got[req.source] = got.get(req.source, 0) + 1
            return got
        for _ in range(2):
            yield from comm.send(0, nbytes=256, tag=7)
        return None

    results = world.run(program)
    assert results[0] == {r: 2 for r in range(1, 6)}
