"""Collective algorithms over point-to-point.

Textbook algorithms with the usual topology choices:

- barrier: dissemination (log P rounds, works for any P)
- bcast/reduce: binomial tree
- allreduce: recursive doubling for powers of two, reduce+bcast otherwise
- allgather: ring (P-1 steps, bandwidth-optimal for large payloads)
- alltoall(v): pairwise exchange (XOR partners for powers of two)
- gather/scatter: linear at the root

When payloads are real (numpy/bytes), reductions combine element-wise and
gathers concatenate, so tests can verify numerics.  ``TAG_BASE`` offsets
keep collective traffic from matching stray application tags.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING, Generator, Optional, Sequence

from repro.errors import MPIError

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.communicator import Communicator
    from repro.sim.events import Event

TAG_BARRIER = 1 << 20
TAG_BCAST = 2 << 20
TAG_REDUCE = 3 << 20
TAG_ALLREDUCE = 4 << 20
TAG_ALLGATHER = 5 << 20
TAG_ALLTOALL = 6 << 20
TAG_GATHER = 7 << 20
TAG_SCATTER = 8 << 20


# -- reduction operators ------------------------------------------------------


def SUM(a, b):
    return a + b if a is not None and b is not None else None


def _numpy_of(a):
    """numpy if ``a`` is an ndarray, else None.

    An ndarray exists only once numpy is loaded, so scalar reductions
    never import it.
    """
    np = sys.modules.get("numpy")
    return np if np is not None and isinstance(a, np.ndarray) else None


def MAX(a, b):
    if a is None or b is None:
        return None
    np = _numpy_of(a)
    return max(a, b) if np is None else np.maximum(a, b)


def MIN(a, b):
    if a is None or b is None:
        return None
    np = _numpy_of(a)
    return min(a, b) if np is None else np.minimum(a, b)


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


# -- barrier --------------------------------------------------------------------


def barrier(comm: "Communicator") -> Generator["Event", object, None]:
    """Dissemination barrier: ceil(log2 P) rounds of 0-byte exchanges."""
    size, rank = comm.size, comm.rank
    if size == 1:
        return
    rounds = math.ceil(math.log2(size))
    for k in range(rounds):
        dist = 1 << k
        dest = (rank + dist) % size
        src = (rank - dist) % size
        yield from comm.sendrecv(dest, src, nbytes=0, tag=TAG_BARRIER + k)


# -- broadcast / reduce -----------------------------------------------------------


def bcast(
    comm: "Communicator", root: int, nbytes: int, data: object = None
) -> Generator["Event", object, object]:
    """Binomial-tree broadcast; returns the payload at every rank."""
    size, rank = comm.size, comm.rank
    if size == 1:
        return data
    rel = (rank - root) % size
    # Receive from the parent unless we are the root.
    if rel != 0:
        mask = 1
        while mask <= rel:
            mask <<= 1
        mask >>= 1
        parent = (rel - mask + root) % size
        req = yield from comm.recv(parent, TAG_BCAST)
        data = req.data
    # Forward to children.
    mask = 1
    while mask <= rel:
        mask <<= 1
    while mask < size:
        if rel + mask < size:
            child = (rel + mask + root) % size
            yield from comm.send(child, nbytes, TAG_BCAST, data)
        mask <<= 1
    return data


def reduce(
    comm: "Communicator", root: int, nbytes: int, data: object = None, op=SUM
) -> Generator["Event", object, object]:
    """Binomial-tree reduction; result lands at ``root`` (None elsewhere)."""
    size, rank = comm.size, comm.rank
    acc = data
    if size == 1:
        return acc
    rel = (rank - root) % size
    mask = 1
    while mask < size:
        if rel & mask:
            parent = ((rel & ~mask) + root) % size
            yield from comm.send(parent, nbytes, TAG_REDUCE, acc)
            return None
        partner = rel | mask
        if partner < size:
            req = yield from comm.recv(((partner + root) % size), TAG_REDUCE)
            acc = op(acc, req.data)
        mask <<= 1
    return acc


def allreduce(
    comm: "Communicator", nbytes: int, data: object = None, op=SUM
) -> Generator["Event", object, object]:
    """Recursive doubling (power-of-two P) or reduce+bcast fallback."""
    size, rank = comm.size, comm.rank
    acc = data
    if size == 1:
        return acc
    if _is_pow2(size):
        mask = 1
        while mask < size:
            partner = rank ^ mask
            req = yield from comm.sendrecv(partner, partner, nbytes,
                                           TAG_ALLREDUCE + mask, acc)
            acc = op(acc, req.data)
            mask <<= 1
        return acc
    acc = yield from reduce(comm, 0, nbytes, acc, op)
    acc = yield from bcast(comm, 0, nbytes, acc)
    return acc


# -- gather family -----------------------------------------------------------------


def allgather(
    comm: "Communicator", nbytes: int, data: object = None
) -> Generator["Event", object, list]:
    """Ring allgather; returns the list of every rank's contribution."""
    size, rank = comm.size, comm.rank
    blocks: list = [None] * size
    blocks[rank] = data
    if size == 1:
        return blocks
    right = (rank + 1) % size
    left = (rank - 1) % size
    # In step s we forward the block that originated at (rank - s) % size.
    carry = data
    for s in range(size - 1):
        req = yield from comm.sendrecv(right, left, nbytes, TAG_ALLGATHER + s, carry)
        origin = (rank - s - 1) % size
        blocks[origin] = req.data
        carry = req.data
    return blocks


def alltoall(
    comm: "Communicator", nbytes_per_peer: int, data_per_peer: Optional[list] = None
) -> Generator["Event", object, list]:
    """Pairwise-exchange alltoall; returns received blocks indexed by source."""
    size, rank = comm.size, comm.rank
    if data_per_peer is not None and len(data_per_peer) != size:
        raise MPIError("data_per_peer must have one entry per rank")
    out: list = [None] * size
    out[rank] = data_per_peer[rank] if data_per_peer else None
    for step in range(1, size):
        if _is_pow2(size):
            partner = rank ^ step
        else:
            partner = (rank + step) % size
        sdata = data_per_peer[partner] if data_per_peer else None
        req = yield from comm.sendrecv(
            partner,
            partner if _is_pow2(size) else (rank - step) % size,
            nbytes_per_peer,
            TAG_ALLTOALL + step,
            sdata,
        )
        out[req.source] = req.data
    return out


def alltoallv(
    comm: "Communicator", send_counts: Sequence[int], data_per_peer: Optional[list] = None
) -> Generator["Event", object, list]:
    """Pairwise alltoall with per-destination sizes (the IS workhorse)."""
    size, rank = comm.size, comm.rank
    if len(send_counts) != size:
        raise MPIError(f"send_counts must have {size} entries")
    out: list = [None] * size
    out[rank] = data_per_peer[rank] if data_per_peer else None
    for step in range(1, size):
        if _is_pow2(size):
            partner = rank ^ step
            src = partner
        else:
            partner = (rank + step) % size
            src = (rank - step) % size
        sdata = data_per_peer[partner] if data_per_peer else None
        rreq = yield from comm.irecv(src, TAG_ALLTOALL + step)
        sreq = yield from comm.isend(partner, int(send_counts[partner]),
                                     TAG_ALLTOALL + step, sdata)
        yield from comm.waitall([sreq, rreq])
        out[rreq.source] = rreq.data
    return out


def reduce_scatter(
    comm: "Communicator", nbytes_per_block: int,
    data_per_block: Optional[list] = None, op=SUM,
) -> Generator["Event", object, object]:
    """Reduce P blocks element-wise, scatter block i to rank i.

    Implemented as recursive halving for powers of two (the
    bandwidth-optimal classic), otherwise reduce+scatter fallback.
    Returns this rank's reduced block.
    """
    size, rank = comm.size, comm.rank
    if data_per_block is not None and len(data_per_block) != size:
        raise MPIError("data_per_block must have one entry per rank")
    if size == 1:
        return data_per_block[0] if data_per_block else None
    blocks = list(data_per_block) if data_per_block else [None] * size

    if _is_pow2(size):
        # Recursive halving: each step exchanges half the remaining blocks.
        lo, hi = 0, size
        step = 0
        while hi - lo > 1:
            mid = (lo + hi) // 2
            in_low = rank < mid
            partner = rank + (mid - lo) if in_low else rank - (mid - lo)
            # Send the half of blocks the partner's side owns; combine ours.
            send_range = range(mid, hi) if in_low else range(lo, mid)
            keep_range = range(lo, mid) if in_low else range(mid, hi)
            payload = [blocks[i] for i in send_range]
            req = yield from comm.sendrecv(
                partner, partner,
                nbytes_per_block * len(payload),
                TAG_ALLREDUCE + (step << 8), payload,
            )
            incoming = req.data
            for offset, i in enumerate(keep_range):
                other = incoming[offset] if incoming else None
                blocks[i] = op(blocks[i], other)
            lo, hi = (lo, mid) if in_low else (mid, hi)
            step += 1
        return blocks[rank]

    reduced = yield from reduce(comm, 0, nbytes_per_block * size, blocks,
                                op=lambda a, b: [op(x, y) for x, y in zip(a, b)]
                                if a is not None and b is not None else None)
    mine = yield from scatter(comm, 0, nbytes_per_block,
                              reduced if rank == 0 else None)
    return mine


def scan(
    comm: "Communicator", nbytes: int, data: object = None, op=SUM,
    exclusive: bool = False,
) -> Generator["Event", object, object]:
    """Inclusive (MPI_Scan) or exclusive (MPI_Exscan) prefix reduction.

    Linear pipeline: rank r receives the prefix over 0..r-1 from r-1,
    combines, forwards.  Returns the prefix at this rank (None at rank 0
    when exclusive).
    """
    size, rank = comm.size, comm.rank
    prefix = None
    if rank > 0:
        req = yield from comm.recv(rank - 1, TAG_REDUCE + (1 << 10))
        prefix = req.data
    total = data if prefix is None else op(prefix, data)
    if rank < size - 1:
        yield from comm.send(rank + 1, nbytes, TAG_REDUCE + (1 << 10), total)
    return prefix if exclusive else total


def gather(
    comm: "Communicator", root: int, nbytes: int, data: object = None
) -> Generator["Event", object, Optional[list]]:
    """Linear gather at the root; returns the list at root, None elsewhere."""
    size, rank = comm.size, comm.rank
    if rank != root:
        yield from comm.send(root, nbytes, TAG_GATHER, data)
        return None
    blocks: list = [None] * size
    blocks[root] = data
    reqs = []
    for _ in range(size - 1):
        req = yield from comm.irecv(tag=TAG_GATHER)
        reqs.append(req)
    yield from comm.waitall(reqs)
    for req in reqs:
        blocks[req.source] = req.data
    return blocks


def scatter(
    comm: "Communicator", root: int, nbytes_per_peer: int,
    data_per_peer: Optional[list] = None,
) -> Generator["Event", object, object]:
    """Linear scatter from the root; returns this rank's block."""
    size, rank = comm.size, comm.rank
    if rank == root:
        for peer in range(size):
            if peer == root:
                continue
            sdata = data_per_peer[peer] if data_per_peer else None
            yield from comm.send(peer, nbytes_per_peer, TAG_SCATTER, sdata)
        return data_per_peer[root] if data_per_peer else None
    req = yield from comm.recv(root, TAG_SCATTER)
    return req.data
