"""The "breaking point" of CoRD (paper §6 future work).

The paper's outlook: "We intend to assemble a set of real-world benchmark
applications that shows the breaking point of CoRD."  This bench builds
the synthetic version: an MPI ping-pong workload whose per-rank message
intensity is swept from compute-bound to message-bound, reporting the
CoRD/bypass runtime ratio at each point — i.e. *where* the per-operation
kernel crossing starts to matter end to end.

Expected shape: negligible overhead while messages/second per rank stays
in NPB territory (hundreds to thousands), growing once per-message CPU
dominates — CoRD "breaks" around a few hundred thousand msgs/s per rank.
"""

import pytest

from repro.analysis import SweepTable, check_between, format_table
from repro.bench_support import emit, parallel_sweep, report_checks, scaled
from repro.cluster import build_pair
from repro.hw.profiles import SYSTEM_L
from repro.mpi import MpiWorld
from repro.sim import Simulator

#: Compute between message exchanges (ns); smaller = more message-intensive.
COMPUTE_STEPS = [1_000_000.0, 100_000.0, 10_000.0, 1_000.0, 0.0]
MSG_BYTES = 512


def _runtime(transport: str, compute_ns: float, rounds: int) -> tuple[float, float]:
    sim = Simulator(seed=13)
    _fabric, host_a, host_b = build_pair(sim, SYSTEM_L)
    world = MpiWorld(sim, [host_a, host_b], 2, transport=transport)

    def program(comm):
        peer = 1 - comm.rank
        yield from comm.barrier()
        t0 = comm.sim.now
        for i in range(rounds):
            if compute_ns:
                yield from comm.compute(compute_ns)
            if comm.rank == 0:
                yield from comm.send(peer, nbytes=MSG_BYTES, tag=1)
                yield from comm.recv(peer, tag=2)
            else:
                yield from comm.recv(peer, tag=1)
                yield from comm.send(peer, nbytes=MSG_BYTES, tag=2)
        return comm.sim.now - t0

    results = world.run(program)
    elapsed = max(results)
    msg_rate = rounds * 2 / elapsed * 1e9  # msgs/s per rank
    return elapsed, msg_rate


def _runtime_point(point):
    return _runtime(*point)


def _sweep():
    rounds = scaled(400, minimum=100)
    points = []
    for compute_ns in COMPUTE_STEPS:
        points.append(("bypass", compute_ns, rounds))
        points.append(("cord", compute_ns, rounds))
    values = iter(parallel_sweep(_runtime_point, points))
    table = SweepTable(
        "Breaking point: CoRD/bypass runtime vs message intensity", "compute/msg"
    )
    ratio = table.new_series("CoRD/bypass")
    rate = table.new_series("bypass kmsg/s/rank")
    for compute_ns in COMPUTE_STEPS:
        bp, bp_rate = next(values)
        cd, _ = next(values)
        label = f"{compute_ns / 1000:.0f} us"
        ratio.add(label, cd / bp)
        rate.add(label, bp_rate / 1e3)
    return table


def _report(table):
    header, rows = table.rows()
    text = format_table(header, rows, table.title)
    ratio = table.get("CoRD/bypass")
    checks = [
        # NPB-like intensity (~1 ms compute per message): CoRD invisible.
        check_between("compute-bound: overhead < 1%", ratio.y_at("1000 us"), 0.98, 1.01),
        # Moderate intensity: visible but bounded (strict ping-pong puts
        # the full CoRD RTT tax on the critical path — the worst case).
        check_between("10 us/msg: overhead moderate", ratio.y_at("10 us"), 1.0, 1.25),
        # Pure message bound: this is where CoRD breaks.
        check_between("message-bound: overhead pronounced", ratio.y_at("0 us"), 1.25, 3.0),
    ]
    emit("breaking_point", text + "\n" + report_checks("breaking_point", checks))


@pytest.mark.benchmark(group="breaking-point")
def test_breaking_point(benchmark):
    _report(benchmark.pedantic(_sweep, rounds=1, iterations=1))


def main():
    _report(_sweep())


if __name__ == "__main__":
    main()
