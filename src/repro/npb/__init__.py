"""NAS Parallel Benchmarks — MPI communication skeletons.

Each benchmark reproduces the *communication structure* of its NPB 3.x MPI
original (message counts, sizes, partners and collective patterns per
iteration) plus a calibrated per-iteration compute block.  That is exactly
what fig. 6 (relative runtime of RDMA vs CoRD vs IPoIB) depends on: the
figure divides runtimes of the same skeleton over different transports, so
absolute compute calibration cancels out while the network sensitivity —
who communicates how much, in what sizes, how often — is preserved.

Benchmarks: IS (alltoallv-heavy integer sort), EP (embarrassingly
parallel), CG (few large nearest-partner messages), MG (multi-level halos),
FT (alltoall transpose), LU (pipelined wavefront, many small messages),
BT and SP (face exchanges on a square process grid; SP iterates more with
less compute per step, making it message-intensive).
"""

from repro.npb.base import NpbConfig, NpbResult, get_benchmark, load_benchmarks
from repro.npb.runner import run_npb, run_suite


def __getattr__(name: str) -> object:
    # The registry fills as the kernel modules load, which they do on
    # first use.
    if name == "BENCHMARKS":
        return load_benchmarks()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "NpbConfig",
    "NpbResult",
    "BENCHMARKS",
    "get_benchmark",
    "run_npb",
    "run_suite",
]
