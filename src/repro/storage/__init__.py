"""CoRD for storage — the paper's §6 outlook, implemented.

High-performance storage stacks (SPDK [88], oneAPI [35]) are built on the
same concepts as RDMA: queue pairs in user memory, doorbells, polling,
kernel bypass.  The paper closes by arguing CoRD's trick — put the kernel
back on the datapath, keep everything else — transfers to that domain.
This subpackage demonstrates it end to end:

- :class:`~repro.storage.device.NvmeDevice` — an NVMe-like SSD: paired
  submission/completion queues, bounded command concurrency (channels),
  per-command latency and device bandwidth.
- :mod:`~repro.storage.dataplane` — three ways to drive it:
  ``SpdkDataplane`` (user-space, polled — the bypass analogue),
  ``CordStorageDataplane`` (every submit/poll is a syscall + policy chain),
  and ``KernelBlockDataplane`` (the classic blocking block layer with
  interrupt completions — the "socket stack" analogue).
- :mod:`~repro.storage.policies` — storage flavours of the CoRD policies,
  run by the same :class:`~repro.core.policy.PolicyChain`:
  per-tenant IOPS/byte rate limiting and IO accounting.

``benchmarks/bench_storage.py`` sweeps block sizes and reproduces the
RDMA result's shape in the storage domain: CoRD costs a constant per
command (visible only for small blocks), the full kernel path costs
multiples.
"""

from repro.storage.device import IoCommand, NvmeDevice, NvmeProfile
from repro.storage.dataplane import (
    CordStorageDataplane,
    KernelBlockDataplane,
    SpdkDataplane,
    StorageDataplane,
)
from repro.storage.policies import IoRateLimit, IoStats

__all__ = [
    "NvmeDevice",
    "NvmeProfile",
    "IoCommand",
    "StorageDataplane",
    "SpdkDataplane",
    "CordStorageDataplane",
    "KernelBlockDataplane",
    "IoRateLimit",
    "IoStats",
]
