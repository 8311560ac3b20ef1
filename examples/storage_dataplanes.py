#!/usr/bin/env python3
"""CoRD beyond networking: the storage dataplane (paper §6 outlook).

Drives an NVMe-class device three ways — SPDK-style user-space bypass,
CoRD (submit/poll through the kernel + an IO rate-limit policy), and the
classic blocking block layer — and prints 4 KiB random-read IOPS plus the
QoS enforcement that only the interposed paths can provide.

Run:  python examples/storage_dataplanes.py
"""

from repro.core.policy import PolicyChain
from repro.errors import PolicyViolation
from repro.hw.cpu import Core
from repro.hw.profiles import SYSTEM_L
from repro.sim import Simulator
from repro.storage import (
    CordStorageDataplane,
    IoRateLimit,
    KernelBlockDataplane,
    NvmeDevice,
    SpdkDataplane,
)
from repro.storage.dataplane import make_command
from repro.units import us

TOTAL = 2000
QD = 32


def iops(kind: str, policies=None) -> float:
    sim = Simulator(seed=4)
    device = NvmeDevice(sim)
    core = Core(sim, SYSTEM_L)
    dp = {
        "spdk": lambda: SpdkDataplane(device, core, SYSTEM_L),
        "cord": lambda: CordStorageDataplane(device, core, SYSTEM_L,
                                             policies=policies),
        "blk": lambda: KernelBlockDataplane(device, core, SYSTEM_L),
    }[kind]()

    def main():
        t0 = sim.now
        if kind == "blk":
            for i in range(TOTAL // 10):  # QD=1 API; fewer IOs suffice
                yield from dp.run_io(make_command("read", i, 4096))
            return (TOTAL // 10) / (sim.now - t0) * 1e9
        submitted = done = 0
        while done < TOTAL:
            while submitted < TOTAL and dp.qp.outstanding < QD:
                try:
                    yield from dp.submit(make_command("read", submitted, 4096))
                    submitted += 1
                except PolicyViolation:
                    yield sim.timeout(us(20))  # QoS said EAGAIN: back off
            done += len((yield from dp.wait()))
        return TOTAL / (sim.now - t0) * 1e9

    return sim.run(sim.process(main()))


def main() -> None:
    print("4 KiB random reads on a low-latency NVMe device (QD=32)\n")
    for kind, label in (("spdk", "SPDK bypass    "),
                        ("cord", "CoRD           "),
                        ("blk", "kernel block   ")):
        print(f"  {label}: {iops(kind) / 1e3:8.0f} kIOPS")
    capped = iops("cord", PolicyChain(
        [IoRateLimit(rate_bytes_per_s=400e6, burst_bytes=1 << 20)]))
    print(f"  CoRD + 400 MB/s IO rate-limit policy: {capped / 1e3:8.0f} kIOPS "
          f"(~{capped * 4096 / 1e6:.0f} MB/s)")
    print("\nSame story as the network: interposition costs a constant, "
          "the full kernel stack costs multiples — and only the interposed "
          "dataplane can enforce per-tenant policy.")


if __name__ == "__main__":
    main()
