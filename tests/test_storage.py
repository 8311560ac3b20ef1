"""Storage extension: NVMe device model + the three storage dataplanes."""

import pytest

from repro.core.policy import PolicyChain
from repro.errors import HardwareError, PolicyViolation
from repro.hw.cpu import Core
from repro.hw.profiles import SYSTEM_L
from repro.sim import Simulator
from repro.storage import (
    CordStorageDataplane,
    IoRateLimit,
    IoStats,
    KernelBlockDataplane,
    NvmeDevice,
    NvmeProfile,
    SpdkDataplane,
)
from repro.storage.dataplane import make_command
from repro.units import us


def build(kind="spdk", policies=None, profile=None):
    sim = Simulator(seed=3)
    device = NvmeDevice(sim, profile=profile)
    core = Core(sim, SYSTEM_L)
    if kind == "spdk":
        dp = SpdkDataplane(device, core, SYSTEM_L)
    elif kind == "cord":
        dp = CordStorageDataplane(device, core, SYSTEM_L, policies=policies)
    else:
        dp = KernelBlockDataplane(device, core, SYSTEM_L)
    return sim, device, dp


def test_read_completes_with_media_latency():
    sim, device, dp = build()

    def main():
        cmd = yield from dp.run_io(make_command("read", 0, 4096))
        return cmd.latency_ns

    latency = sim.run(sim.process(main()))
    assert latency > device.profile.read_latency_ns
    assert latency < device.profile.read_latency_ns + us(5)


def test_write_slower_than_read():
    def one(op):
        sim, _dev, dp = build()

        def main():
            cmd = yield from dp.run_io(make_command(op, 0, 4096))
            return cmd.latency_ns

        return sim.run(sim.process(main()))

    assert one("write") > one("read")


def test_invalid_commands_rejected():
    sim, device, dp = build()
    qp = dp.qp
    with pytest.raises(HardwareError):
        device.hw_submit(qp, make_command("erase", 0, 4096))
    with pytest.raises(HardwareError):
        device.hw_submit(qp, make_command("read", 0, 100))  # not block-aligned
    with pytest.raises(HardwareError):
        device.hw_submit(qp, make_command("read", 0, 0))


def test_queue_depth_enforced():
    profile = NvmeProfile(sq_depth=2)
    sim, device, dp = build(profile=profile)

    def main():
        yield from dp.submit(make_command("read", 0, 4096))
        yield from dp.submit(make_command("read", 8, 4096))
        with pytest.raises(HardwareError, match="full"):
            yield from dp.submit(make_command("read", 16, 4096))
        return "ok"

    assert sim.run(sim.process(main())) == "ok"


def test_channel_parallelism_bounds_iops():
    """Throughput at QD>>1 is capped by channels/media-latency and bus."""
    sim, device, dp = build()

    def main():
        total = 400
        submitted = 0
        done = 0
        while done < total:
            while submitted < total and dp.qp.outstanding < 64:
                yield from dp.submit(make_command("read", submitted, 4096))
                submitted += 1
            cmds = yield from dp.wait()
            done += len(cmds)
        return sim.now

    elapsed = sim.run(sim.process(main()))
    iops = 400 / elapsed * 1e9
    prof = device.profile
    ceiling = min(prof.channels / prof.read_latency_ns, 1 / (4096 / prof.bandwidth)) * 1e9
    assert iops < ceiling * 1.05
    assert iops > ceiling * 0.4  # and the pipeline actually fills


def test_cord_storage_adds_constant_overhead():
    def qd1_latency(kind):
        sim, _dev, dp = build(kind)

        def main():
            t0 = sim.now
            yield from dp.run_io(make_command("read", 0, 4096))
            return sim.now - t0  # app-observed, includes dataplane CPU

        return sim.run(sim.process(main()))

    spdk = qd1_latency("spdk")
    cord = qd1_latency("cord")
    blk = qd1_latency("blk")
    assert spdk < cord < blk
    assert cord - spdk < us(2)     # a syscall's worth
    assert blk - spdk > us(2)      # block layer + interrupt path


def test_io_rate_limit_denies_over_budget():
    chain = PolicyChain([IoRateLimit(rate_bytes_per_s=1e6, burst_bytes=8192)])
    sim, _dev, dp = build("cord", policies=chain)

    def main():
        yield from dp.submit(make_command("read", 0, 8192))
        with pytest.raises(PolicyViolation):
            yield from dp.submit(make_command("read", 16, 8192))
        return dp.denied

    assert sim.run(sim.process(main())) == 1


def test_io_stats_account_per_tenant():
    stats = IoStats()
    chain = PolicyChain([stats])
    sim, _dev, dp = build("cord", policies=chain)
    dp.tenant = "db"

    def main():
        yield from dp.run_io(make_command("read", 0, 4096))
        yield from dp.run_io(make_command("write", 8, 8192))

    sim.run(sim.process(main()))
    rec = stats.per_tenant["db"]
    assert rec["submits"] == 2
    assert rec["bytes"] == 4096 + 8192
    assert rec["reads"] == 1 and rec["writes"] == 1
    assert rec["polls"] >= 2


def test_large_block_hides_cord_overhead():
    """Same crossover story as fig. 4, in the storage domain."""

    def bw(kind, nbytes):
        sim, _dev, dp = build(kind)

        def main():
            total = 64
            submitted = 0
            done = 0
            t0 = sim.now
            while done < total:
                while submitted < total and dp.qp.outstanding < 32:
                    yield from dp.submit(make_command("read", submitted, nbytes))
                    submitted += 1
                cmds = yield from dp.wait()
                done += len(cmds)
            return total * nbytes / (sim.now - t0)

        return sim.run(sim.process(main()))

    small_ratio = bw("cord", 4096) / bw("spdk", 4096)
    large_ratio = bw("cord", 1 << 20) / bw("spdk", 1 << 20)
    assert large_ratio > 0.95
    assert small_ratio < large_ratio + 0.01
