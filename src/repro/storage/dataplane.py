"""Storage dataplanes: SPDK-style bypass, CoRD interposition, kernel block.

The exact structural analogue of :mod:`repro.core.dataplane`:

=============== ==========================================================
SpdkDataplane    user-space SQE build + doorbell; user-space CQ polling
CordStorage      identical fast path, but submit/poll are system calls and
                 a CoRD policy chain runs in the kernel
KernelBlock      the classic path: syscall + block-layer per-IO work +
                 interrupt-driven completion (no polling, one IO per call)
=============== ==========================================================

As in the RDMA dataplanes, ``submit`` and ``poll`` are written once, in
:class:`StorageDataplane`; SPDK and CoRD differ only in ``_charge``.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Generator, Optional

from repro.core.policy import PolicyChain
from repro.errors import PolicyViolation
from repro.hw.cpu import Core
from repro.hw.profiles import SystemProfile
from repro.storage.device import IoCommand, NvmeDevice
from repro.storage.policies import IoOpContext

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.events import Event

#: User-space SQE build + doorbell (SPDK-grade fast path).
SUBMIT_CPU_NS = 140.0
#: One CQ poll (hit / miss) in user space.
POLL_HIT_NS = 80.0
POLL_MISS_NS = 30.0
#: Kernel block-layer per-IO work (bio alloc, plug, scheduler, blk-mq map).
BLOCK_LAYER_NS = 2_800.0

_cmd_ids = itertools.count(1)


def make_command(op: str, lba: int, nbytes: int, tenant: str = "default") -> IoCommand:
    return IoCommand(cmd_id=next(_cmd_ids), op=op, lba=lba, nbytes=nbytes,
                     tenant=tenant)


class StorageDataplane:
    """Common interface: submit / poll / wait."""

    tag = "??"

    def __init__(self, device: NvmeDevice, core: Core, system: SystemProfile,
                 tenant: str = "default"):
        self.device = device
        self.core = core
        self.system = system
        self.sim = device.sim
        self.tenant = tenant
        self.qp = device.create_qp()
        self.submitted = 0
        self.polls = 0

    def submit(self, cmd: IoCommand) -> Generator["Event", object, None]:
        cmd.tenant = self.tenant
        yield from self._charge(SUBMIT_CPU_NS, "submit", cmd)
        self.device.hw_submit(self.qp, cmd)
        self.submitted += 1

    def poll(self, max_entries: int = 16) -> Generator["Event", object, list[IoCommand]]:
        cmds = self.qp.cq_pop(max_entries)
        yield from self._charge(POLL_HIT_NS if cmds else POLL_MISS_NS, "poll")
        self.polls += 1
        return cmds

    def _charge(self, fast_ns: float, op: str,
                cmd: Optional[IoCommand] = None) -> Generator["Event", object, None]:
        """Charge one call: here the user-space fast path, nothing else."""
        return self.core.run(fast_ns)

    def wait(self, max_entries: int = 16) -> Generator["Event", object, list[IoCommand]]:
        """Block (by polling) until at least one completion, then reap."""
        ready = self.qp.wait_nonempty()
        if not ready.processed:
            yield from self.core.busy_poll(ready, 0.0)
        cmds = yield from self.poll(max_entries)
        return cmds

    def run_io(self, cmd: IoCommand) -> Generator["Event", object, IoCommand]:
        """Submit one command and wait for its completion (QD=1 helper)."""
        yield from self.submit(cmd)
        while True:
            done = yield from self.wait()
            for c in done:
                if c.cmd_id == cmd.cmd_id:
                    return c


class SpdkDataplane(StorageDataplane):
    """User-level storage dataplane (kernel bypass — SPDK style)."""

    tag = "SPDK"


class CordStorageDataplane(StorageDataplane):
    """CoRD applied to storage: submit/poll interposed by the kernel."""

    tag = "CoRD"

    def __init__(self, device: NvmeDevice, core: Core, system: SystemProfile,
                 policies: Optional[PolicyChain] = None,
                 tenant: str = "default"):
        super().__init__(device, core, system, tenant)
        self.policies = policies if policies is not None else PolicyChain()
        self.denied = 0

    def _charge(self, fast_ns: float, op: str,
                cmd: Optional[IoCommand] = None) -> Generator["Event", object, None]:
        """One syscall: transition + serialize + policies + fast path."""
        policy_ns = 0.0
        if self.policies.policies:
            try:
                policy_ns = self.policies.evaluate(
                    IoOpContext(self.sim.now, op, cmd, self.tenant))
            except PolicyViolation as exc:
                return self._deny(exc)
        return self.core.syscall(
            self.system.cord_serialize_ns + self.system.cord_kernel_driver_ns
            + policy_ns + fast_ns
        )

    def _deny(self, exc: PolicyViolation) -> Generator["Event", object, None]:
        """A denied call pays its syscall's serialization only, then re-raises."""
        self.denied += 1
        yield from self.core.syscall(self.system.cord_serialize_ns)
        raise exc


class KernelBlockDataplane(StorageDataplane):
    """The traditional blocking block-layer path (pread/pwrite-like).

    One IO per call: syscall, block-layer work, sleep, interrupt, wake.
    The storage-world analogue of the socket stack in fig. 2a.
    """

    tag = "BLK"

    def __init__(self, device: NvmeDevice, core: Core, system: SystemProfile,
                 tenant: str = "default"):
        super().__init__(device, core, system, tenant)
        self._pending: dict[int, "Event"] = {}
        self.qp.on_completion = self._irq_completion

    def _irq_completion(self, cmd: IoCommand) -> None:
        ev = self._pending.pop(cmd.cmd_id, None)
        if ev is not None:
            delay = (self.system.cpu.irq_entry_ns + self.system.cpu.irq_handler_ns)
            self.sim.call_later(delay, ev.succeed, cmd)

    def submit(self, cmd: IoCommand) -> Generator["Event", object, None]:
        # Blocking API: submit() performs the whole IO.
        done = yield from self.run_io(cmd)
        assert done.cmd_id == cmd.cmd_id

    def run_io(self, cmd: IoCommand) -> Generator["Event", object, IoCommand]:
        cmd.tenant = self.tenant
        ev = self.sim.event(name=f"blkio{cmd.cmd_id}")
        self._pending[cmd.cmd_id] = ev
        # Syscall entry + block-layer submission work.
        yield from self.core.syscall(BLOCK_LAYER_NS + SUBMIT_CPU_NS)
        self.device.hw_submit(self.qp, cmd)
        self.submitted += 1
        # Sleep until the interrupt wakes us; then the context switch back.
        yield ev
        yield from self.core.run(self.system.cpu.context_switch_ns)
        # Reap our completion from the CQ.
        while True:
            done = yield from self.poll()
            for c in done:
                if c.cmd_id == cmd.cmd_id:
                    return c
