"""Interrupt delivery and completion channels.

This is the "remove polling" path from the paper's §2 experiment: instead of
spinning on the CQ, the application arms it (``ibv_req_notify_cq``), blocks
on a completion channel, and is woken by the NIC's interrupt.  The cost is a
large, message-size-independent constant — IRQ delivery, handler, scheduler
wake-up and context switch — exactly the behaviour fig. 1a shows.

IRQ handler time is modelled as latency (the handler runs on a housekeeping
core, not the pinned benchmark core), with lognormal jitter on virtualized
systems.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from repro.hw.cpu import Core
from repro.hw.profiles import SystemProfile
from repro.sim.store import Store

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator
    from repro.sim.events import Event
    from repro.verbs.cq import CompletionQueue


class IrqModel:
    """Per-host interrupt timing."""

    def __init__(self, sim: "Simulator", system: SystemProfile, host_id: int):
        self.sim = sim
        self.system = system
        self._jitter = sim.rng.jitter_stream(f"irq:h{host_id}")
        self.delivered = 0

    def delivery_delay_ns(self) -> float:
        """NIC MSI-X assertion to handler *entry* (the handler body itself
        is charged on the victim core by the kernel)."""
        cpu = self.system.cpu
        base = self.system.nic.irq_moderation_ns + cpu.irq_entry_ns
        self.delivered += 1
        return self._jitter.draw(base, self.system.syscall_jitter_cv)


class CompletionChannel:
    """``ibv_comp_channel`` analogue: blocking wait for CQ events."""

    def __init__(self, sim: "Simulator", system: SystemProfile, name: str = "chan"):
        self.sim = sim
        self.system = system
        self.name = name
        self._events: Store = Store(sim, name=f"{name}.events")
        self.wakeups = 0
        #: The core the IRQ is affine to (the last waiter's core): the
        #: handler *steals* cycles from it, as a pinned benchmark feels.
        self.irq_core: Core | None = None

    def notify(self, cq: "CompletionQueue") -> None:
        """Kernel side: a CQ event has fired (post-IRQ)."""
        self._events.put(cq)

    def wait(self, core: Core) -> Generator["Event", object, "CompletionQueue"]:
        """Application side: block until a CQ event arrives.

        Charges the epoll-style arm/sleep entry and the wake-up context
        switch; the core is *idle* while blocked (this is what lets DVFS
        boost and other threads run — the flip side of the latency cost).
        """
        cpu = self.system.cpu
        self.irq_core = core
        yield from core.syscall(cpu.block_ns)
        cq = yield self._events.get()
        yield from core.run(cpu.context_switch_ns)
        self.wakeups += 1
        return cq  # type: ignore[return-value]
