"""Completion queues.

A CQ is a bounded ring in host memory.  The NIC pushes CQEs (timed DMA
writes happen in the NIC engine; here is just the data structure), and the
application polls via its dataplane (which charges bypass vs CoRD costs).
``req_notify`` arms the CQ so the next CQE raises a completion event
(interrupt path) — the paper's "no polling" configuration.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Optional

from repro.errors import CQError
from repro.verbs.wr import CQE

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator
    from repro.sim.events import Event


class CompletionQueue:
    """``ibv_cq`` analogue."""

    def __init__(self, sim: "Simulator", depth: int = 4096, name: str = "cq") -> None:
        if depth <= 0:
            raise CQError(f"CQ depth must be positive: {depth}")
        self.sim = sim
        self.depth = depth
        self.name = name
        self._nonempty_name = f"{name}.nonempty"
        self.entries: deque[CQE] = deque()
        self.overflowed = False
        self.armed = False
        #: Kernel hook: called on CQ event when armed (interrupt delivery).
        self.on_event: Optional[Callable[["CompletionQueue"], None]] = None
        self._nonempty_waiters: list["Event"] = []
        # Statistics.
        self.total_cqes = 0
        self.events_raised = 0

    # -- NIC side ---------------------------------------------------------------

    def push(self, cqe: CQE) -> None:
        """NIC deposits a completion (already timed by the engine)."""
        if len(self.entries) >= self.depth:
            # Real hardware transitions the CQ to error; we record and drop.
            self.overflowed = True
            raise CQError(f"CQ {self.name} overflow (depth {self.depth})")
        now = cqe.timestamp = self.sim.now
        self.entries.append(cqe)
        self.total_cqes += 1
        mon = self.sim._monitor
        if mon is not None:
            mon.on_cqe(self, cqe)
        waiters, self._nonempty_waiters = self._nonempty_waiters, []
        for ev in waiters:
            ev.succeed(now)
        if self.armed:
            self.armed = False
            self.events_raised += 1
            if self.on_event is not None:
                self.on_event(self)

    # -- application side ----------------------------------------------------------

    def poll(self, max_entries: int = 16) -> list[CQE]:
        """Reap up to ``max_entries`` completions (data movement only;
        CPU cost is charged by the dataplane wrapper)."""
        if max_entries <= 0:
            raise CQError(f"poll max_entries must be positive: {max_entries}")
        out: list[CQE] = []
        while self.entries and len(out) < max_entries:
            out.append(self.entries.popleft())
        return out

    def req_notify(self) -> None:
        """Arm the CQ: the next pushed CQE raises a completion event."""
        self.armed = True

    def wait_nonempty(self) -> "Event":
        """Event that fires when the CQ holds at least one CQE.

        Fires immediately if it already does.  Used by waiter models to
        avoid simulating every spin of a poll loop.
        """
        ev = self.sim.event(name=self._nonempty_name)
        if self.entries:
            ev.succeed(self.sim.now)
        else:
            self._nonempty_waiters.append(ev)
        return ev

    def __len__(self) -> int:
        return len(self.entries)
