"""Capacity-limited resources.

Used for CPU cores (capacity 1 per core), NIC execution units, IRQ lines
and the like.  Every hold follows one protocol::

    tok = res.try_hold()
    if tok is None:
        tok = yield from res.acquire()
    try:
        yield busy_time
    finally:
        res.release(tok)

:meth:`Resource.try_hold` takes an idle capacity-1 resource inline and
returns the resource's reusable grant token — no :class:`Request` is
allocated and the caller does not yield.  Otherwise it returns ``None``
and :meth:`Resource.acquire` queues a :class:`Request` (granted in FIFO
order through the event loop), cancelling it if the wait is interrupted.

A bare request is an event that succeeds when a slot is granted.  Open the
``try`` *before* the wait, so an interrupted waiter cancels its queued
request instead of leaking the slot it would later be granted::

    req = res.request()
    try:
        yield req
        yield busy_time
    finally:
        res.release(req)

Requests also work as context managers for the same bracket
(``with resource.request() as req: yield req``).
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Generator, Optional

from repro.errors import SimulationError
from repro.sim.events import _PENDING, Event

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator


class Request(Event):
    """A pending or granted claim on a :class:`Resource` slot."""

    __slots__ = ("resource", "priority", "_order")

    def __init__(self, resource: "Resource", priority: int = 0):
        # Inlined Event.__init__ with the resource's precomputed request name
        # (one request per hold not taken inline — hot).  The callbacks list
        # is left unset; Resource.request fills it in (None for an inline
        # grant, a fresh list when the request queues).
        self.sim = resource.sim
        self.name = resource._req_name
        self._value = _PENDING
        self._ok = True
        self._defused = False
        self.resource = resource
        self.priority = priority
        resource._order_seq += 1
        self._order = resource._order_seq

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.resource.release(self)

    def __lt__(self, other: "Request") -> bool:
        return (self.priority, self._order) < (other.priority, other._order)


class Resource:
    """FIFO resource with integer capacity."""

    __slots__ = (
        "sim",
        "capacity",
        "name",
        "users",
        "queue",
        "_order_seq",
        "_busy_integral",
        "_last_change",
        "_req_name",
        "_held",
    )

    def __init__(self, sim: "Simulator", capacity: int = 1, name: str = "resource"):
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._req_name = f"req:{name}"
        self.users: list[Request] = []
        self.queue: list[Request] = []
        self._order_seq = 0
        # Utilization accounting: busy integral for average-occupancy stats.
        self._busy_integral = 0.0
        self._last_change = sim.now
        #: ``users`` while an inline hold is on (see :meth:`try_hold`): a
        #: fixed one-element list holding the reusable grant token.  Only
        #: capacity-1 resources of an unsanitized simulator have one; the
        #: sanitizer is fixed at simulator construction, so deciding here
        #: is the same as deciding per hold.
        self._held: Optional[list[Request]] = None
        if capacity == 1 and sim._sanitize is None:
            tok = Request(self)
            tok._value = tok
            tok.callbacks = None
            self._held = [tok]

    # -- accounting ------------------------------------------------------------

    def _account(self) -> None:
        now = self.sim.now
        # sim: allow-float-eq(same-instant skip; both floats are copies of sim.now)
        if now != self._last_change:
            self._busy_integral += len(self.users) * (now - self._last_change)
            self._last_change = now

    def utilization(self, since: float = 0.0) -> float:
        """Average fraction of capacity busy since ``since`` (default t=0)."""
        self._account()
        elapsed = self.sim.now - since
        if elapsed <= 0:
            return 0.0
        return self._busy_integral / (elapsed * self.capacity)

    @property
    def count(self) -> int:
        """Number of slots currently in use."""
        return len(self.users)

    # -- protocol ---------------------------------------------------------------

    def try_hold(self) -> Optional[Request]:
        """Hold an idle capacity-1 resource inline; ``None`` if that is not possible.

        Returns the resource's grant token, already held: the caller does
        not yield and later passes the token to :meth:`release`.  An
        uncontended :meth:`request` is granted inline too, so skipping its
        allocation and its yield leaves the event heap, and every result,
        unchanged.  Returns ``None`` when the resource is busy, has
        capacity > 1, or runs under the sanitizer (whose SIM101 touches
        need the :class:`Request` path); the caller then falls back to
        :meth:`acquire`.
        """
        held = self._held
        if held is None or self.users:
            return None
        # No users, so the busy integral gains 0 over the idle gap: only
        # the change mark moves.  Installing the fixed list (instead of
        # appending to ``users``) keeps the hold free of list mutation, and
        # makes "the token holds" an identity test in :meth:`release`.
        self._last_change = self.sim._now
        self.users = held
        return held[0]

    def acquire(self, priority: int = 0) -> Generator[Event, object, Request]:
        """Wait for a slot (generator); return the granted request.

        If the wait ends in an exception (an interrupt), the request is
        cancelled — or, if it was granted in the same instant, released —
        before the exception propagates, so an abandoned waiter never
        strands the slot.
        """
        req = self.request(priority)
        try:
            yield req
        except BaseException:
            self.release(req)
            raise
        return req

    def request(self, priority: int = 0) -> Request:
        """Claim a slot; the returned event succeeds when granted.

        An uncontended grant completes the request *inline* (the event is
        born processed), so ``yield req`` continues the requester without a
        heap round trip — the requester was going to run next at this
        timestamp anyway.  Contended requests queue and are granted through
        the event loop by :meth:`release`, preserving FIFO wake order.
        """
        req = Request(self, priority=priority)
        sim = self.sim
        now = sim._now
        # sim: allow-float-eq(same-instant skip; both floats are copies of sim.now)
        if now != self._last_change:
            self._busy_integral += len(self.users) * (now - self._last_change)
            self._last_change = now
        if len(self.users) < self.capacity:
            self.users.append(req)
            req._value = req
            req.callbacks = None
            parked = False
        else:
            req.callbacks = []
            self._enqueue(req)
            parked = True
        san = sim._sanitize
        if san is not None:
            # Contended when the grant raced a full resource: an inline win
            # or a park decides the winner by heap-insertion seq.
            san.note_touch(self, f"resource {self.name!r}", "request",
                           contended=parked)
        return req

    def _enqueue(self, req: Request) -> None:
        self.queue.append(req)

    def _dequeue(self) -> Request:
        return self.queue.pop(0)

    def release(self, req: Request) -> None:
        """Return a slot.  Releasing a queued (ungranted) request cancels it."""
        users = self.users
        if users is self._held and req is users[0]:
            # Inline token: it is the sole user of a capacity-1 resource, so
            # the busy integral gains ``1 * gap`` (adding 0.0 is exact when
            # the gap is empty).  No sanitizer is attached (no token else).
            # The held list itself is never mutated: a fresh one replaces it.
            now = self.sim._now
            self._busy_integral += now - self._last_change
            self._last_change = now
            self.users = users = []
        else:
            sim = self.sim
            now = sim._now
            # sim: allow-float-eq(same-instant skip; both floats are copies of sim.now)
            if now != self._last_change:
                self._busy_integral += len(users) * (now - self._last_change)
                self._last_change = now
            san = sim._sanitize
            if san is not None:
                # A release hands the slot to the FIFO head regardless of
                # seq order within the bucket, so it never contends by itself.
                san.note_touch(self, f"resource {self.name!r}", "release",
                               contended=False)
            try:
                users.remove(req)
            except ValueError:
                self._cancel(req)
                return
        if self.queue:
            nxt = self._dequeue()
            users.append(nxt)
            nxt.succeed(nxt)

    def _cancel(self, req: Request) -> None:
        try:
            self.queue.remove(req)
        except ValueError:
            raise SimulationError(
                f"release of {req!r} that neither holds nor waits for {self.name}"
            ) from None


class PriorityResource(Resource):
    """Resource whose wait queue is ordered by (priority, FIFO).

    Lower priority values are served first, matching SimPy convention.
    The wait queue is kept as a heap.
    """

    __slots__ = ()

    def __init__(self, sim: "Simulator", capacity: int = 1, name: str = "presource"):
        super().__init__(sim, capacity=capacity, name=name)

    def _enqueue(self, req: Request) -> None:
        heapq.heappush(self.queue, req)

    def _dequeue(self) -> Request:
        return heapq.heappop(self.queue)

    def _cancel(self, req: Request) -> None:
        super()._cancel(req)
        heapq.heapify(self.queue)

    @property
    def queue_length(self) -> int:
        return len(self.queue)
