"""Capacity-limited FIFO resources.

Used for CPU cores (capacity 1 per core), the fabric's TX/RX ports, the
kernel's softirq queues and storage channels.  Every hold follows one
protocol::

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
and :meth:`Resource.acquire` queues a :class:`Request`, granted in FIFO
order through the event loop.

A bare request is an event that succeeds when a slot is granted::

    req = res.request()
    yield req
    yield busy_time
    res.release(req)

Releasing a request that is still queued cancels it.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Generator, Optional

from repro.errors import SimulationError
from repro.sim.events import _PENDING, Event

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator


class Request(Event):
    """A pending or granted claim on a :class:`Resource` slot."""

    __slots__ = ()

    def __init__(self, resource: "Resource"):
        # Inlined Event.__init__ with the resource's precomputed request name
        # (one request per hold not taken inline — hot).  The callbacks list
        # is left unset; Resource.request fills it in (None for an inline
        # grant, a fresh list when the request queues).
        self.sim = resource.sim
        self.name = resource._req_name
        self._value = _PENDING
        self._ok = True
        self._defused = False


class Resource:
    """FIFO resource with integer capacity."""

    __slots__ = ("sim", "capacity", "name", "users", "queue", "_req_name", "_held")

    def __init__(self, sim: "Simulator", capacity: int = 1, name: str = "resource"):
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._req_name = f"req:{name}"
        self.users: list[Request] = []
        self.queue: deque[Request] = deque()
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
        # Installing the fixed list (instead of appending to ``users``)
        # keeps the hold free of list mutation, and makes "the token
        # holds" an identity test in :meth:`release`.
        self.users = held
        return held[0]

    def acquire(self) -> Generator[Event, object, Request]:
        """Wait for a slot (generator); return the granted request."""
        req = self.request()
        yield req
        return req

    def request(self) -> Request:
        """Claim a slot; the returned event succeeds when granted.

        An uncontended grant completes the request *inline* (the event is
        born processed), so ``yield req`` continues the requester without a
        heap round trip — the requester was going to run next at this
        timestamp anyway.  Contended requests queue and are granted through
        the event loop by :meth:`release`, preserving FIFO wake order.
        """
        req = Request(self)
        if len(self.users) < self.capacity:
            self.users.append(req)
            req._value = req
            req.callbacks = None
            parked = False
        else:
            req.callbacks = []
            self.queue.append(req)
            parked = True
        san = self.sim._sanitize
        if san is not None:
            # Contended when the grant raced a full resource: an inline win
            # or a park decides the winner by heap-insertion seq.
            san.note_touch(self, f"resource {self.name!r}", "request",
                           contended=parked)
        return req

    def release(self, req: Request) -> None:
        """Return a slot.  Releasing a queued (ungranted) request cancels it."""
        users = self.users
        if users is self._held and req is users[0]:
            # Inline token: the held list itself is never mutated, a fresh
            # one replaces it.  No sanitizer is attached (no token else).
            self.users = users = []
        else:
            san = self.sim._sanitize
            if san is not None:
                # A release hands the slot to the FIFO head regardless of
                # seq order within the bucket, so it never contends by itself.
                san.note_touch(self, f"resource {self.name!r}", "release",
                               contended=False)
            try:
                users.remove(req)
            except ValueError:
                try:
                    self.queue.remove(req)
                except ValueError:
                    raise SimulationError(
                        f"release of {req!r} that neither holds nor waits "
                        f"for {self.name}"
                    ) from None
                return
        if self.queue:
            nxt = self.queue.popleft()
            users.append(nxt)
            nxt.succeed(nxt)
