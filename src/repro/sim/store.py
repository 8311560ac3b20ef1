"""FIFO stores — blocking queues between simulation processes.

Connection-manager requests, interrupt events, socket buffers and the
storage fetch queue are stores: producers ``put`` items (optionally
bounded), consumers ``get`` them, and both block when the store is
full/empty.  :class:`FilterStore` lets a consumer wait for the first item
matching a predicate.  The NIC engines are callback-driven servers instead.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Optional

from repro.errors import SimulationError
from repro.sim.events import _PENDING, Event

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator


class StorePut(Event):
    __slots__ = ("item",)

    def __init__(self, store: "Store", item: object):
        # Inlined Event.__init__ with the store's precomputed name (one
        # StorePut/StoreGet pair per queue hop).  The callbacks list is left
        # unset; Store.put fills it in (None when the item is stored inline,
        # a fresh list when the put queues).
        self.sim = store.sim
        self.name = store._put_name
        self._value = _PENDING
        self._ok = True
        self._defused = False
        self.item = item


class StoreGet(Event):
    __slots__ = ("filter",)

    def __init__(self, store: "Store", filt: Optional[Callable[[object], bool]] = None):
        # Same lazy-callbacks contract as StorePut (see above).
        self.sim = store.sim
        self.name = store._get_name
        self._value = _PENDING
        self._ok = True
        self._defused = False
        self.filter = filt


class Store:
    """Unbounded-or-bounded FIFO store of arbitrary items."""

    __slots__ = (
        "sim",
        "capacity",
        "name",
        "items",
        "_putters",
        "_getters",
        "max_occupancy",
        "_put_name",
        "_get_name",
    )

    def __init__(
        self,
        sim: "Simulator",
        capacity: float = float("inf"),
        name: str = "store",
    ):
        if capacity <= 0:
            raise SimulationError(f"capacity must be positive, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._put_name = f"put:{name}"
        self._get_name = f"get:{name}"
        self.items: deque[object] = deque()
        self._putters: deque[StorePut] = deque()
        self._getters: deque[StoreGet] = deque()
        #: High-water mark, useful for sizing assertions in tests.
        self.max_occupancy = 0

    def __len__(self) -> int:
        return len(self.items)

    # -- operations ---------------------------------------------------------------

    def put(self, item: object) -> StorePut:
        """Insert ``item``; the returned event succeeds once it is stored.

        When capacity is free (and no earlier putter is queued) the item is
        stored and the event completes *inline* — no heap round trip for
        the ack nobody usually waits on.  A parked getter is still woken
        through the event loop, exactly as before.
        """
        event = StorePut(self, item)
        items = self.items
        if not self._putters and len(items) < self.capacity:
            items.append(item)
            event._value = item
            event.callbacks = None
            if len(items) > self.max_occupancy:
                self.max_occupancy = len(items)
            if self._getters:
                self._serve()
        else:
            event.callbacks = []
            self._putters.append(event)
            self._dispatch()
        san = self.sim._sanitize
        if san is not None:
            # Parked at return = the store was full: admission order among
            # same-bucket putters is decided by heap-insertion seq.
            san.note_touch(self, f"store {self.name!r}", "put",
                           contended=event.callbacks is not None)
        return event

    def get(self) -> StoreGet:
        """Remove the oldest item; the event's value is the item.

        A get that can be satisfied immediately completes *inline* (the
        event is born processed), so ``yield store.get()`` in a drain loop
        continues without parking.  Empty-store gets park as before.
        """
        event = StoreGet(self)
        items = self.items
        if items and not self._getters:
            event._value = items.popleft()
            event.callbacks = None
            if self._putters:
                self._dispatch()
        else:
            event.callbacks = []
            self._getters.append(event)
            self._dispatch()
        san = self.sim._sanitize
        if san is not None:
            # Parked at return = the store was empty (or had earlier
            # getters): wake order among same-bucket getters is seq-decided.
            san.note_touch(self, f"store {self.name!r}", "get",
                           contended=event.callbacks is not None)
        return event

    def try_get(self) -> Optional[object]:
        """Non-blocking get: pop and return the oldest item, or ``None``.

        Only valid when no getter is parked (otherwise it would steal).
        """
        if self._getters:
            raise SimulationError(f"try_get on {self.name} with parked getters")
        san = self.sim._sanitize
        if self.items:
            item = self.items.popleft()
            if san is not None:
                # A hit: a same-bucket rival poller would have missed.
                san.note_touch(self, f"store {self.name!r}", "try_get",
                               contended=True)
            self._dispatch()
            return item
        if san is not None:
            san.note_touch(self, f"store {self.name!r}", "try_get",
                           contended=False)
        return None

    # -- matching engine --------------------------------------------------------------

    def _admit(self) -> bool:
        """Move queued puts into storage while capacity allows."""
        moved = False
        items = self.items
        while self._putters and len(items) < self.capacity:
            put = self._putters.popleft()
            items.append(put.item)
            put.succeed(put.item)
            moved = True
        if moved and len(items) > self.max_occupancy:
            self.max_occupancy = len(items)
        return moved

    def _serve(self) -> bool:
        """Hand stored items to waiting getters (FIFO on both sides)."""
        moved = False
        items = self.items
        while self._getters and items:
            get = self._getters.popleft()
            get.succeed(items.popleft())
            moved = True
        return moved

    def _dispatch(self) -> None:
        # Admission can unblock getters and vice versa; loop to fixpoint
        # (signalled by moved-flags rather than tuple snapshots).
        while self._admit() | self._serve():
            pass


class FilterStore(Store):
    """Store whose getters may wait for the first item matching a predicate."""

    __slots__ = ()

    def get(self, filt: Optional[Callable[[object], bool]] = None) -> StoreGet:  # type: ignore[override]
        event = StoreGet(self, filt)
        event.callbacks = []
        self._getters.append(event)
        self._dispatch()
        san = self.sim._sanitize
        if san is not None:
            # Still parked after the matching pass = waiting; a same-bucket
            # rival getter whose filter also matches is served by seq order.
            san.note_touch(self, f"store {self.name!r}", "get",
                           contended=event.callbacks is not None)
        return event

    def try_get(self, filt: Optional[Callable[[object], bool]] = None) -> Optional[object]:  # type: ignore[override]
        if self._getters:
            raise SimulationError(f"try_get on {self.name} with parked getters")
        san = self.sim._sanitize
        for idx, item in enumerate(self.items):
            if filt is None or filt(item):
                del self.items[idx]  # type: ignore[arg-type]
                if san is not None:
                    san.note_touch(self, f"store {self.name!r}", "try_get",
                                   contended=True)
                self._dispatch()
                return item
        if san is not None:
            san.note_touch(self, f"store {self.name!r}", "try_get",
                           contended=False)
        return None

    def _serve(self) -> bool:
        moved = False
        served = True
        while served:
            served = False
            for gi, get in enumerate(self._getters):
                for ii, item in enumerate(self.items):
                    if get.filter is None or get.filter(item):
                        del self.items[ii]  # type: ignore[arg-type]
                        del self._getters[gi]
                        get.succeed(item)
                        served = True
                        moved = True
                        break
                if served:
                    break
        return moved
