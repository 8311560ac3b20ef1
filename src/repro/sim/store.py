"""FIFO stores — blocking queues between simulation processes.

Connection-manager requests, IRQ events, IPoIB socket queues and the
storage fetch queue are stores: producers ``put`` items, consumers ``get``
them and block while the store is empty.  Every store is unbounded, so a
put never blocks.  The NIC engines are callback-driven servers instead.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from repro.sim.events import _PENDING, Event

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator


class StorePut(Event):
    __slots__ = ()

    def __init__(self, store: "Store", item: object):
        # Inlined Event.__init__ with the store's precomputed name (one
        # StorePut/StoreGet pair per queue hop).  A put always stores its
        # item at once, so the event is born processed.
        self.sim = store.sim
        self.name = store._put_name
        self.callbacks = None
        self._value = item
        self._ok = True
        self._defused = False


class StoreGet(Event):
    __slots__ = ()

    def __init__(self, store: "Store"):
        # Same inlined init as StorePut; the callbacks list is left unset
        # and Store.get fills it in (None when an item is taken inline, a
        # fresh list when the get parks).
        self.sim = store.sim
        self.name = store._get_name
        self._value = _PENDING
        self._ok = True
        self._defused = False


class Store:
    """Unbounded FIFO store of arbitrary items."""

    __slots__ = ("sim", "name", "items", "_getters", "_put_name", "_get_name")

    def __init__(self, sim: "Simulator", name: str = "store"):
        self.sim = sim
        self.name = name
        self._put_name = f"put:{name}"
        self._get_name = f"get:{name}"
        self.items: deque[object] = deque()
        self._getters: deque[StoreGet] = deque()

    def put(self, item: object) -> StorePut:
        """Append ``item``; the returned event is born processed.

        No heap round trip for the ack nobody usually waits on.  A parked
        getter is woken through the event loop.
        """
        event = StorePut(self, item)
        if self._getters:
            # A getter only parks on an empty store.
            self._getters.popleft().succeed(item)
        else:
            self.items.append(item)
        san = self.sim._sanitize
        if san is not None:
            san.note_touch(self, f"store {self.name!r}", "put", contended=False)
        return event

    def get(self) -> StoreGet:
        """Remove the oldest item; the event's value is the item.

        A get that can be satisfied immediately completes *inline* (the
        event is born processed), so ``yield store.get()`` in a drain loop
        continues without parking.  An empty store parks the getter until
        a put serves it, oldest getter first.
        """
        event = StoreGet(self)
        items = self.items
        if items:  # then no getter is parked
            event._value = items.popleft()
            event.callbacks = None
        else:
            event.callbacks = []
            self._getters.append(event)
        san = self.sim._sanitize
        if san is not None:
            # Parked at return = the store was empty (or had earlier
            # getters): wake order among same-bucket getters is seq-decided.
            san.note_touch(self, f"store {self.name!r}", "get",
                           contended=event.callbacks is not None)
        return event
