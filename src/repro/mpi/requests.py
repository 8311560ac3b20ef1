"""Nonblocking request handles."""

from __future__ import annotations

import itertools

_req_ids = itertools.count(1)


class Request:
    """An in-flight send or receive."""

    __slots__ = ("req_id", "kind", "done", "source", "tag", "nbytes", "data")

    def __init__(self, kind: str, source: int = -1, tag: int = -1):
        self.req_id = next(_req_ids)
        self.kind = kind  # "send" | "recv"
        self.done = False
        #: Filled on completion (receives): actual source, tag, size, payload.
        self.source = source
        self.tag = tag
        self.nbytes: int = 0
        self.data: object = None

    def complete(
        self, source: int = -1, tag: int = -1, nbytes: int = 0, data: object = None
    ) -> None:
        assert not self.done, f"request {self.req_id} completed twice"
        self.done = True
        if source >= 0:
            self.source = source
        if tag >= 0:
            self.tag = tag
        self.nbytes = nbytes
        self.data = data

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self.done else "pending"
        return f"<Request {self.req_id} {self.kind} {state}>"
