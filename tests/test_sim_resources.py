"""Unit tests for resources and stores."""

import pytest

from repro.errors import SimulationError
from repro.sim import Resource, Simulator, Store


def test_resource_grants_up_to_capacity():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    grants = []

    def user(tag, hold):
        req = res.request()
        yield req
        grants.append((tag, sim.now))
        yield sim.timeout(hold)
        res.release(req)

    for tag in range(4):
        sim.process(user(tag, 10.0))
    sim.run()
    assert grants == [(0, 0.0), (1, 0.0), (2, 10.0), (3, 10.0)]


def test_resource_capacity_validation():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Resource(sim, capacity=0)


def test_release_of_queued_request_cancels_it():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def holder():
        req = res.request()
        yield req
        yield sim.timeout(100.0)
        res.release(req)

    def impatient():
        req = res.request()
        yield sim.timeout(10.0)
        res.release(req)  # give up before the grant
        return "gave-up"

    sim.process(holder())
    p = sim.process(impatient())
    assert sim.run(p) == "gave-up"


def test_release_unknown_request_raises():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    req = res.request()
    res.release(req)
    with pytest.raises(SimulationError):
        res.release(req)


# -- hold protocol: inline grant token, acquire fallback ------------------------


def _hold(res):
    """The hold bracket every model component uses (generator)."""
    tok = res.try_hold()
    if tok is None:
        tok = yield from res.acquire()
    return tok


def test_try_hold_is_inline_and_token_is_reused():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    tok = res.try_hold()
    assert tok is not None and len(res.users) == 1
    assert res.try_hold() is None  # busy: fall back to acquire()
    res.release(tok)
    assert res.users == []
    assert res.try_hold() is tok  # one reusable token per resource
    res.release(tok)


def test_inline_hold_then_contended_requests_keep_fifo_order_and_times():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    token = res.try_hold()
    res.release(token)
    log = []

    def user(tag, arrive, hold):
        yield sim.timeout(arrive)
        tok = yield from _hold(res)
        log.append((tag, "start", sim.now, tok is token))
        yield sim.timeout(hold)
        res.release(tok)
        log.append((tag, "end", sim.now))

    sim.process(user("a", 0.0, 10.0))
    sim.process(user("b", 1.0, 5.0))
    sim.process(user("c", 2.0, 5.0))
    sim.process(user("d", 30.0, 1.0))
    sim.run()
    assert log == [
        ("a", "start", 0.0, True),
        ("a", "end", 10.0), ("b", "start", 10.0, False),
        ("b", "end", 15.0), ("c", "start", 15.0, False),
        ("c", "end", 20.0),
        ("d", "start", 30.0, True), ("d", "end", 31.0),
    ]


def test_inline_hold_wake_order_matches_request_path():
    def trace(inline):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        log = []

        def user(tag, arrive):
            yield sim.timeout(arrive)
            if inline:
                tok = yield from _hold(res)
            else:
                tok = res.request()
                yield tok
            log.append((tag, sim.now))
            yield sim.timeout(3.0)
            res.release(tok)

        for tag, arrive in enumerate((0.0, 0.0, 1.0, 2.0, 9.0, 9.0, 20.0)):
            sim.process(user(tag, arrive))
        sim.run()
        return log, sim.now

    assert trace(inline=True) == trace(inline=False)


def test_double_release_of_token_raises():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    tok = res.try_hold()
    res.release(tok)
    with pytest.raises(SimulationError):
        res.release(tok)
    # ...also once another holder owns the slot.
    req = res.request()
    with pytest.raises(SimulationError):
        res.release(tok)
    assert res.users == [req]


def test_capacity_above_one_has_no_inline_hold():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    assert res.try_hold() is None
    starts = []

    def user(tag):
        tok = yield from _hold(res)
        starts.append((tag, sim.now))
        yield sim.timeout(10.0)
        res.release(tok)

    for tag in range(3):
        sim.process(user(tag))
    sim.run()
    assert starts == [(0, 0.0), (1, 0.0), (2, 10.0)]


def test_sanitized_resource_takes_the_request_path():
    sim = Simulator(sanitize=True)
    res = Resource(sim, capacity=1)
    assert res.try_hold() is None


def test_store_fifo_order():
    sim = Simulator()
    store = Store(sim)
    got = []

    def producer():
        for i in range(3):
            yield store.put(i)
            yield sim.timeout(1.0)

    def consumer():
        for _ in range(3):
            item = yield store.get()
            got.append(item)

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert got == [0, 1, 2]


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)

    def consumer():
        item = yield store.get()
        return (item, sim.now)

    def producer():
        yield sim.timeout(25.0)
        yield store.put("x")

    p = sim.process(consumer())
    sim.process(producer())
    assert sim.run(p) == ("x", 25.0)
