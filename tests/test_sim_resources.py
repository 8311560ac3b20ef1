"""Unit tests for resources and stores."""

import pytest

from repro.errors import ProcessInterrupt, SimulationError
from repro.sim import FilterStore, PriorityResource, Resource, Simulator, Store


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


def test_resource_context_manager_releases():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    times = []

    def user():
        with res.request() as req:
            yield req
            times.append(sim.now)
            yield sim.timeout(5.0)

    sim.process(user())
    sim.process(user())
    sim.run()
    assert times == [0.0, 5.0]
    assert res.count == 0


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


def test_priority_resource_serves_low_value_first():
    sim = Simulator()
    res = PriorityResource(sim, capacity=1)
    order = []

    def holder():
        req = res.request()
        yield req
        yield sim.timeout(10.0)
        res.release(req)

    def user(tag, prio):
        yield sim.timeout(1.0)  # arrive after the holder
        req = res.request(priority=prio)
        yield req
        order.append(tag)
        res.release(req)

    sim.process(holder())
    sim.process(user("low-prio", 5))
    sim.process(user("high-prio", 1))
    sim.process(user("mid-prio", 3))
    sim.run()
    assert order == ["high-prio", "mid-prio", "low-prio"]


def test_priority_ties_are_fifo():
    sim = Simulator()
    res = PriorityResource(sim, capacity=1)
    order = []

    def holder():
        req = res.request()
        yield req
        yield sim.timeout(10.0)
        res.release(req)

    def user(tag):
        yield sim.timeout(1.0)
        req = res.request(priority=1)
        yield req
        order.append(tag)
        res.release(req)

    sim.process(holder())
    for tag in range(4):
        sim.process(user(tag))
    sim.run()
    assert order == [0, 1, 2, 3]


def test_resource_utilization_accounting():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def user():
        req = res.request()
        yield req
        yield sim.timeout(50.0)
        res.release(req)
        yield sim.timeout(50.0)

    sim.process(user())
    sim.run()
    assert res.utilization() == pytest.approx(0.5)


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
    assert tok is not None and res.count == 1
    assert res.try_hold() is None  # busy: fall back to acquire()
    res.release(tok)
    assert res.count == 0
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
        return log, res.utilization(), sim.now

    assert trace(inline=True) == trace(inline=False)


def test_inline_utilization_matches_request_path():
    def utilization(inline):
        sim = Simulator()
        res = Resource(sim, capacity=1)

        def user():
            for busy, idle in ((50.0, 25.0), (0.3, 7.1), (12.5, 0.0), (1.0, 3.0)):
                tok = res.try_hold() if inline else None
                if tok is None:
                    tok = res.request()
                    yield tok
                yield busy
                res.release(tok)
                yield idle

        sim.process(user())
        sim.run()
        mid = res.utilization(since=10.0)
        return res.utilization(), mid, res._busy_integral

    assert utilization(inline=True) == utilization(inline=False)


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


def test_priority_resource_after_inline_holder():
    sim = Simulator()
    res = PriorityResource(sim, capacity=1)
    order = []

    def holder():
        tok = res.try_hold()
        assert tok is not None
        yield sim.timeout(10.0)
        res.release(tok)

    def user(tag, prio):
        yield sim.timeout(1.0)
        req = yield from res.acquire(priority=prio)
        order.append((tag, sim.now))
        yield sim.timeout(1.0)
        res.release(req)

    sim.process(holder())
    sim.process(user("low", 5))
    sim.process(user("high", 1))
    sim.process(user("mid", 3))
    sim.run()
    assert order == [("high", 10.0), ("mid", 11.0), ("low", 12.0)]
    assert res.queue_length == 0


def test_sanitized_resource_takes_the_request_path():
    sim = Simulator(sanitize=True)
    res = Resource(sim, capacity=1)
    assert res.try_hold() is None


def test_interrupted_waiter_does_not_leak_the_slot():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    late = []

    def holder():
        tok = yield from _hold(res)
        yield sim.timeout(100.0)
        res.release(tok)

    def waiter():
        try:
            tok = yield from _hold(res)
        except ProcessInterrupt:
            return "interrupted"
        res.release(tok)
        return "granted"

    def latecomer():
        yield sim.timeout(150.0)
        tok = yield from _hold(res)
        late.append(sim.now)
        res.release(tok)

    sim.process(holder())
    w = sim.process(waiter())
    sim.process(latecomer())
    sim.call_later(10.0, lambda _: w.interrupt("give up"))
    sim.run()
    assert w.value == "interrupted"
    assert late == [150.0]
    assert res.count == 0 and res.queue == []


def test_interrupt_after_same_instant_grant_releases_the_slot():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    late = []

    def holder():
        tok = yield from _hold(res)
        yield sim.timeout(100.0)
        res.release(tok)
        # The waiter's grant is now scheduled; interrupt it before it runs.
        w.interrupt("too late")

    def waiter():
        yield sim.timeout(1.0)
        try:
            yield from _hold(res)
        except ProcessInterrupt:
            return "interrupted"
        return "granted"

    def latecomer():
        yield sim.timeout(150.0)
        tok = yield from _hold(res)
        late.append(sim.now)
        res.release(tok)

    sim.process(holder())
    w = sim.process(waiter())
    sim.process(latecomer())
    sim.run()
    assert w.value == "interrupted"
    assert late == [150.0]
    assert res.count == 0


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


def test_bounded_store_blocks_put():
    sim = Simulator()
    store = Store(sim, capacity=1)
    done = []

    def producer():
        yield store.put("a")
        done.append(("a", sim.now))
        yield store.put("b")
        done.append(("b", sim.now))

    def consumer():
        yield sim.timeout(10.0)
        yield store.get()

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert done == [("a", 0.0), ("b", 10.0)]


def test_store_try_get():
    sim = Simulator()
    store = Store(sim)
    assert store.try_get() is None
    store.put("a")
    sim.run()
    assert store.try_get() == "a"
    assert store.try_get() is None


def test_filter_store_matches_predicate():
    sim = Simulator()
    store = FilterStore(sim)
    got = []

    def consumer():
        item = yield store.get(lambda x: x % 2 == 0)
        got.append(item)

    def producer():
        for i in (1, 3, 4, 5):
            yield store.put(i)

    sim.process(consumer())
    sim.process(producer())
    sim.run()
    assert got == [4]
    assert list(store.items) == [1, 3, 5]


def test_filter_store_try_get_with_filter():
    sim = Simulator()
    store = FilterStore(sim)
    for i in range(5):
        store.put(i)
    sim.run()
    assert store.try_get(lambda x: x > 2) == 3
    assert store.try_get(lambda x: x > 10) is None


def test_store_high_water_mark():
    sim = Simulator()
    store = Store(sim)
    for i in range(7):
        store.put(i)
    sim.run()
    assert store.max_occupancy == 7
