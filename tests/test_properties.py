"""Property-based tests (hypothesis) on core invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Resource, Simulator, Store
from repro.sim.rng import RngRegistry
from repro.core.policies import TokenBucketQos
from repro.core.policy import OpContext
from repro.errors import PolicyViolation
from repro.verbs.wr import Opcode, SendWR

# -- simulator ordering ----------------------------------------------------------


@given(st.lists(st.floats(min_value=0, max_value=1e9,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=50))
def test_events_fire_in_time_order(delays):
    sim = Simulator()
    fired = []
    for d in delays:
        ev = sim.timeout(d, value=d)
        ev.callbacks.append(lambda e: fired.append(e.value))
    sim.run()
    assert fired == sorted(delays)
    assert sim.now == max(delays)


@given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=2**32 - 1))
def test_simulation_deterministic_replay(n, seed):
    def run_once():
        sim = Simulator(seed=seed)
        log = []

        def worker(tag):
            rng = sim.rng.stream(f"w{tag}")
            for _ in range(3):
                yield sim.timeout(float(1 + int(99 * rng.random())))
                log.append((tag, sim.now))

        for tag in range(n):
            sim.process(worker(tag))
        sim.run()
        return log

    assert run_once() == run_once()


# -- stores --------------------------------------------------------------------------


@given(st.lists(st.integers(), min_size=1, max_size=60))
def test_store_preserves_fifo(items):
    sim = Simulator()
    store = Store(sim)
    got = []

    def producer():
        for item in items:
            yield store.put(item)

    def consumer():
        for _ in items:
            value = yield store.get()
            got.append(value)

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert got == items


# -- resources --------------------------------------------------------------------------


@given(st.integers(min_value=1, max_value=8),
       st.lists(st.floats(min_value=1, max_value=100, allow_nan=False),
                min_size=1, max_size=30))
def test_resource_never_exceeds_capacity(capacity, holds):
    sim = Simulator()
    res = Resource(sim, capacity=capacity)
    max_seen = [0]

    def user(hold):
        req = res.request()
        yield req
        max_seen[0] = max(max_seen[0], len(res.users))
        yield sim.timeout(hold)
        res.release(req)

    for hold in holds:
        sim.process(user(hold))
    sim.run()
    assert max_seen[0] <= capacity
    assert res.users == [] and not res.queue


@given(st.lists(st.integers(min_value=0, max_value=5), min_size=2, max_size=20))
def test_resource_serves_waiters_in_arrival_order(arrivals):
    sim = Simulator()
    res = Resource(sim, capacity=1)
    served = []

    def holder():
        req = res.request()
        yield req
        yield sim.timeout(10.0)
        res.release(req)

    def user(arrive, idx):
        yield sim.timeout(1.0 + arrive)
        req = res.request()
        yield req
        served.append((arrive, idx))
        res.release(req)

    sim.process(holder())
    for idx, arrive in enumerate(arrivals):
        sim.process(user(arrive, idx))
    sim.run()
    # Every waiter queued behind the holder: FIFO by (arrival, start order).
    assert served == sorted(served)


# -- rng ------------------------------------------------------------------------------


@given(st.floats(min_value=1.0, max_value=1e6), st.floats(min_value=0.0, max_value=1.0))
def test_lognormal_jitter_positive_and_exact_when_cv_zero(mean, cv):
    rng = RngRegistry(0)
    value = rng.jitter_stream("w").draw(mean, cv)
    assert value > 0
    if cv == 0:
        assert value == mean
        assert rng.stream_states() == ()  # nothing drawn, no stream built


def test_lognormal_jitter_mean_converges():
    import numpy as np

    jitter = RngRegistry(1).jitter_stream("w")
    draws = [jitter.draw(500.0, 0.35) for _ in range(4000)]
    assert abs(np.mean(draws) / 500.0 - 1.0) < 0.05


# -- token bucket ------------------------------------------------------------------------


@given(st.lists(st.tuples(st.floats(min_value=0, max_value=1e6),
                          st.integers(min_value=1, max_value=10_000)),
                min_size=1, max_size=50))
def test_token_bucket_never_admits_above_rate_plus_burst(ops):
    rate = 1e9  # 1 B/ns
    burst = 8_000
    qos = TokenBucketQos(rate_bytes_per_s=rate, burst_bytes=burst)
    now = 0.0
    admitted = 0
    for dt, size in sorted(ops):
        now = dt
        wr = SendWR(wr_id=1, opcode=Opcode.SEND, length=size)
        ctx = OpContext(now=now, host=None, op="post_send", send_wr=wr)
        try:
            qos.evaluate(ctx)
            admitted += size
        except PolicyViolation:
            pass
        # Invariant: admitted bytes never exceed elapsed*rate + burst.
        assert admitted <= now * 1.0 + burst + 1e-6
    assert qos.bytes_admitted == admitted


# -- fabric timing ------------------------------------------------------------------------


@given(st.integers(min_value=0, max_value=1 << 24))
def test_serialization_monotonic_in_size(nbytes):
    from repro.cluster import build_cluster
    from repro.hw.profiles import SYSTEM_L

    sim = Simulator()
    fabric, _ = build_cluster(sim, SYSTEM_L, 2)
    t1 = fabric.serialization_ns(nbytes)
    t2 = fabric.serialization_ns(nbytes + 4096)
    assert t2 > t1
    assert t1 >= SYSTEM_L.nic.per_packet_ns


# -- MPI collectives over random configurations -------------------------------------------


@settings(deadline=None, max_examples=10)
@given(size=st.integers(min_value=2, max_value=7),
       nbytes=st.integers(min_value=1, max_value=1 << 16))
def test_allreduce_correct_for_any_world_and_size(size, nbytes):
    import numpy as np

    from repro.cluster import build_cluster
    from repro.hw.profiles import SYSTEM_L
    from repro.mpi import MpiWorld

    sim = Simulator(seed=1)
    _f, hosts = build_cluster(sim, SYSTEM_L, 2)
    world = MpiWorld(sim, hosts, size)

    def program(comm):
        data = np.full(4, float(comm.rank + 1))
        out = yield from comm.allreduce(nbytes=nbytes, data=data)
        return float(out[0])

    results = world.run(program)
    expected = size * (size + 1) / 2
    assert results == [expected] * size


# -- NIC conservation -------------------------------------------------------------------


@settings(deadline=None, max_examples=8)
@given(st.lists(st.sampled_from([64, 1024, 4096, 65536]), min_size=1, max_size=24),
       st.integers(min_value=0, max_value=2**16))
def test_every_posted_send_is_received_exactly_once(sizes, seed):
    """Conservation under random sizes/seeds: sends in == recv CQEs out,
    no duplicates, no losses, order preserved (RC)."""
    from repro.cluster import build_pair
    from repro.core.endpoint import make_rc_pair
    from repro.hw.profiles import SYSTEM_L
    from repro.verbs.wr import Opcode, RecvWR, SendWR

    sim = Simulator(seed=seed)
    _f, host_a, host_b = build_pair(sim, SYSTEM_L)

    def main():
        a, b = yield from make_rc_pair(host_a, host_b, "bypass", "bypass")
        wrs = [RecvWR(wr_id=1000 + i, addr=b.buf.addr, length=b.buf.length,
                      lkey=b.mr.lkey) for i in range(len(sizes))]
        yield from b.dataplane.post_recv_many(b.qp, wrs)
        for i, size in enumerate(sizes):
            yield from a.post_send(SendWR(wr_id=i, opcode=Opcode.SEND,
                                          addr=a.buf.addr, length=size,
                                          lkey=a.mr.lkey))
        got = []
        while len(got) < len(sizes):
            got.extend((yield from b.wait_recv()))
        return got

    got = sim.run(sim.process(main()))
    sim.run()  # drain trailing acks
    assert [c.byte_len for c in got] == sizes
    assert all(c.ok for c in got)
    # Hardware counters agree: every message crossed exactly once.
    assert host_a.nic.counters.tx_msgs == len(sizes)
    assert host_b.nic.counters.rx_msgs == len(sizes)
    assert host_b.nic.counters.rnr_naks_sent == 0
