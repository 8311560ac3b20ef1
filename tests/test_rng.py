"""Named rng streams: lazy construction, the jitter source, and
a differential check of the pure-Python PCG64 against numpy's.

The simulator never imports numpy; the differential tests do (numpy is in
the ``dev`` extra) and are skipped without it.  Every comparison is exact:
the streams must reproduce ``numpy.random.default_rng`` bit for bit.
"""

import math

import pytest

from repro.cluster import build_pair
from repro.hw.profiles import get_profile
from repro.sanitize import findings_of
from repro.sim import Simulator, rng
from repro.sim.rng import RngRegistry, Stream, seed_words, stream_seed

MEAN, CV = 500.0, 0.35
#: Jittered draws compared one by one against numpy's per-call lognormal.
DRAWS = 600

#: Registry-derived seeds: one stream name of each kind the simulator
#: builds (syscall and IRQ jitter, link loss, ECN marking) under 40 master
#: seeds (240 seeds).
NAMES = ("cpu:host0.core0", "cpu:host1.core0", "irq:h0", "irq:h1",
         "faults.fabric.l0-1", "fabric.ecn2")
SEEDS = [stream_seed(master, name) for master in range(40) for name in NAMES]


def _numpy():
    return pytest.importorskip("numpy")


def _default_rng(seed):
    np = _numpy()
    # sim: allow-random(numpy reference generator for the differential check)
    return np.random.default_rng(seed)


def _head_params(mean, cv):
    """``(mu, sigma)`` as the numpy-backed ``JitterStream`` derived them."""
    np = _numpy()
    sigma2 = np.log(1.0 + cv * cv)
    return float(np.log(mean) - sigma2 / 2.0), float(np.sqrt(sigma2))


def _scalar_lognormal(master_seed, name, n, mean=MEAN, cv=CV):
    """Per-call ``Generator.lognormal`` on the registry's seed for ``name``."""
    gen = _default_rng(stream_seed(master_seed, name))
    mu, sigma = _head_params(mean, cv)
    return [repr(float(gen.lognormal(mu, sigma))) for _ in range(n)]


@pytest.mark.parametrize("sanitize", [False, True], ids=["plain", "sanitized"])
def test_jitter_stream_equals_scalar_lognormal_draw_for_draw(sanitize):
    sim = Simulator(seed=11, sanitize=sanitize)
    jitter = sim.rng.jitter_stream("cpu:core0")
    assert sim.rng.stream_states() == ()  # the stream is built at the first draw
    draws = [repr(jitter.draw(MEAN, CV)) for _ in range(DRAWS)]
    assert draws == _scalar_lognormal(11, "cpu:core0", DRAWS)
    assert findings_of(sim) == []


def test_zero_cv_draws_build_no_stream():
    sim = Simulator(seed=11)
    jitter = sim.rng.jitter_stream("irq:h0")
    assert [jitter.draw(MEAN, 0.0) for _ in range(3)] == [MEAN] * 3
    assert jitter.draw(0.0, CV) == 0.0
    assert sim.rng.stream_states() == ()


def test_testbed_build_leaves_stream_states_until_first_jittered_syscall():
    sim = Simulator(seed=3)
    before = sim.rng.stream_states()
    _fabric, host, _peer = build_pair(sim, get_profile("A"))
    assert sim.rng.stream_states() == before == ()
    core = host.cpus.pin()
    sim.run(sim.process(core.syscall(0.0)))
    states = sim.rng.stream_states()
    assert states != before
    assert [s[0] for s in states] == [f"cpu:{core.name}"]
    # The syscall drew exactly one normal from a fresh stream.
    ref = Stream(stream_seed(3, f"cpu:{core.name}"))
    ref.normals(1)
    assert states[0][1] == (ref.state, ref.inc)


def test_one_normal_at_a_time_equals_a_block():
    """The jitter source draws ``normals(1)`` per value: the sequence is
    the same as one long block, state included."""
    for master in range(20):
        seed = stream_seed(master, "cpu:core0")
        block, single = Stream(seed), Stream(seed)
        assert [single.normals(1)[0] for _ in range(1000)] == block.normals(1000)
        assert (single.state, single.inc) == (block.state, block.inc)


# -- differential: the same bits as numpy -------------------------------------


def test_seeding_matches_seed_sequence_and_pcg64_state():
    np = _numpy()
    edge = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**96 + 5, 2**200 + 3]
    for seed in SEEDS + edge:
        # sim: allow-random(numpy reference seeding for the differential check)
        words = np.random.SeedSequence(seed).generate_state(4, np.uint64)
        assert seed_words(seed) == tuple(words.tolist()), seed
        state = _default_rng(seed).bit_generator.state
        stream = Stream(seed)
        assert state["bit_generator"] == "PCG64"
        assert (stream.state, stream.inc) == (state["state"]["state"],
                                              state["state"]["inc"]), seed


def test_uniforms_match_generator_random():
    for seed in SEEDS[:150]:
        gen, stream = _default_rng(seed), Stream(seed)
        assert [stream.random() for _ in range(50)] == \
            [gen.random() for _ in range(50)], seed


class _CountingStream(Stream):
    """Counts the ziggurat's rare branches without changing a draw."""

    def __init__(self, seed):
        super().__init__(seed)
        self.tails = self.wedges = 0

    def _tail(self, negative):
        self.tails += 1
        return super()._tail(negative)

    def _wedge(self, idx, z):
        self.wedges += 1
        return super()._wedge(idx, z)


def test_normals_match_standard_normal_through_every_branch():
    """768,000 normals over 300 seeds, drawn in blocks of 256, 1 and 2,303
    and interleaved with uniforms, with both rare branches exercised."""
    tails = wedges = 0
    seeds = [stream_seed(master, "normals") for master in range(300)]
    for seed in seeds:
        gen, stream = _default_rng(seed), _CountingStream(seed)
        for block in (256, 1, 2303):
            assert stream.normals(block) == gen.standard_normal(block).tolist(), seed
        assert stream.random() == gen.random()
        state = gen.bit_generator.state["state"]
        assert (stream.state, stream.inc) == (state["state"], state["inc"])
        tails += stream.tails
        wedges += stream.wedges
    assert tails > 0 and wedges > 0, (tails, wedges)


def test_stream_states_report_the_pcg64_state():
    reg = RngRegistry(5)
    jitter = reg.jitter_stream("cpu:x")
    jitter.draw(MEAN, CV)
    ((name, (state, inc)),) = reg.stream_states()
    gen = _default_rng(stream_seed(5, "cpu:x"))
    gen.standard_normal(1)
    ref = gen.bit_generator.state["state"]
    assert (name, state, inc) == ("cpu:x", ref["state"], ref["inc"])


def _profile_jitter_pairs():
    """Every ``(mean, cv)`` a short system A fig5 sweep (CoRD latency and
    bandwidth over the figure's sizes and ops) draws jitter with."""
    from repro.perftest.runner import PerftestConfig, run_bw, run_lat

    rng._JITTER_PARAMS.clear()
    for size in (64, 256, 512, 1024, 2048, 4096, 16384):
        run_lat(PerftestConfig(system="A", client="cord", server="cord",
                               iters=10, warmup=2), size)
    for transport, op in (("RC", "send"), ("RC", "write"), ("UD", "send")):
        for size in (256, 1024, 4096, 16384, 65536, 262144, 1 << 20):
            if transport == "UD" and size > 4096:
                continue
            run_bw(PerftestConfig(system="A", transport=transport, op=op,
                                  client="cord", server="cord", iters=20,
                                  warmup=4, window=8), size)
    return sorted(rng._JITTER_PARAMS) + [(MEAN, CV)]


def test_jitter_draws_match_the_numpy_derived_lognormal_on_profile_pairs():
    """``math.log``/``math.sqrt`` give the same ``(mu, sigma)`` as the
    numpy scalar math they replaced, and every draw is the same
    ``exp(mu + sigma * z)`` over numpy's normals."""
    np = _numpy()
    pairs = _profile_jitter_pairs()
    assert len(pairs) >= 5 and {cv for _m, cv in pairs} == {CV}
    for mean, cv in pairs:
        sigma2 = math.log(1.0 + cv * cv)
        assert repr(sigma2) == repr(float(np.log(1.0 + cv * cv)))
        assert repr(math.log(mean)) == repr(float(np.log(mean)))
        assert repr(math.sqrt(sigma2)) == repr(float(np.sqrt(sigma2)))
        mu, sigma = _head_params(mean, cv)
        reg = RngRegistry(7)
        jitter = reg.jitter_stream("cpu:pair")
        zs = _default_rng(stream_seed(7, "cpu:pair")).standard_normal(2 * 256)
        assert [repr(jitter.draw(mean, cv)) for _ in range(len(zs))] == \
            [repr(math.exp(mu + sigma * z)) for z in zs.tolist()], (mean, cv)
