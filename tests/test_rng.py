"""Named rng streams: lazy construction and the batched-jitter contract."""

import hashlib

import pytest

from repro.cluster import build_pair
from repro.hw.profiles import get_profile
from repro.sanitize import findings_of
from repro.sim import Simulator

MEAN, CV = 500.0, 0.35
#: Crosses two 256-draw refills of the jitter source's prefetch block.
DRAWS = 600


def _scalar_lognormal(master_seed, name, n):
    """Per-call ``Generator.lognormal`` on the registry's seed for ``name``."""
    import numpy as np

    digest = hashlib.sha256(f"{master_seed}:{name}".encode("utf-8")).digest()
    # sim: allow-random(reference generator rebuilt from the registry's seed derivation)
    gen = np.random.default_rng(int.from_bytes(digest[:8], "little"))
    sigma2 = np.log(1.0 + CV * CV)
    mu = float(np.log(MEAN) - sigma2 / 2.0)
    sigma = float(np.sqrt(sigma2))
    return [repr(float(gen.lognormal(mu, sigma))) for _ in range(n)]


@pytest.mark.parametrize("sanitize", [False, True], ids=["plain", "sanitized"])
def test_jitter_stream_equals_scalar_lognormal_draw_for_draw(sanitize):
    sim = Simulator(seed=11, sanitize=sanitize)
    jitter = sim.rng.jitter_stream("cpu:core0")
    assert sim.rng.stream_states() == ()  # the generator is built at the first draw
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
    # One draw out of a fresh 256-normal block: 255 stay buffered.
    assert states[0][-1] == 255
