"""Differential test: ``repro.stats`` against numpy, compared by ``repr``.

The latency and stage statistics moved from numpy to pure Python; every
figure number stays the same only if each result is the same float64,
so the comparison is by ``repr``, never by tolerance.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import stats
from repro.perftest.lat import LatencyResult
from repro.sim.rng import stream_seed

#: Both sides of each pairwise-sum boundary (8 accumulators, 128 block,
#: recursive halving) and a few multi-level lengths.
LENGTHS = (1, 7, 8, 9, 127, 128, 129, 136, 1000, 1025, 8193)
KINDS = ("ties", "integral", "lognormal")
QS = (0, 50, 99, 100)


def _samples(kind: str, n: int, seed: int) -> list[float]:
    # sim: allow-random(test samples from numpy, seeded as the registry seeds stream `kind`)
    rng = np.random.default_rng(stream_seed(seed, kind))
    if kind == "ties":
        return rng.choice([250.0, 615.5, 1023.25], size=n).tolist()
    if kind == "integral":
        return rng.integers(0, 10**6, size=n).astype(float).tolist()
    return rng.lognormal(7.0, 1.5, size=n).tolist()


def _mean_mismatches(mean) -> list[tuple[str, int]]:
    """The fixed cases where ``mean`` disagrees with ``numpy.mean``."""
    return [(kind, n) for kind in KINDS for n in LENGTHS
            if repr(mean(xs := _samples(kind, n, n))) != repr(float(np.mean(xs)))]


def test_mean_matches_numpy_on_every_boundary_length():
    assert _mean_mismatches(stats.mean) == []


def test_differential_check_fails_a_naive_mean():
    """Teeth: one left-to-right sum, as most hand-written means do, differs."""
    assert _mean_mismatches(lambda xs: sum(xs) / len(xs)) != []


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", LENGTHS)
def test_percentile_matches_numpy(kind, n):
    xs = _samples(kind, n, n)
    for q in QS:
        assert repr(stats.percentile(xs, q)) == repr(float(np.percentile(xs, q))), q


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from(LENGTHS) | st.integers(min_value=1, max_value=3000),
       kind=st.sampled_from(KINDS), seed=st.integers(0, 2**32 - 1),
       q=st.sampled_from(QS) | st.floats(min_value=0, max_value=100))
def test_random_samples_match_numpy(n, kind, seed, q):
    xs = _samples(kind, n, seed)
    assert repr(stats.mean(xs)) == repr(float(np.mean(xs)))
    assert repr(stats.percentile(xs, q)) == repr(float(np.percentile(xs, q)))


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                          min_value=-1e12, max_value=1e12), min_size=1, max_size=300),
       st.floats(min_value=0, max_value=100))
def test_arbitrary_floats_match_numpy(xs, q):
    assert repr(stats.mean(xs)) == repr(float(np.mean(xs)))
    assert repr(stats.percentile(xs, q)) == repr(float(np.percentile(xs, q)))


def test_negative_zero_matches_numpy():
    for xs in ([-0.0], [-0.0] * 9, [-0.0] * 200, [-0.0, 0.0]):
        for fn, ref in ((stats.mean, np.mean),
                        (lambda v: stats.percentile(v, 50), lambda v: np.percentile(v, 50))):
            assert repr(fn(xs)) == repr(float(ref(xs))), xs


def test_empty_input_fails_as_numpy_does():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert math.isnan(np.mean([]))
    assert math.isnan(stats.mean([]))
    with pytest.raises(IndexError):
        np.percentile([], 50)
    with pytest.raises(IndexError):
        stats.percentile([], 50)
    empty = LatencyResult(size=0, iters=0)
    assert math.isnan(empty.avg_ns)
    for prop in ("p50_ns", "p99_ns"):
        with pytest.raises(IndexError):
            getattr(empty, prop)
    with pytest.raises(ValueError):
        empty.min_ns
