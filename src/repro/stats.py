"""Sample statistics that match numpy's float64 results bit for bit.

The latency and stage statistics are the figures' numbers, so their bits
are pinned here rather than in numpy's reduction internals: a run that
reads them never loads numpy, and the results do not depend on its
version.  Inputs are float sequences without NaN, as the simulator
records them.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import add
from typing import Callable, Sequence

#: numpy's pairwise-summation block (``PW_BLOCKSIZE``).
_BLOCK = 128

#: ``operator.add`` typed for floats, so each fold stays a float to mypy.
_add: Callable[[float, float], float] = add


def _pairwise_sum(xs: Sequence[float]) -> float:
    """numpy's ``pairwise_sum`` over float64, one addition at a time."""
    n = len(xs)
    if n < 8:
        return reduce(_add, xs, 0.0)
    if n <= _BLOCK:
        # Eight strided accumulators, combined as a tree, then the tail.
        m = n - n % 8
        r = [reduce(_add, xs[k:m:8]) for k in range(8)]
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        return reduce(_add, xs[m:], res)
    half = n // 2
    half -= half % 8
    return _pairwise_sum(xs[:half]) + _pairwise_sum(xs[half:])


def mean(xs: Sequence[float]) -> float:
    """``numpy.mean``: nan for no samples, as numpy returns."""
    if not xs:
        return math.nan
    # numpy seeds the reduction with add's identity, so -0.0 sums to 0.0.
    return (0.0 + _pairwise_sum(xs)) / len(xs)


def percentile(xs: Sequence[float], q: float) -> float:
    """``numpy.percentile`` with its default ``linear`` method, for ``q`` in
    [0, 100].  No samples raise IndexError, as numpy does."""
    s = sorted(xs)
    n = len(s)
    index = (n - 1) * (q / 100)
    if index >= n - 1:
        # numpy clamps both neighbours to the last sample and keeps the gap
        # it measures from index -1.
        lo = hi = -1
    else:
        lo = math.floor(index)
        hi = lo + 1
    gap = index - lo
    a, b = s[lo], s[hi]
    diff = b - a
    if gap >= 0.5:
        return b - diff * (1 - gap)
    return a + diff * gap
