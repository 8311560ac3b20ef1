"""Common NPB machinery: problem classes, configs, results, registry."""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass
from typing import Callable, Optional

from repro.errors import ConfigError

#: Effective scalar compute rate of one simulated core: ns per "flop-ish"
#: unit of work.  0.4 ns/flop == 2.5 Gflop/s sustained — ordinary for the
#: irregular, memory-bound NPB kernels.  Because fig. 6 is *relative*
#: runtime on identical skeletons, this constant cancels between
#: transports; it only sets the compute:communication balance.
FLOP_NS = 0.4

#: NPB problem-class scale factors (class A = 1).  Used by the per-
#: benchmark formulas below; classes B/C/D follow the official growth.
CLASS_SCALE = {"S": 1 / 64, "A": 1.0, "B": 4.0, "C": 16.0, "D": 256.0}


@dataclass(frozen=True)
class NpbConfig:
    """One benchmark run's parameters."""

    name: str
    klass: str = "B"
    ranks: int = 32
    #: Iteration override (None = the benchmark's class default, possibly
    #: reduced by ``iter_scale``).
    iterations: Optional[int] = None
    #: Fraction of the official iteration count to simulate (runtime is
    #: reported per iteration, so this only shortens the simulation).
    iter_scale: float = 1.0

    def __post_init__(self):
        if self.klass not in CLASS_SCALE:
            raise ConfigError(f"unknown NPB class {self.klass!r}")
        if self.ranks < 2:
            raise ConfigError("NPB skeletons need at least 2 ranks")

    def effective_iters(self, default: int) -> int:
        if self.iterations is not None:
            return max(1, self.iterations)
        return max(1, int(round(default * self.iter_scale)))


@dataclass
class NpbResult:
    """Timing of one benchmark on one transport."""

    name: str
    klass: str
    transport: str
    ranks: int
    iterations: int
    elapsed_ns: float
    bytes_sent_total: int
    msgs_sent_total: int

    @property
    def per_iter_ns(self) -> float:
        return self.elapsed_ns / max(self.iterations, 1)

    @property
    def msg_rate_per_rank_per_s(self) -> float:
        if self.elapsed_ns <= 0:
            return 0.0
        return self.msgs_sent_total / self.ranks / self.elapsed_ns * 1e9

    @property
    def gbit_per_s_per_rank(self) -> float:
        if self.elapsed_ns <= 0:
            return 0.0
        return self.bytes_sent_total / self.ranks / self.elapsed_ns * 8.0


def pow2_below(n: int) -> int:
    """Largest power of two <= n."""
    return 1 << (n.bit_length() - 1)


def grid_2d(ranks: int) -> tuple[int, int]:
    """Near-square 2D factorization (NPB CG/BT/SP style)."""
    rows = int(math.sqrt(ranks))
    while ranks % rows:
        rows -= 1
    return rows, ranks // rows


# Registry filled by the benchmark modules at import time.
BENCHMARKS: dict[str, Callable[[NpbConfig], tuple[Callable, int]]] = {}

#: The kernel modules; each registers its benchmarks when imported.
_KERNELS = ("bt_sp", "cg", "ep", "ft", "is_", "lu", "mg")


def load_benchmarks() -> dict[str, Callable[[NpbConfig], tuple[Callable, int]]]:
    """The registry, with every kernel module imported (on first use, so a
    run that builds no NPB program never loads them)."""
    for module in _KERNELS:
        importlib.import_module(f"repro.npb.{module}")
    return BENCHMARKS


def register(name: str):
    """Decorator: register ``make(cfg) -> (program, iterations)``."""

    def deco(make):
        BENCHMARKS[name] = make
        return make

    return deco


def get_benchmark(name: str):
    try:
        return load_benchmarks()[name]
    except KeyError:
        raise ConfigError(
            f"unknown NPB benchmark {name!r}; available: {sorted(BENCHMARKS)}"
        ) from None
