"""Named, seeded random-number streams.

Components draw jitter from their *own* stream (``sim.rng.stream("nic0")``)
derived deterministically from the master seed and the stream name.  Adding
a new randomized component therefore never perturbs the draws — and thus the
results — of existing components, which keeps calibrated benchmarks stable.

Each stream is a pure-Python PCG64 that reproduces
``numpy.random.default_rng(seed)`` bit for bit: numpy's ``SeedSequence``
hashing seeds the 128-bit LCG, ``random()`` is its uniform double, and
:meth:`Stream.normals` is its 256-level ziggurat ``standard_normal``.
``tests/test_rng.py`` checks every draw kind against numpy when it is
installed; the simulator itself never imports numpy, so the drawn bits do
not depend on its version (NEP 19 does not freeze ``Generator``'s
algorithms) or on its CPU dispatch.
"""

from __future__ import annotations

import hashlib
import math
from typing import Optional

from repro.sim._ziggurat import FI, KI, WI

_MASK32 = 0xFFFFFFFF
_MASK52 = (1 << 52) - 1
_MASK53 = (1 << 53) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

#: numpy's ``SeedSequence`` hash constants (32-bit arithmetic throughout).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4

#: PCG64's 128-bit LCG multiplier (``PCG_DEFAULT_MULTIPLIER_128``).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

#: The ziggurat's rightmost level edge and its inverse (numpy's
#: ``ziggurat_nor_r`` / ``ziggurat_nor_inv_r``).
_ZIG_R = 3.6541528853610088
_ZIG_INV_R = 0.27366123732975828

_TWO_M53 = 1.0 / 9007199254740992.0


def _hashmix(value: int, hash_const: list[int]) -> int:
    value ^= hash_const[0]
    hash_const[0] = (hash_const[0] * _MULT_A) & _MASK32
    value = (value * hash_const[0]) & _MASK32
    return value ^ (value >> 16)


def _mix(x: int, y: int) -> int:
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> 16)


def stream_seed(master_seed: int, name: str) -> int:
    """The 64-bit seed of stream ``name`` under ``master_seed``."""
    digest = hashlib.sha256(f"{master_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def seed_words(seed: int) -> tuple[int, int, int, int]:
    """``SeedSequence(seed).generate_state(4, numpy.uint64)``, for a
    non-negative integer ``seed``."""
    entropy = []
    while True:
        entropy.append(seed & _MASK32)
        seed >>= 32
        if not seed:
            break
    hash_const = [_INIT_A]
    pool = [_hashmix(entropy[i] if i < len(entropy) else 0, hash_const)
            for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = _mix(pool[i_dst], _hashmix(pool[i_src], hash_const))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = _mix(pool[i_dst], _hashmix(word, hash_const))
    hash_const[0] = _INIT_B
    halves = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const[0]
        hash_const[0] = (hash_const[0] * _MULT_B) & _MASK32
        value = (value * hash_const[0]) & _MASK32
        halves.append(value ^ (value >> 16))
    lo, hi = halves[0::2], halves[1::2]
    return tuple(l | (h << 32) for l, h in zip(lo, hi))  # type: ignore[return-value]


class Stream:
    """One PCG64 stream, as ``numpy.random.default_rng(seed)`` draws it.

    ``state`` and ``inc`` are the 128-bit LCG's state and increment (the
    values numpy reports in ``bit_generator.state``).
    """

    __slots__ = ("state", "inc")

    def __init__(self, seed: int):
        w = seed_words(seed)
        # numpy's pcg64_set_seed, setseq-128 from (initstate, initseq):
        # step from state 0 (giving inc), add initstate, step again.
        inc = (((w[2] << 64) | w[3]) << 1 | 1) & _MASK128
        state = (inc + ((w[0] << 64) | w[1])) & _MASK128
        self.state = (state * _PCG_MULT + inc) & _MASK128
        self.inc = inc

    def random(self) -> float:
        """Uniform double in [0, 1): ``Generator.random()``."""
        s = self.state = (self.state * _PCG_MULT + self.inc) & _MASK128
        # XSL-RR output: the xor-folded halves rotated right by the top 6
        # state bits; the double takes the output's top 53 bits.
        x = (s >> 64) ^ (s & _MASK64)
        return (((x << 64 | x) >> ((s >> 122) + 11)) & _MASK53) * _TWO_M53

    def normals(self, n: int) -> list[float]:
        """``n`` standard normals: ``Generator.standard_normal(n)``.

        numpy's ziggurat: the low byte of each 64-bit draw picks a level,
        the next bit the sign and the following 52 bits the abscissa.
        About 99% of draws fall inside their level's rectangle and return
        at once; the rest take the wedge test (:meth:`_wedge`) or, at
        level 0, sample the tail (:meth:`_tail`), both with further
        uniform draws.
        """
        out: list[float] = []
        append = out.append
        s, inc, mult = self.state, self.inc, _PCG_MULT
        m128, m64, m52 = _MASK128, _MASK64, _MASK52
        ki, wi = KI, WI
        for _ in range(n):
            while True:
                s = (s * mult + inc) & m128
                x = (s >> 64) ^ (s & m64)
                r = (x << 64 | x) >> (s >> 122)
                idx = r & 0xFF
                rabs = (r >> 9) & m52
                z = rabs * wi[idx]
                if r & 0x100:
                    z = -z
                if rabs < ki[idx]:
                    append(z)
                    break
                self.state = s
                if idx == 0:
                    append(self._tail((rabs >> 8) & 1))
                elif self._wedge(idx, z):
                    append(z)
                else:
                    s = self.state
                    continue
                s = self.state
                break
        self.state = s
        return out

    def _tail(self, negative: int) -> float:
        """A normal beyond the last level's edge ``_ZIG_R`` (Marsaglia's
        exponential rejection), with the sign numpy takes from bit 8 of
        the abscissa."""
        while True:
            xx = -_ZIG_INV_R * math.log1p(-self.random())
            yy = -math.log1p(-self.random())
            if yy + yy > xx * xx:
                return -(_ZIG_R + xx) if negative else _ZIG_R + xx

    def _wedge(self, idx: int, z: float) -> bool:
        """Does ``z`` lie under the density within level ``idx``'s wedge?"""
        return (FI[idx - 1] - FI[idx]) * self.random() + FI[idx] \
            < math.exp(-0.5 * z * z)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Stream state={self.state:#x} inc={self.inc:#x}>"


class RngRegistry:
    """Registry of independent named :class:`Stream` objects."""

    __slots__ = ("master_seed", "_streams", "_sanitize")

    def __init__(self, master_seed: int = 0):
        self.master_seed = int(master_seed)
        self._streams: dict[str, Stream] = {}
        #: Set by the owning Simulator when REPRO_SANITIZE is on; streams
        #: are then wrapped in draw-recording proxies (values unchanged).
        self._sanitize = None

    def stream(self, name: str) -> Stream:
        """Return (creating on first use) the stream for ``name``."""
        gen = self._streams.get(name)
        if gen is None:
            gen = Stream(stream_seed(self.master_seed, name))
            if self._sanitize is not None:
                # Duck-typed stand-in: forwards every draw to `gen`.
                gen = self._sanitize.wrap_stream(name, gen)  # type: ignore[assignment]
            self._streams[name] = gen
        return gen

    def jitter_stream(self, name: str) -> JitterStream:
        """A lognormal-jitter source over the named stream.

        The source draws one normal per jittered value, so it shares the
        stream's sequence with any other reader of the same name.  The
        stream itself is built at the source's first draw.
        """
        return JitterStream(self, name)

    def stream_states(self) -> tuple:
        """Bit-exact positions of every built stream, without drawing.

        Each entry is ``(name, (state, inc))``.  Reading ``state`` and
        ``inc`` is a pure observation (the sanitize proxies forward plain
        attributes untouched), so this is safe to call from invariant
        checks — the steady-state fast-forward probe uses it to prove no
        stream advanced inside a measurement loop.  A stream is listed once
        it is built, which a jitter source does at its first draw, so the
        tuple changes exactly when a stream moves.
        """
        streams = self._streams
        if not streams:
            return ()
        return tuple([(name, (gen.state, gen.inc))
                      for name, gen in sorted(streams.items())])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<RngRegistry seed={self.master_seed} streams={sorted(self._streams)}>"


#: Cache of (mean, cv) -> (mu, sigma) for :meth:`JitterStream.draw`.  The
#: derived parameters are pure functions of the inputs, so caching cannot
#: change any drawn value; it only skips the per-call scalar math.
_JITTER_PARAMS: dict = {}

class JitterStream:
    """Lognormal jitter over one named rng stream.

    Bit-identical to numpy's per-call ``Generator.lognormal(mu, sigma)`` on
    the same seed: ``lognormal`` consumes the bit stream exactly as
    ``standard_normal()`` does and then computes ``exp(mu + sigma * z)`` in
    C doubles — the same IEEE operations this class applies to one
    :meth:`Stream.normals` draw.  The stream is built from the registry at
    the first draw, so a source that only ever sees ``cv == 0`` never
    builds one.
    """

    __slots__ = ("_registry", "_name", "_gen")

    def __init__(self, registry: RngRegistry, name: str):
        self._registry = registry
        self._name = name
        self._gen: Optional[Stream] = None

    def draw(self, mean: float, cv: float) -> float:
        """Lognormal with the given mean and coefficient of variation.

        ``mean == 0`` or ``cv == 0`` returns ``mean`` exactly and draws
        nothing, so profiles without jitter stay deterministic.
        """
        if mean == 0 or cv == 0:
            return mean
        params = _JITTER_PARAMS.get((mean, cv))
        if params is None:
            sigma2 = math.log(1.0 + cv * cv)
            mu = math.log(mean) - sigma2 / 2.0
            if len(_JITTER_PARAMS) >= 4096:
                _JITTER_PARAMS.clear()
            params = _JITTER_PARAMS[(mean, cv)] = (mu, math.sqrt(sigma2))
        gen = self._gen
        if gen is None:
            gen = self._gen = self._registry.stream(self._name)
        return math.exp(params[0] + params[1] * gen.normals(1)[0])
