"""Named, seeded random-number streams.

Components draw jitter from their *own* stream (``sim.rng.stream("nic0")``)
derived deterministically from the master seed and the stream name.  Adding
a new randomized component therefore never perturbs the draws — and thus the
results — of existing components, which keeps calibrated benchmarks stable.

numpy is imported at the first draw, not with this module: a run that never
draws randomness (system L is jitter-free and lossless) never loads it.
Every stream is the same ``numpy.random.Generator`` from the same seed
whenever it is built, so loading late changes no drawn value.
"""

from __future__ import annotations

import hashlib
import math
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np


class RngRegistry:
    """Registry of independent ``numpy.random.Generator`` streams."""

    __slots__ = ("master_seed", "_streams", "_jitter", "_sanitize")

    def __init__(self, master_seed: int = 0):
        self.master_seed = int(master_seed)
        self._streams: dict[str, np.random.Generator] = {}
        self._jitter: dict[str, JitterStream] = {}
        #: Set by the owning Simulator when REPRO_SANITIZE is on; streams
        #: are then wrapped in draw-recording proxies (values unchanged).
        self._sanitize = None

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating on first use) the stream for ``name``."""
        gen = self._streams.get(name)
        if gen is None:
            import numpy as np

            digest = hashlib.sha256(
                f"{self.master_seed}:{name}".encode("utf-8")
            ).digest()
            seed = int.from_bytes(digest[:8], "little")
            gen = np.random.default_rng(seed)
            if self._sanitize is not None:
                # Duck-typed stand-in: forwards every draw to `gen`.
                gen = self._sanitize.wrap_stream(name, gen)  # type: ignore[assignment]
            self._streams[name] = gen
        return gen

    def jitter_stream(self, name: str) -> JitterStream:
        """A batched lognormal-jitter source over the named stream.

        The stream must be consumed *exclusively* through the returned
        source: it prefetches standard normals in blocks (the per-draw
        numpy scalar call is the costliest step of every jittered syscall),
        so a direct draw on the same generator would interleave with the
        prefetched block and change the sequence.  The stream itself is
        built at the source's first refill.
        """
        js = self._jitter.get(name)
        if js is None:
            js = self._jitter[name] = JitterStream(self, name)
        return js

    def stream_states(self) -> tuple:
        """Bit-exact positions of every built stream, without drawing.

        Reading ``bit_generator.state`` is a pure observation (the sanitize
        proxies forward non-callable attributes untouched), so this is safe
        to call from invariant checks — the steady-state fast-forward probe
        uses it to prove no stream advanced inside a measurement loop.  A
        stream is listed once it is built, which a jitter source does at
        its first draw, so the tuple changes exactly when a stream moves.
        """
        out = []
        jitter = self._jitter
        for name in sorted(self._streams):
            state = self._streams[name].bit_generator.state
            inner = state.get("state")
            if isinstance(inner, dict):
                inner = tuple(sorted(inner.items()))
            js = jitter.get(name)
            # A jitter source prefetches normals in blocks: its generator
            # state only moves at refills, so the remaining buffer depth
            # must join the fingerprint — together they change on every
            # draw, exactly like an unbuffered stream's state would.
            out.append((name, state.get("bit_generator"), inner,
                        state.get("has_uint32"), state.get("uinteger"),
                        len(js._buf) if js is not None else -1))
        return tuple(out)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<RngRegistry seed={self.master_seed} streams={sorted(self._streams)}>"


#: Cache of (mean, cv) -> (mu, sigma) for :meth:`JitterStream.draw`.  The
#: derived parameters are pure functions of the inputs, so caching cannot
#: change any drawn value; it only skips the per-call numpy scalar math.
_JITTER_PARAMS: dict = {}

#: Prefetch block for :class:`JitterStream` (draws, not bytes).
_JITTER_BLOCK = 256


class JitterStream:
    """Batched lognormal jitter over one dedicated rng stream.

    Bit-identical to a per-call ``Generator.lognormal(mu, sigma)`` on the
    same stream: ``lognormal`` consumes the bit stream exactly as
    ``standard_normal()`` does and then computes ``exp(mu + sigma * z)`` in
    C doubles — the same IEEE operations this class applies in Python to a
    prefetched block of standard normals.  Only the per-draw numpy scalar
    call overhead is amortized; every drawn value and the stream's position
    after each block are unchanged.  The generator is built from the
    registry at the first refill, so a source that only ever sees
    ``cv == 0`` never builds one.
    """

    __slots__ = ("_registry", "_name", "_gen", "_buf")

    def __init__(self, registry: RngRegistry, name: str):
        self._registry = registry
        self._name = name
        self._gen: Optional[np.random.Generator] = None
        self._buf: list[float] = []

    def draw(self, mean: float, cv: float) -> float:
        """Lognormal with the given mean and coefficient of variation.

        ``mean == 0`` or ``cv == 0`` returns ``mean`` exactly and draws
        nothing, so profiles without jitter stay deterministic.
        """
        if mean == 0 or cv == 0:
            return mean
        params = _JITTER_PARAMS.get((mean, cv))
        if params is None:
            import numpy as np

            sigma2 = np.log(1.0 + cv * cv)
            mu = np.log(mean) - sigma2 / 2.0
            if len(_JITTER_PARAMS) >= 4096:
                _JITTER_PARAMS.clear()
            params = _JITTER_PARAMS[(mean, cv)] = (float(mu), float(np.sqrt(sigma2)))
        buf = self._buf
        if not buf:
            gen = self._gen
            if gen is None:
                gen = self._gen = self._registry.stream(self._name)
            # Reversed so list.pop() hands the normals out in draw order.
            buf.extend(gen.standard_normal(_JITTER_BLOCK)[::-1].tolist())
        return math.exp(params[0] + params[1] * buf.pop())
