"""Deterministic choice points for small-scope model checking.

The engine's default dispatch order breaks ``(time, priority)`` ties by
heap-insertion sequence — one arbitrary-but-fixed interleaving out of the
many a real system could exhibit.  A :class:`Chooser` attached via
``sim.attach_chooser`` turns every such tie (and every bounded fault
decision) into an explicit *choice point*: the engine hands over the tied
front and the chooser picks which record dispatches.  Index 0 everywhere
reproduces the default schedule bit-for-bit, so the explored space is a
strict superset of what every test and golden already runs.  The chooser
acts in the engine's one instrumented dispatch loop, the same loop the
runtime sanitizer observes, so the two hooks compose: with
``REPRO_SANITIZE=1`` every explored schedule is sanitized as it runs.

:class:`ScriptedChooser` is the replay vehicle the explorer drives: it
follows a forced prefix of choices, answers 0 (default) beyond it, and
records the full ``(n, chosen)`` trail so the explorer can enumerate the
untaken siblings of this schedule.

:class:`ChoiceFaultInjector` folds *fault* nondeterminism into the same
trail: it exposes the :mod:`repro.faults` injector interface to the
fabric, but instead of drawing drops from an RNG it asks the chooser a
binary keep/drop question per eligible message, bounded by a drop budget.
Attaching it makes ``fabric.lossy`` true, so the RC ACK-timeout machinery
arms exactly as it would under a real fault plan.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.errors import SimulationError

#: Message kinds eligible for exploration drops: everything that travels
#: (requests *and* responses — losing an ACK or an atomic response is how
#: the duplicate-replay paths get exercised), except the socket path.
DROPPABLE_KINDS = frozenset({
    "send", "write", "read_req", "atomic",
    "ack", "nak_rnr", "read_resp", "atomic_resp",
})


class ScheduleDivergence(SimulationError):
    """A scripted choice prefix no longer matches the run it was recorded
    from — the simulation is not deterministic under replay (a bug in
    itself), or the prefix belongs to a different scenario/mutant."""


class Chooser:
    """Base chooser: always picks the default (insertion-order) record.

    ``choose`` is called by the engine loop *between* event dispatches
    with the tied heap-record front; ``choose_fault`` is called by
    :class:`ChoiceFaultInjector` *inside* a dispatch.  The split matters
    to the explorer: state fingerprints are only sound between dispatches
    (no generator is suspended mid-mutation), so only ``choose`` sites
    are eligible for seen-state pruning.
    """

    def choose(self, n: int, front: Sequence[object]) -> int:
        return 0

    def choose_fault(self, n: int, label: str) -> int:
        return 0


class ScriptedChooser(Chooser):
    """Replay a choice prefix, default beyond it, record the whole trail.

    Parameters
    ----------
    prefix:
        Choice indices to force, in choice-point order.  Schedule and
        fault choices share one numbering (they interleave exactly as
        they occur), so a prefix addresses both uniformly.
    observer:
        Optional ``observer(depth, n, front)`` called before each
        *schedule* choice (never for fault choices — see
        :class:`Chooser`); the explorer uses it to fingerprint-prune.
        It may raise to abandon the run.
    """

    def __init__(
        self,
        prefix: Sequence[int] = (),
        observer: Optional[Callable[[int, int, Sequence[object]], None]] = None,
    ) -> None:
        self.prefix = tuple(prefix)
        #: ``(n, chosen)`` per choice point, in order.
        self.trail: list[tuple[int, int]] = []
        self.observer = observer

    def _pick(self, n: int) -> int:
        depth = len(self.trail)
        chosen = self.prefix[depth] if depth < len(self.prefix) else 0
        if not 0 <= chosen < n:
            raise ScheduleDivergence(
                f"choice {depth}: scripted index {chosen} out of range "
                f"for a {n}-way choice point"
            )
        self.trail.append((n, chosen))
        return chosen

    def choose(self, n: int, front: Sequence[object]) -> int:
        if self.observer is not None:
            self.observer(len(self.trail), n, front)
        return self._pick(n)

    def choose_fault(self, n: int, label: str) -> int:
        return self._pick(n)

    def chosen(self) -> tuple[int, ...]:
        """The schedule this run followed, as a replayable prefix."""
        return tuple(c for (_n, c) in self.trail)


class ChoiceFaultInjector:
    """Budgeted message drops decided by the chooser (not an RNG).

    Mirrors the :class:`repro.faults.FaultInjector` interface the fabric
    consumes (``on_transmit`` / ``recv_paused`` / ``snapshot``), so it is
    attached with ``fabric.inject_faults(injector)``.  Each eligible
    transmit while budget remains becomes a binary choice point: 0 keeps
    the message (default — a zero-drop run is the lossless baseline),
    1 drops it and spends one unit of budget.
    """

    def __init__(
        self,
        chooser: Chooser,
        budget: int = 1,
        kinds: frozenset = DROPPABLE_KINDS,
    ) -> None:
        self.chooser = chooser
        self.budget = budget
        self.kinds = kinds
        self.drops = 0

    def on_transmit(
        self,
        src: int,
        dst: int,
        now: float,
        kind: str,
        nbytes: int,
        propagation_ns: float,
    ) -> Optional[float]:
        """None = drop the message; a float = extra delay (always 0 here)."""
        if self.budget > 0 and kind in self.kinds:
            if self.chooser.choose_fault(2, f"drop:{kind}:{src}->{dst}") == 1:
                self.budget -= 1
                self.drops += 1
                return None
        return 0.0

    def recv_paused(self, host: int, now: float) -> bool:
        return False

    def snapshot(self) -> dict[str, object]:
        return {"budget": self.budget, "drops": self.drops}
