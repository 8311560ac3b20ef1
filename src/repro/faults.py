"""Deterministic fault injection for the fabric: loss, flaps, stalls, pauses.

The paper's converged-dataplane argument only matters if the dataplane
stays correct when the fabric misbehaves, so this module turns the
otherwise-lossless wire into a RoCE-like one on demand.  A
:class:`FaultPlan` describes *what* goes wrong — per-link packet-loss
probability, scheduled link-flap windows (every message in the window is
dropped), degradation windows (propagation inflated by a factor), NIC
stall intervals (arrivals at a host deferred to the window's end) and
receiver-pause periods (the responder claims no recv WQEs, forcing the
RNR path).  A :class:`FaultInjector` binds a plan to one simulator and
makes the drop/delay decisions.

Determinism contract: every random decision draws from a named
``repro.sim.rng`` stream (one per directed link — switch-port granularity,
with each host's hairpin path on its own ``loopback`` stream — derived
from the master seed), so two runs with the same seed and plan are
bit-identical, and plans touching different links do not perturb each
other's draws.  With
no injector attached the hook costs one ``is None`` branch per transmit
and zero RNG draws, keeping faults-off runs bit-identical to a build
without this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator

#: Wire-message kinds that carry requester data (the rest are control:
#: acks, naks and responses).  Used by ``FaultPlan.drop_control=False``
#: to restrict loss to the forward direction.
DATA_KINDS = frozenset({"send", "write", "read_req", "atomic", "ip"})


def _check_window(name: str, start: float, end: float) -> None:
    if start < 0 or end < start:
        raise ConfigError(f"{name} window [{start}, {end}) is not a valid interval")


@dataclass(frozen=True)
class FaultPlan:
    """Declarative description of what the fabric does wrong, and when.

    All times are simulation nanoseconds; all windows are half-open
    ``[start, end)``.  The plan is a frozen value type (tuples only) so
    it can ride inside a :class:`~repro.perftest.runner.PerftestConfig`
    across ``parallel_sweep`` process boundaries.
    """

    #: Uniform per-message drop probability on every link, including each
    #: host's hairpin/loopback path (src == dst) — intra-host ranks in
    #: multi-host MPI worlds see the same loss as wire traffic.
    loss: float = 0.0
    #: Per-directed-link overrides: ((src_host, dst_host, probability), ...).
    link_loss: tuple = ()
    #: Link-flap windows ((start_ns, end_ns), ...): every message entering
    #: the wire inside a window is dropped, on all links.
    flaps: tuple = ()
    #: Degradation windows ((start_ns, end_ns, factor), ...): propagation
    #: delay is multiplied by ``factor`` for messages sent in the window.
    degrade: tuple = ()
    #: NIC stall intervals ((host, start_ns, end_ns), ...): a message that
    #: would *arrive* at ``host`` inside the window is held until its end
    #: (the receive pipeline is wedged; nothing is lost).
    stalls: tuple = ()
    #: Receiver-pause periods ((host, start_ns, end_ns), ...): while
    #: paused, ``host`` claims to have no recv WQEs, so RC senders see
    #: RNR NAKs and UD traffic is dropped.
    pauses: tuple = ()
    #: When False, only data-bearing messages (see DATA_KINDS) can be
    #: lost; acks/naks/responses always arrive.  Default: drop anything.
    drop_control: bool = True

    def __post_init__(self):
        if not 0.0 <= self.loss <= 1.0:
            raise ConfigError(f"loss must be a probability, got {self.loss}")
        for src, dst, prob in self.link_loss:
            if not 0.0 <= prob <= 1.0:
                raise ConfigError(
                    f"link_loss[{src}->{dst}] must be a probability, got {prob}"
                )
        for start, end in self.flaps:
            _check_window("flap", start, end)
        for start, end, factor in self.degrade:
            _check_window("degrade", start, end)
            if factor < 1.0:
                raise ConfigError(f"degrade factor must be >= 1, got {factor}")
        for _host, start, end in self.stalls:
            _check_window("stall", start, end)
        for _host, start, end in self.pauses:
            _check_window("pause", start, end)

    @property
    def lossy(self) -> bool:
        """Can this plan ever drop a message?"""
        return bool(self.loss > 0.0 or self.flaps
                    or any(prob > 0.0 for _s, _d, prob in self.link_loss))

    @property
    def fastforward_safe(self) -> bool:
        """May steady-state fast-forward arm with this plan attached? Never.

        Even a plan whose windows look inert perturbs extrapolation: flap,
        degrade, stall and pause windows trigger on *absolute* simulated
        time, so a bulk clock advance could jump over (or into) one, and
        probabilistic loss draws per transmitted message, which skipped
        cycles would silently not consume.  The fast-forward probe
        therefore refuses to arm whenever any plan is attached — fidelity
        over speed on the fault path.
        """
        return False


class FaultInjector:
    """Binds a :class:`FaultPlan` to one simulator and makes the calls.

    The fabric consults :meth:`on_transmit` once per message after
    serialization; the NIC's
    responder consults :meth:`recv_paused` when claiming a recv WQE.
    """

    def __init__(self, sim: "Simulator", plan: FaultPlan, scope: str = "fabric"):
        self.sim = sim
        self.plan = plan
        self.scope = scope
        self.drops = 0
        self.delays = 0
        self.delay_ns_total = 0.0
        #: Drops per directed link (switch-port granularity); loopback
        #: traffic is keyed ``(h, h)``.
        self.drops_by_link: dict[tuple[int, int], int] = {}
        self._streams: dict[tuple[int, int], object] = {}
        self._link_loss = {(s, d): p for (s, d, p) in plan.link_loss}

    # -- decisions -------------------------------------------------------------

    def on_transmit(
        self,
        src: int,
        dst: int,
        now: float,
        kind: str,
        nbytes: int,
        propagation_ns: float,
    ) -> Optional[float]:
        """Fault verdict for one message leaving the wire at ``now``.

        Returns ``None`` when the message is dropped, else the extra
        delay (>= 0.0) to add on top of ``propagation_ns``.
        """
        plan = self.plan
        for start, end in plan.flaps:
            if start <= now < end:
                return self._dropped(src, dst, kind, nbytes, "flap")
        prob = self._link_loss.get((src, dst), plan.loss)
        if prob > 0.0 and (plan.drop_control or kind in DATA_KINDS):
            if self._stream(src, dst).random() < prob:
                return self._dropped(src, dst, kind, nbytes, "loss")
        extra = 0.0
        for start, end, factor in plan.degrade:
            if start <= now < end:
                extra += (factor - 1.0) * propagation_ns
        if plan.stalls:
            arrival = now + propagation_ns + extra
            for host, start, end in plan.stalls:
                if host == dst and start <= arrival < end:
                    extra += end - arrival
                    arrival = end
        if extra > 0.0:
            self.delays += 1
            self.delay_ns_total += extra
        return extra

    def recv_paused(self, host: int, now: float) -> bool:
        """Is ``host``'s receive side refusing WQEs at ``now``?"""
        for h, start, end in self.plan.pauses:
            if h == host and start <= now < end:
                return True
        return False

    # -- internals -------------------------------------------------------------

    def _stream(self, src: int, dst: int):
        key = (src, dst)
        gen = self._streams.get(key)
        if gen is None:
            # One RNG stream per directed link: traffic on other links
            # never shifts this link's drop sequence.  A host's hairpin
            # path gets its own ``loopback`` stream so intra-host loss
            # decisions never perturb wire-link draws (and vice versa).
            if src == dst:
                name = f"faults.{self.scope}.loopback{src}"
            else:
                name = f"faults.{self.scope}.l{src}-{dst}"
            gen = self.sim.rng.stream(name)
            self._streams[key] = gen
        return gen

    def _dropped(self, src: int, dst: int, kind: str, nbytes: int,
                 cause: str) -> None:
        self.drops += 1
        key = (src, dst)
        self.drops_by_link[key] = self.drops_by_link.get(key, 0) + 1
        trace = self.sim.trace
        if trace.enabled:
            trace.emit(self.sim.now, "note", span=None,
                       name="drop", host=src, kind=kind, cause=cause,
                       size=nbytes)
        return None

    def snapshot(self) -> dict[str, object]:
        return {
            "drops": self.drops,
            "delays": self.delays,
            "delay_ns_total": self.delay_ns_total,
            "drops_by_link": {
                f"{s}-{d}": n
                for (s, d), n in sorted(self.drops_by_link.items())
            },
        }


def parse_fault_spec(spec: str) -> FaultPlan:
    """Parse the CLI ``--faults`` grammar into a :class:`FaultPlan`.

    Comma-separated clauses, times in ns (floats, so ``1.5e6`` works)::

        loss=0.01                    uniform drop probability
        link=SRC-DST:PROB            per-directed-link loss override
        flap=START:END               drop everything in the window
        degrade=START:END:FACTOR     inflate propagation by FACTOR
        stall=HOST:START:END         defer arrivals at HOST to window end
        pause=HOST:START:END         HOST claims no recv WQEs (RNR)
        nodropctl                    loss never eats acks/responses
    """
    loss = 0.0
    link_loss: list[tuple] = []
    flaps: list[tuple] = []
    degrade: list[tuple] = []
    stalls: list[tuple] = []
    pauses: list[tuple] = []
    drop_control = True

    def _floats(val: str, n: int, clause: str) -> list[float]:
        parts = val.split(":")
        if len(parts) != n:
            raise ConfigError(
                f"--faults clause {clause!r}: expected {n} ':'-separated "
                f"fields, got {len(parts)}"
            )
        try:
            return [float(p) for p in parts]
        except ValueError:
            raise ConfigError(
                f"--faults clause {clause!r}: non-numeric field"
            ) from None

    for clause in spec.split(","):
        clause = clause.strip()
        if not clause:
            continue
        if clause == "nodropctl":
            drop_control = False
            continue
        key, sep, val = clause.partition("=")
        if not sep:
            raise ConfigError(f"--faults clause {clause!r} is not KEY=VALUE")
        if key == "loss":
            try:
                loss = float(val)
            except ValueError:
                raise ConfigError(
                    f"--faults loss must be a float, got {val!r}"
                ) from None
        elif key == "link":
            pair, sep2, prob = val.partition(":")
            src, sep3, dst = pair.partition("-")
            if not (sep2 and sep3):
                raise ConfigError(
                    f"--faults clause {clause!r}: want link=SRC-DST:PROB"
                )
            try:
                link_loss.append((int(src), int(dst), float(prob)))
            except ValueError:
                raise ConfigError(
                    f"--faults clause {clause!r}: non-numeric field"
                ) from None
        elif key == "flap":
            flaps.append(tuple(_floats(val, 2, clause)))
        elif key == "degrade":
            degrade.append(tuple(_floats(val, 3, clause)))
        elif key in ("stall", "pause"):
            host, start, end = _floats(val, 3, clause)
            (stalls if key == "stall" else pauses).append(
                (int(host), start, end)
            )
        else:
            raise ConfigError(f"--faults: unknown clause key {key!r}")
    return FaultPlan(
        loss=loss,
        link_loss=tuple(link_loss),
        flaps=tuple(flaps),
        degrade=tuple(degrade),
        stalls=tuple(stalls),
        pauses=tuple(pauses),
        drop_control=drop_control,
    )
