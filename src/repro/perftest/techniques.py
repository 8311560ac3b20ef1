"""The §2 experiment: "removing" performance techniques one at a time.

The paper modifies perftest to emulate the absence of each technique:

- **zero-copy removed** — an extra memcpy on send and on receive (what the
  kernel socket path would do), costing ~140 us/MiB on system L.
- **kernel-bypass removed** — a ``getppid``-style null system call around
  each data-plane operation (the pure user/kernel transition cost).
- **polling removed** — completions consumed through the completion
  channel (arm CQ, block, take the interrupt) instead of spinning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator

from repro.core.dataplane import WaitMode

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.endpoint import Endpoint
    from repro.sim.events import Event


@dataclass(frozen=True)
class Techniques:
    """Which of the three techniques are active (all on = plain RDMA)."""

    zero_copy: bool = True
    kernel_bypass: bool = True
    polling: bool = True

    @property
    def wait_mode(self) -> WaitMode:
        return WaitMode.POLL if self.polling else WaitMode.EVENT

    @property
    def label(self) -> str:
        if self.zero_copy and self.kernel_bypass and self.polling:
            return "baseline"
        off = []
        if not self.zero_copy:
            off.append("zero-copy")
        if not self.kernel_bypass:
            off.append("kernel-bypass")
        if not self.polling:
            off.append("polling")
        return "no " + "+".join(off)

    def charge_send_side(self, ep: "Endpoint", nbytes: int):
        """Extra sender CPU per message for removed techniques.

        Returns an iterable for ``yield from``; the all-techniques-on case
        (every baseline benchmark message) short-circuits to a shared empty
        iterator instead of spinning up a no-op generator.
        """
        if self.zero_copy and self.kernel_bypass:
            return _NO_CHARGE
        return self._charge_send(ep, nbytes)

    def _charge_send(
        self, ep: "Endpoint", nbytes: int
    ) -> Generator["Event", object, None]:
        if not self.zero_copy:
            yield from ep.core.run(ep.host.mem_model.copy_ns(nbytes))
        if not self.kernel_bypass:
            yield from ep.core.syscall(0.0)  # the paper's getppid

    def charge_recv_side(self, ep: "Endpoint", nbytes: int):
        """Extra receiver CPU per message for removed techniques.

        The paper's modified perftest makes *one* extra copy per message
        (its 140 us/MiB anchor), charged on the send side; the receive side
        only pays the emulated syscall."""
        if self.kernel_bypass:
            return _NO_CHARGE
        return ep.core.syscall(0.0)


#: Shared pre-exhausted iterator: ``yield from _NO_CHARGE`` is a no-op and,
#: unlike a generator, allocates nothing.  Safe to share — an exhausted
#: tuple-iterator holds no state.
_NO_CHARGE = iter(())


#: The four §2 configurations, in the paper's order.
FIG1_VARIANTS = (
    Techniques(),
    Techniques(zero_copy=False),
    Techniques(kernel_bypass=False),
    Techniques(polling=False),
)
