"""Operating-system model.

- :class:`~repro.kernel.kernel.Kernel` — per-host OS instance: interrupt
  delivery, completion channels (the "no polling" path), and the socket
  network stack.
- :mod:`~repro.kernel.interrupts` — IRQ cost model + completion channels.
- :mod:`~repro.kernel.netstack` — kernel socket path: copies, per-packet
  processing, softirq serialization.
- :mod:`~repro.kernel.ipoib` — IP-over-InfiniBand netdevice and datagram
  sockets used as the functionally-equivalent competitor to CoRD (paper §5).

Syscall entry/exit costs themselves live in :meth:`repro.hw.cpu.Core.syscall`
because they are a property of the CPU + mitigation configuration.
"""

from typing import TYPE_CHECKING

from repro import lazy_exports
from repro.kernel.kernel import Kernel
from repro.kernel.interrupts import CompletionChannel

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.ipoib import IPoIBDevice, IPoIBSocket

# The socket stack loads on first use (see Kernel.ensure_ipoib).
__getattr__ = lazy_exports(__name__, {"IPoIBDevice": "ipoib",
                                      "IPoIBSocket": "ipoib"})

__all__ = ["Kernel", "CompletionChannel", "IPoIBDevice", "IPoIBSocket"]
