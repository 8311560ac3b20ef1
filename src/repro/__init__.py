"""CoRD: Converged RDMA Dataplane — full-system simulation reproduction.

Top-level convenience re-exports; see the subpackages for the real API:

- :mod:`repro.sim` — discrete-event engine
- :mod:`repro.hw` — hardware models and testbed profiles
- :mod:`repro.verbs` — ibverbs-style RDMA stack
- :mod:`repro.kernel` — OS model (interrupts, sockets, IPoIB)
- :mod:`repro.core` — the paper's contribution: bypass vs CoRD dataplanes
  and the CoRD policy framework
- :mod:`repro.cluster` — hosts and fabric
- :mod:`repro.perftest` — microbenchmarks (figs. 1/3/4/5)
- :mod:`repro.mpi` / :mod:`repro.npb` — MPI and NAS benchmarks (fig. 6)
- :mod:`repro.storage` — the paper's §6 outlook applied to NVMe queues
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable

__version__ = "1.0.0"


def lazy_exports(package: str, exports: dict[str, str]) -> Callable[[str], object]:
    """A PEP 562 ``__getattr__`` for a package façade.

    ``exports`` maps each public name to the submodule defining it; the
    submodule is imported when the name is first read, so importing the
    package alone loads none of them.
    """

    def __getattr__(name: str) -> object:
        module = exports.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{package}.{module}"), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__


from repro.sim import Simulator  # noqa: E402,F401  (canonical entry point)
