"""perftest 4.5 clone: the microbenchmarks of the paper's §2 and §5.

- :mod:`~repro.perftest.techniques` — the §2 "technique removal" toggles:
  no zero-copy (extra memcpy), no kernel bypass (extra null syscall),
  no polling (interrupt-driven completions).
- :mod:`~repro.perftest.lat` — ``ib_send_lat`` / ``ib_read_lat`` /
  ``ib_write_lat`` analogues (ping-pong latency).
- :mod:`~repro.perftest.bw` — ``ib_send_bw`` / ``ib_read_bw`` /
  ``ib_write_bw`` analogues (windowed bandwidth).
- :mod:`~repro.perftest.runner` — configuration -> testbed -> sweep glue
  used by the figure benchmarks.
"""

from repro.perftest.techniques import Techniques
from repro.perftest.lat import LatencyResult, read_lat, send_lat, write_lat
from repro.perftest.bw import BwResult, read_bw, send_bw, write_bw
from repro.perftest.runner import PerftestConfig, run_lat, run_bw

__all__ = [
    "Techniques",
    "LatencyResult",
    "send_lat",
    "read_lat",
    "write_lat",
    "BwResult",
    "send_bw",
    "read_bw",
    "write_bw",
    "PerftestConfig",
    "run_lat",
    "run_bw",
]
