"""Result series, ASCII tables and paper-comparison helpers.

Critical-path and timeline rendering read finished telemetry traces, so
:mod:`~repro.analysis.critpath` and :mod:`~repro.analysis.timeline` (and
the telemetry modules under them) load on first access.
"""

from typing import TYPE_CHECKING

from repro import lazy_exports
from repro.analysis.series import Series, SweepTable
from repro.analysis.tables import format_table
from repro.analysis.compare import CheckResult, check_ratio, check_between

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.critpath import (
        PathSegment,
        critical_path,
        format_path,
        stage_totals,
    )
    from repro.analysis.timeline import format_timeline

__getattr__ = lazy_exports(__name__, {
    "PathSegment": "critpath",
    "critical_path": "critpath",
    "format_path": "critpath",
    "stage_totals": "critpath",
    "format_timeline": "timeline",
})

__all__ = [
    "Series",
    "SweepTable",
    "format_table",
    "CheckResult",
    "check_ratio",
    "check_between",
    "format_timeline",
    "PathSegment",
    "critical_path",
    "format_path",
    "stage_totals",
]
