"""Result series, ASCII tables and paper-comparison helpers."""

from repro.analysis.series import Series, SweepTable
from repro.analysis.tables import format_table
from repro.analysis.compare import CheckResult, check_ratio, check_between
from repro.analysis.critpath import (
    PathSegment,
    critical_path,
    format_path,
    stage_totals,
)
from repro.analysis.timeline import format_timeline

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
