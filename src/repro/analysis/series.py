"""Named data series keyed by a sweep variable (message size, benchmark...)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass
class Series:
    """One line of a figure: y values over the sweep's x values."""

    name: str
    xs: list = field(default_factory=list)
    ys: list = field(default_factory=list)

    def add(self, x, y) -> None:
        self.xs.append(x)
        self.ys.append(y)

    def y_at(self, x):
        return self.ys[self.xs.index(x)]

    def __len__(self) -> int:
        return len(self.xs)


@dataclass
class SweepTable:
    """A figure's worth of series sharing one x axis."""

    title: str
    x_label: str
    series: list[Series] = field(default_factory=list)

    def get(self, name: str) -> Series:
        for s in self.series:
            if s.name == name:
                return s
        raise KeyError(name)

    def add_series(self, series: Series) -> Series:
        self.series.append(series)
        return series

    def new_series(self, name: str) -> Series:
        return self.add_series(Series(name))

    def rows(self, fmt: Optional[str] = "{:.3f}") -> tuple[list[str], list[list[str]]]:
        """(header, rows) ready for the table printer."""
        xs: list = []
        for s in self.series:
            for x in s.xs:
                if x not in xs:
                    xs.append(x)
        header = [self.x_label] + [s.name for s in self.series]
        rows = []
        for x in xs:
            row = [str(x)]
            for s in self.series:
                try:
                    y = s.y_at(x)
                    row.append(fmt.format(y) if fmt else str(y))
                except ValueError:
                    row.append("-")
            rows.append(row)
        return header, rows
