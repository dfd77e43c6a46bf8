"""Result structures and ASCII rendering for the Section 6 figures.

Each benchmark produces a :class:`FigureResult` — the series the paper
plots — plus a list of *shape checks*: the qualitative claims the paper
makes about that figure ("elevator lowest", "flat in database size",
…).  ``render`` prints the series as aligned ASCII tables so the bench
harness output can be compared with the paper line by line.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

#: One series: ordered (x, y) points.
Series = List[Tuple[float, float]]


@dataclass
class FigureResult:
    """A reproduced figure: titled series over a shared x-axis."""

    figure_id: str
    title: str
    x_label: str
    y_label: str
    series: "Dict[str, Series]" = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    #: human-readable outcomes of the qualitative checks.
    checks: List[str] = field(default_factory=list)
    #: check descriptions that FAILED (empty = shape fully reproduced).
    violations: List[str] = field(default_factory=list)

    def add_point(self, series_name: str, x: float, y: float) -> None:
        """Append one (x, y) point to a series."""
        self.series.setdefault(series_name, []).append((x, y))

    def check(self, description: str, passed: bool) -> bool:
        """Record a qualitative shape check; returns ``passed``."""
        mark = "ok" if passed else "FAIL"
        self.checks.append(f"[{mark}] {description}")
        if not passed:
            self.violations.append(description)
        return passed

    def ys(self, series_name: str) -> List[float]:
        """The y values of one series, in x order."""
        return [y for _x, y in self.series[series_name]]

    def xs(self) -> List[float]:
        """The x values (from the first series)."""
        first = next(iter(self.series.values()))
        return [x for x, _y in first]


def render(figure: FigureResult) -> str:
    """Format a figure as an aligned ASCII table plus its checks."""
    lines: List[str] = []
    lines.append(f"== {figure.figure_id}: {figure.title} ==")
    names = list(figure.series)
    xs = figure.xs()
    x_width = max(len(figure.x_label), 10)
    col_width = max([12] + [len(name) for name in names]) + 2
    header = figure.x_label.rjust(x_width) + "".join(
        name.rjust(col_width) for name in names
    )
    lines.append(header)
    lines.append("-" * len(header))
    for i, x in enumerate(xs):
        cells = []
        for name in names:
            points = figure.series[name]
            cell = f"{points[i][1]:.1f}" if i < len(points) else "-"
            cells.append(cell.rjust(col_width))
        x_text = f"{x:g}".rjust(x_width)
        lines.append(x_text + "".join(cells))
    lines.append(f"    (y = {figure.y_label})")
    for note in figure.notes:
        lines.append(f"    note: {note}")
    for check in figure.checks:
        lines.append(f"    {check}")
    return "\n".join(lines)


def monotone_decreasing(values: Sequence[float], slack: float = 0.0) -> bool:
    """Is the sequence non-increasing, up to ``slack`` relative noise?"""
    for before, after in zip(values, values[1:]):
        if after > before * (1.0 + slack):
            return False
    return True


def roughly_flat(values: Sequence[float], tolerance: float = 0.15) -> bool:
    """Does the sequence stay within ±tolerance of its mean?"""
    if not values:
        return True
    mean = sum(values) / len(values)
    if mean == 0:
        return all(v == 0 for v in values)
    return all(abs(v - mean) <= tolerance * mean for v in values)


def dominates(
    lower: Sequence[float], upper: Sequence[float], margin: float = 1.0
) -> bool:
    """Is ``lower`` pointwise below ``upper`` (scaled by ``margin``)?"""
    return all(lo <= up * margin for lo, up in zip(lower, upper))
