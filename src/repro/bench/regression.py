"""Regression comparison between benchmark runs.

``python -m repro.bench --json baseline.json`` archives a run; this
module compares a later run against it (programmatically or via
``python -m repro.bench.regression baseline.json current.json``, the
CI gate), flagging:

* figures, series or data points that appeared/disappeared,
* data points whose y value differs (by more than ``--tolerance``,
  which defaults to :data:`EXACT`),
* shape checks that regressed from passing to failing,
* a figure id or a series' x that appears twice in either document
  (indexing by ``dict()`` would silently keep the last copy).

The simulated disk is deterministic, so on an unchanged tree the diff
is empty; any drift localizes the change to a figure and series.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, List, Sequence, Tuple, Union

from repro.bench.export import load_json
from repro.errors import ReproError

#: Relative y difference still read as "the same number".  Every series
#: is a count or a simulated quantity, so the gate is exact; the slack
#: only absorbs float summation order, which differs between
#: interpreters (CPython 3.12 compensates ``sum()`` over floats).
EXACT = 1e-9


@dataclass
class RegressionReport:
    """Differences between a baseline and a current run."""

    missing_figures: List[str] = field(default_factory=list)
    new_figures: List[str] = field(default_factory=list)
    missing_series: List[str] = field(default_factory=list)
    new_series: List[str] = field(default_factory=list)
    drifted_points: List[str] = field(default_factory=list)
    regressed_checks: List[str] = field(default_factory=list)
    duplicates: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """No differences at all?"""
        return not (
            self.duplicates
            or self.missing_figures
            or self.new_figures
            or self.missing_series
            or self.new_series
            or self.drifted_points
            or self.regressed_checks
        )

    def describe(self) -> str:
        """Human-readable summary."""
        if self.clean:
            return "no regressions: runs are equivalent"
        lines: List[str] = []
        for label, items in (
            ("figures or points duplicated", self.duplicates),
            ("figures missing from current run", self.missing_figures),
            ("figures new in current run", self.new_figures),
            ("series missing from current run", self.missing_series),
            ("series new in current run", self.new_series),
            ("points drifted, removed or added", self.drifted_points),
            ("shape checks regressed", self.regressed_checks),
        ):
            if items:
                lines.append(f"{label}:")
                lines.extend(f"  {item}" for item in items)
        return "\n".join(lines)


def _index(
    pairs: Iterable[Tuple[object, object]], where: str, duplicates: List[str]
) -> dict:
    """``dict(pairs)`` keeping the first copy of a key; every later
    copy is recorded in ``duplicates`` as ``where`` + the key."""
    index: dict = {}
    for key, value in pairs:
        if key in index:
            duplicates.append(f"{where}{key} appears more than once")
        else:
            index[key] = value
    return index


def compare_documents(
    baseline: dict, current: dict, tolerance: float = EXACT
) -> RegressionReport:
    """Diff two result documents (as loaded by ``export.load_json``)."""
    report = RegressionReport()
    old = _index(
        ((f["figure_id"], f) for f in baseline["figures"]),
        "baseline: ",
        report.duplicates,
    )
    new = _index(
        ((f["figure_id"], f) for f in current["figures"]),
        "current: ",
        report.duplicates,
    )

    report.missing_figures = sorted(set(old) - set(new))
    report.new_figures = sorted(set(new) - set(old))

    for figure_id in sorted(set(old) & set(new)):
        old_fig, new_fig = old[figure_id], new[figure_id]
        old_series = old_fig["series"]
        new_series = new_fig["series"]
        for name in old_series:
            if name not in new_series:
                report.missing_series.append(f"{figure_id} / {name}")
                continue
            where = f"{figure_id} / {name} @ x="
            old_points = _index(
                old_series[name], f"baseline: {where}", report.duplicates
            )
            new_points = _index(
                new_series[name], f"current: {where}", report.duplicates
            )
            for x in new_points:
                if x not in old_points:
                    report.drifted_points.append(
                        f"{figure_id} / {name} @ x={x}: point added"
                    )
            for x, old_y in old_points.items():
                if x not in new_points:
                    report.drifted_points.append(
                        f"{figure_id} / {name} @ x={x}: point removed"
                    )
                    continue
                new_y = new_points[x]
                scale = max(abs(old_y), 1e-9)
                if abs(new_y - old_y) / scale > tolerance:
                    report.drifted_points.append(
                        f"{figure_id} / {name} @ x={x}: "
                        f"{old_y} -> {new_y}"
                    )
        report.new_series.extend(
            f"{figure_id} / {name}"
            for name in new_series
            if name not in old_series
        )
        old_violations = set(old_fig.get("violations", []))
        for violation in new_fig.get("violations", []):
            if violation not in old_violations:
                report.regressed_checks.append(
                    f"{figure_id}: {violation}"
                )
    return report


def _load_document(path: Union[str, Path]) -> dict:
    """Read one export; :class:`ReproError` (naming ``path``) when the
    file is not JSON or has no ``"figures"`` key."""
    try:
        document = load_json(path)
    except ValueError as exc:
        raise ReproError(f"{path} is not JSON: {exc}") from exc
    if not isinstance(document, dict) or "figures" not in document:
        raise ReproError(f'{path} has no "figures" key')
    return document


def compare_files(
    baseline_path: Union[str, Path],
    current_path: Union[str, Path],
    tolerance: float = EXACT,
) -> RegressionReport:
    """Diff two JSON exports on disk."""
    return compare_documents(
        _load_document(baseline_path),
        _load_document(current_path),
        tolerance,
    )


def main(argv: Union[Sequence[str], None] = None) -> int:
    """CLI: compare a current export against an archived baseline.

    Exit status 0 when the runs are equivalent, 1 on any regression —
    which is exactly what a CI step wants — and 2 when a file is
    missing, is not JSON or has no ``"figures"`` key.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.regression",
        description="Compare two 'python -m repro.bench --json' exports.",
    )
    parser.add_argument("baseline", help="archived baseline JSON")
    parser.add_argument("current", help="freshly produced JSON")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=EXACT,
        help=f"relative y drift allowed per point (default {EXACT})",
    )
    args = parser.parse_args(argv)
    try:
        report = compare_files(args.baseline, args.current, args.tolerance)
    except FileNotFoundError as exc:
        parser.error(f"cannot read results file: {exc.filename}")
    except ReproError as exc:
        parser.error(str(exc))
    print(report.describe())
    return 0 if report.clean else 1


if __name__ == "__main__":
    import sys

    sys.exit(main())
