"""Exporting figure results to CSV and JSON.

Benchmark runs should leave machine-readable artifacts next to the
human-readable tables: CSV per figure (one row per (series, x, y)
point) for plotting, and a single JSON document with series, notes, and
the shape-check outcomes for archival comparison between runs.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import Dict, List, Sequence, Union

from repro.bench.report import FigureResult

PathLike = Union[str, Path]


def figure_to_rows(figure: FigureResult) -> List[Dict[str, object]]:
    """Flatten a figure into one dict per data point."""
    rows: List[Dict[str, object]] = []
    for series_name, points in figure.series.items():
        for x, y in points:
            rows.append(
                {
                    "figure": figure.figure_id,
                    "series": series_name,
                    "x": x,
                    "y": y,
                    "x_label": figure.x_label,
                    "y_label": figure.y_label,
                }
            )
    return rows


def figure_to_csv(figure: FigureResult) -> str:
    """Render one figure as CSV text."""
    rows = figure_to_rows(figure)
    buffer = io.StringIO()
    writer = csv.DictWriter(
        buffer,
        fieldnames=["figure", "series", "x", "y", "x_label", "y_label"],
    )
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buffer.getvalue()


def figure_to_dict(figure: FigureResult) -> Dict[str, object]:
    """JSON-ready representation of one figure."""
    return {
        "figure_id": figure.figure_id,
        "title": figure.title,
        "x_label": figure.x_label,
        "y_label": figure.y_label,
        "series": {
            name: [[x, y] for x, y in points]
            for name, points in figure.series.items()
        },
        "notes": list(figure.notes),
        "checks": list(figure.checks),
        "violations": list(figure.violations),
    }


def write_csv(figures: Sequence[FigureResult], directory: PathLike) -> List[Path]:
    """Write one CSV per figure into ``directory``; returns the paths."""
    target = Path(directory)
    target.mkdir(parents=True, exist_ok=True)
    written: List[Path] = []
    for figure in figures:
        slug = (
            figure.figure_id.lower()
            .replace(" ", "-")
            .replace(".", "")
            .replace(":", "")
        )
        path = target / f"{slug}.csv"
        path.write_text(figure_to_csv(figure))
        written.append(path)
    return written


def write_json(figures: Sequence[FigureResult], path: PathLike) -> Path:
    """Write every figure into one JSON document; returns the path."""
    target = Path(path)
    if target.parent and not target.parent.exists():
        target.parent.mkdir(parents=True, exist_ok=True)
    document = {
        "figures": [figure_to_dict(figure) for figure in figures],
        "violations_total": sum(len(f.violations) for f in figures),
    }
    target.write_text(json.dumps(document, indent=2, sort_keys=True))
    return target


def load_json(path: PathLike) -> Dict[str, object]:
    """Read back a document written by :func:`write_json`."""
    return json.loads(Path(path).read_text())
