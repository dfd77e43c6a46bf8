"""Related-work baselines (paper Section 2).

"Our design of the assembly operator was influenced mainly by the way
look-up routines work for unclustered index scans … One could try to
avoid the seek costs of the unclustered scan by sorting the pointers
retrieved from the index and looking them up in physical order.  This
approach, however, may require substantial sort space.  We sought an
operator that avoids the cost of completely sorting the pointer set,
but retains the advantages of using an index."

This driver places the assembly operator on exactly that spectrum,
using a degenerate single-component template (an assembly of flat
objects *is* a TID look-up):

* ``TidScan(order="input")`` — the naive unclustered look-up,
* ``TidScan(order="sorted")`` — the full pointer sort (unbounded sort
  space: the whole pointer set is materialized before the first
  result),
* ``Assembly`` at windows 1 … W — bounded "sort space" of W pointers,
  streaming results as they complete.

Expected shape: window 1 equals the naive scan; growing windows slide
toward the fully-sorted seek cost while holding only W pointers in
memory — the middle ground the paper set out to build.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.bench.harness import ExperimentConfig, build_layout
from repro.bench.report import FigureResult, monotone_decreasing
from repro.core.assembly import Assembly
from repro.core.template import Template, TemplateNode
from repro.iterator import ListSource
from repro.volcano.scan import TidScan


def flat_template() -> Template:
    """A single-component template: assembly degenerates to look-up."""
    return Template(TemplateNode("object", type_name="T0")).finalize()


def _fresh_run(db_size: int) -> Tuple[object, object]:
    config = ExperimentConfig(
        n_complex_objects=db_size,
        clustering="unclustered",
        scheduler="elevator",
        window_size=1,
    )
    return build_layout(config)


def baseline_tid_scan(
    db_size: int = 4000,
    windows: Sequence[int] = (1, 10, 50, 200),
) -> FigureResult:
    """The Section 2 spectrum: naive scan, windowed assembly, full sort.

    The look-up targets are the complex-object roots in random
    (index-output) order over an unclustered layout.
    """
    figure = FigureResult(
        figure_id="Section 2 baseline",
        title=f"pointer look-up strategies, {db_size} pointers, unclustered",
        x_label="window size (pointers held)",
        y_label="average seek distance per read (pages)",
    )

    # Naive: fetch in index-output order.
    _db, layout = _fresh_run(db_size)
    scan = TidScan(ListSource(layout.root_order), layout.store, order="input")
    assert sum(1 for _ in scan.rows()) == db_size
    naive = layout.store.disk.stats.avg_seek_per_read

    # Full pointer sort: the whole set is "sort space".
    _db, layout = _fresh_run(db_size)
    scan = TidScan(ListSource(layout.root_order), layout.store, order="sorted")
    assert sum(1 for _ in scan.rows()) == db_size
    full_sort = layout.store.disk.stats.avg_seek_per_read

    assembly_seeks: List[float] = []
    for window in windows:
        _db, layout = _fresh_run(db_size)
        operator = Assembly(
            ListSource(layout.root_order),
            layout.store,
            flat_template(),
            window_size=window,
            scheduler="elevator",
        )
        assert sum(1 for _ in operator.rows()) == db_size
        seek = layout.store.disk.stats.avg_seek_per_read
        assembly_seeks.append(seek)
        figure.add_point("assembly (elevator)", window, seek)
        figure.add_point("naive TID scan", window, naive)
        figure.add_point("fully sorted TID scan", window, full_sort)

    figure.notes.append(
        f"sort space: naive 0 pointers, assembly <= window pointers, "
        f"full sort {db_size} pointers"
    )
    figure.check(
        "window 1 matches the naive unclustered look-up",
        abs(assembly_seeks[0] - naive) / naive < 0.15,
    )
    figure.check(
        "assembly seeks fall monotonically with window",
        monotone_decreasing(assembly_seeks, slack=0.05),
    )
    figure.check(
        "largest window closes most of the gap to the full sort",
        (naive - assembly_seeks[-1]) >= 0.8 * (naive - full_sort),
    )
    figure.check(
        "full sort is the floor",
        all(seek >= full_sort * 0.95 for seek in assembly_seeks),
    )
    return figure
