"""The V-figure family at reduced scale: shapes must already hold."""

from __future__ import annotations

import pytest

from repro.bench.figures import ALL_FIGURES
from repro.bench.volcano import figure_volcano


@pytest.fixture(scope="module")
def figures():
    return figure_volcano(db_size=72, cluster_pages=32)


class TestFigureVolcano:
    def test_no_violations_at_small_scale(self, figures):
        assert [f.figure_id for f in figures] == [
            "Volcano V-1",
            "Volcano V-2",
            "Volcano V-3",
        ]
        for figure in figures:
            assert figure.violations == [], (
                f"{figure.figure_id}: {figure.violations}"
            )

    def test_v1_composition_is_free(self, figures):
        v1 = figures[0]
        assert v1.ys("filter+project plan (ms)") == v1.ys("bare driver (ms)")

    def test_v2_pushdown_never_costs_more(self, figures):
        v2 = figures[1]
        above = v2.ys("filter above (ms)")
        pushed = v2.ys("pushed into template (ms)")
        assert all(p <= a + 1e-9 for p, a in zip(pushed, above))
        assert pushed[0] < above[0]  # strictly cheaper when selective

    def test_v3_elapsed_falls_with_partitions(self, figures):
        v3 = figures[2]
        elapsed = v3.ys("max shard service (ms)")
        assert elapsed == sorted(elapsed, reverse=True)
        assert elapsed[0] > elapsed[-1]


class TestRegistry:
    def test_volcano_is_registered(self):
        assert "volcano" in ALL_FIGURES
