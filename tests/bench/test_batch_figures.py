"""Figures B-1..B-3 hold their shape checks at reduced scale."""

from repro.bench.batch import BATCH_SIZES, figure_batch
from repro.cluster.policies import CLUSTERINGS
from repro.bench.figures import ALL_FIGURES


class TestFigureBatch:
    def test_checks_hold_at_small_scale(self):
        figures = figure_batch(db_size=300)
        assert [f.figure_id for f in figures] == [
            "Figure B-1",
            "Figure B-2",
            "Figure B-3",
        ]
        for figure in figures:
            assert not figure.violations

    def test_series_cover_grid(self):
        b1, b2, b3 = figure_batch(db_size=120, batch_sizes=(1, 2))
        for figure in (b1, b2):
            assert set(figure.series) == set(CLUSTERINGS)
            for name in figure.series:
                assert figure.xs() == [1, 2]
        assert set(b3.series) == {
            "owner-indexed pool",
            "legacy list pool (unbatched)",
        }

    def test_registered_in_cli(self):
        assert ALL_FIGURES["batch"] is figure_batch
        assert BATCH_SIZES[0] == 1  # the unbatched reference point
