"""Tests for figure results and rendering."""

from repro.bench.report import (
    FigureResult,
    dominates,
    monotone_decreasing,
    render,
    roughly_flat,
)


def make_figure():
    figure = FigureResult(
        figure_id="Figure X",
        title="test figure",
        x_label="size",
        y_label="seek",
    )
    for x, y in ((1, 10.0), (2, 8.0)):
        figure.add_point("alpha", x, y)
        figure.add_point("beta", x, y * 2)
    return figure


class TestFigureResult:
    def test_series_accumulate(self):
        figure = make_figure()
        assert figure.ys("alpha") == [10.0, 8.0]
        assert figure.xs() == [1, 2]

    def test_checks_record_outcomes(self):
        figure = make_figure()
        assert figure.check("passing", True)
        assert not figure.check("failing", False)
        assert figure.violations == ["failing"]
        assert any("ok" in c for c in figure.checks)
        assert any("FAIL" in c for c in figure.checks)


class TestRender:
    def test_contains_series_and_values(self):
        text = render(make_figure())
        assert "Figure X" in text
        assert "alpha" in text and "beta" in text
        assert "10.0" in text and "16.0" in text

    def test_notes_and_checks_rendered(self):
        figure = make_figure()
        figure.notes.append("important caveat")
        figure.check("sanity", True)
        text = render(figure)
        assert "important caveat" in text
        assert "[ok] sanity" in text


class TestShapeHelpers:
    def test_monotone_decreasing(self):
        assert monotone_decreasing([5, 4, 3])
        assert not monotone_decreasing([3, 4])
        assert monotone_decreasing([5.0, 5.1], slack=0.05)

    def test_roughly_flat(self):
        assert roughly_flat([100, 101, 99])
        assert not roughly_flat([100, 200])
        assert roughly_flat([])
        assert roughly_flat([0, 0])
        assert not roughly_flat([0, 1])

    def test_dominates(self):
        assert dominates([1, 2], [3, 4])
        assert not dominates([5, 2], [3, 4])
        assert dominates([3.1, 2], [3, 4], margin=1.1)
