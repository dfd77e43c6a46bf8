"""The gain and no-regression verdicts of ``tools/ab_pairs.py`` (the
tool itself runs the observatory and is not run here)."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "ab_pairs.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("ab_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's annotations through sys.modules.
    sys.modules.setdefault(spec.name, module)
    spec.loader.exec_module(module)
    return module


ab_pairs = load_tool()
PARENT = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 101.0]


class TestVerdict:
    def test_a_clear_gain(self):
        change = [value + 10.0 for value in PARENT]
        result = ab_pairs.verdict(PARENT, change, higher_is_better=True)
        assert (result.wins, result.pairs) == (10, 10)
        assert result.gap == pytest.approx(10.0)
        assert result.gain

    def test_lower_is_better_flips_the_sign(self):
        change = [value - 10.0 for value in PARENT]
        result = ab_pairs.verdict(PARENT, change, higher_is_better=False)
        assert result.wins == 10 and result.gain
        assert not ab_pairs.verdict(PARENT, change, higher_is_better=True).gain

    def test_nine_of_ten_suffices_eight_does_not(self):
        change = [value + 10.0 for value in PARENT]
        change[0] = PARENT[0] - 1.0
        assert ab_pairs.verdict(PARENT, change, True).wins == 9
        assert ab_pairs.verdict(PARENT, change, True).gain
        change[1] = PARENT[1]  # a tie counts for neither side
        result = ab_pairs.verdict(PARENT, change, True)
        assert result.wins == 8 and not result.gain

    def test_a_gap_inside_the_parents_spread_is_no_gain(self):
        parent = [100.0, 90.0, 110.0, 95.0, 105.0, 92.0, 108.0, 97.0, 103.0,
                  100.0]
        change = [value + 1.0 for value in parent]
        result = ab_pairs.verdict(parent, change, True)
        assert result.wins == 10
        assert result.gap < result.parent_iqr
        assert not result.gain

    def test_uneven_sides_are_refused(self):
        with pytest.raises(ValueError):
            ab_pairs.verdict(PARENT, PARENT[:-1], True)
        with pytest.raises(ValueError):
            ab_pairs.verdict([], [], True)


class TestBoundedVerdict:
    """The no-regression verdict: the observatory's own rule over the
    pairs' medians and quartiles, with the metric's bound."""

    compare = ab_pairs.load_compare(TOOL.parents[1])

    def judge(self, change, parent=PARENT):
        return ab_pairs.bounded_verdict(
            self.compare, "objects_per_s", "higher", 0.25, parent, change
        )

    def test_unchanged(self):
        assert self.judge([value - 1.0 for value in PARENT]) == "unchanged"

    def test_regressed_beyond_the_bound(self):
        change = [value * 0.5 for value in PARENT]
        assert self.judge(change) == "regressed beyond bound 25%"

    def test_a_spread_wider_than_the_bound_is_unresolved(self):
        wide = [50.0, 150.0, 60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 55.0,
                145.0]
        assert self.judge(wide, parent=wide).startswith("unresolved (spread")

    def test_exact_metrics_compare_by_equality(self):
        sim = [10.0, 11.0, 12.0]
        verdict = ab_pairs.bounded_verdict(
            self.compare, "sim_elapsed_ms", "lower", 0.15, sim, sim
        )
        assert verdict == "identical"
        moved = ab_pairs.bounded_verdict(
            self.compare, "sim_elapsed_ms", "lower", 0.15, sim,
            [10.0, 11.5, 12.0],
        )
        assert moved == "regressed (exact metric moved)"
