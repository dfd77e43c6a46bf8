"""The gain verdict of ``tools/ab_pairs.py`` (the tool itself runs
the observatory and is not run here)."""

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
