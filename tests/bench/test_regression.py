"""Tests for benchmark regression comparison."""

import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.bench.export import figure_to_dict, write_json
from repro.bench.regression import (
    compare_documents,
    compare_files,
    main,
)
from repro.bench.report import FigureResult


def make_document(y=43.4, violation=False, figure_id="Figure 13A"):
    figure = FigureResult(
        figure_id=figure_id,
        title="demo",
        x_label="complex objects",
        y_label="avg seek",
    )
    figure.add_point("elevator", 1000, y)
    figure.add_point("depth-first", 1000, 1127.5)
    figure.check("elevator smallest", not violation)
    return {"figures": [figure_to_dict(figure)], "violations_total": 0}


class TestCompare:
    def test_identical_runs_are_clean(self):
        report = compare_documents(make_document(), make_document())
        assert report.clean
        assert "no regressions" in report.describe()

    def test_small_drift_within_tolerance(self):
        report = compare_documents(
            make_document(y=43.4), make_document(y=44.0), tolerance=0.05
        )
        assert report.clean

    def test_large_drift_flagged(self):
        report = compare_documents(
            make_document(y=43.4), make_document(y=95.0), tolerance=0.05
        )
        assert not report.clean
        assert any("elevator" in p for p in report.drifted_points)
        assert "43.4 -> 95.0" in report.describe()

    def test_regressed_check_flagged(self):
        report = compare_documents(
            make_document(violation=False), make_document(violation=True)
        )
        assert report.regressed_checks == [
            "Figure 13A: elevator smallest"
        ]

    def test_missing_and_new_figures(self):
        report = compare_documents(
            make_document(figure_id="Figure 11A"),
            make_document(figure_id="Figure 13A"),
        )
        assert report.missing_figures == ["Figure 11A"]
        assert report.new_figures == ["Figure 13A"]

    def test_missing_series(self):
        current = make_document()
        del current["figures"][0]["series"]["depth-first"]
        report = compare_documents(make_document(), current)
        assert report.missing_series == ["Figure 13A / depth-first"]

    def test_missing_point(self):
        current = make_document()
        current["figures"][0]["series"]["elevator"] = [[2000, 71.4]]
        report = compare_documents(make_document(), current)
        assert any("point removed" in p for p in report.drifted_points)

    def test_added_series_dirties_the_report(self):
        current = make_document()
        current["figures"][0]["series"]["breadth-first"] = [[1000, 1.0]]
        report = compare_documents(make_document(), current)
        assert not report.clean
        assert report.new_series == ["Figure 13A / breadth-first"]
        assert "breadth-first" in report.describe()

    def test_added_point_dirties_the_report(self):
        current = make_document()
        current["figures"][0]["series"]["elevator"].append([2000, 71.4])
        report = compare_documents(make_document(), current)
        assert report.drifted_points == [
            "Figure 13A / elevator @ x=2000: point added"
        ]


class TestDuplicates:
    """Indexing by ``dict()`` kept the last copy of a repeated key, so
    a drifted duplicate could hide behind a clean report."""

    def test_duplicated_figure_is_a_difference(self):
        current = make_document(figure_id="Figure 11A")
        drifted = make_document(y=99.0, figure_id="Figure 11A")
        current["figures"].insert(0, drifted["figures"][0])
        report = compare_documents(
            make_document(figure_id="Figure 11A"), current
        )
        assert not report.clean
        assert report.duplicates == [
            "current: Figure 11A appears more than once"
        ]
        assert "duplicated" in report.describe()

    def test_duplicated_figure_in_the_baseline_too(self):
        baseline = make_document()
        baseline["figures"].append(make_document()["figures"][0])
        report = compare_documents(baseline, make_document())
        assert report.duplicates == [
            "baseline: Figure 13A appears more than once"
        ]

    def test_duplicated_point_is_a_difference(self):
        current = make_document()
        current["figures"][0]["series"]["elevator"].insert(0, [1000, 99.0])
        report = compare_documents(make_document(), current)
        assert not report.clean
        assert report.duplicates == [
            "current: Figure 13A / elevator @ x=1000 appears more than once"
        ]

    def test_duplicated_point_in_the_baseline_too(self):
        baseline = make_document()
        baseline["figures"][0]["series"]["depth-first"].append([1000, 1.0])
        report = compare_documents(baseline, make_document())
        assert report.duplicates == [
            "baseline: Figure 13A / depth-first @ x=1000 "
            "appears more than once"
        ]


class TestUnreadableDocuments:
    """A file that is not a results document exits 2 with a message,
    as a missing file does, instead of a traceback."""

    def _good(self, tmp_path):
        figure = FigureResult(
            figure_id="F", title="t", x_label="x", y_label="y"
        )
        figure.add_point("s", 1, 2.0)
        return str(write_json([figure], tmp_path / "good.json"))

    def _exit_code(self, argv):
        try:
            main(argv)
        except SystemExit as exit_:
            return exit_.code
        return None

    def test_missing_file(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.json")
        assert self._exit_code([self._good(tmp_path), missing]) == 2
        assert "cannot read results file" in capsys.readouterr().err

    def test_not_json(self, tmp_path, capsys):
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        assert self._exit_code([str(broken), self._good(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "broken.json is not JSON" in err
        assert "Traceback" not in err

    def test_no_figures_key(self, tmp_path, capsys):
        other = tmp_path / "other.json"
        other.write_text('{"violations_total": 0}')
        assert self._exit_code([self._good(tmp_path), str(other)]) == 2
        assert 'other.json has no "figures" key' in capsys.readouterr().err

    def test_top_level_list_has_no_figures_key(self, tmp_path, capsys):
        other = tmp_path / "list.json"
        other.write_text("[]")
        assert self._exit_code([str(other), self._good(tmp_path)]) == 2
        assert 'list.json has no "figures" key' in capsys.readouterr().err


class TestFiles:
    def test_compare_files_roundtrip(self, tmp_path):
        figure = FigureResult(
            figure_id="F", title="t", x_label="x", y_label="y"
        )
        figure.add_point("s", 1, 2.0)
        base = write_json([figure], tmp_path / "base.json")
        figure.series["s"][0] = (1, 4.0)
        curr = write_json([figure], tmp_path / "curr.json")
        report = compare_files(base, curr)
        assert not report.clean

    def test_default_gate_is_exact(self, tmp_path, capsys):
        """A 1 % drift fails the CLI when no tolerance is passed."""
        figure = FigureResult(
            figure_id="F", title="t", x_label="x", y_label="y"
        )
        figure.add_point("s", 1, 100.0)
        base = write_json([figure], tmp_path / "base.json")
        figure.series["s"][0] = (1, 101.0)
        curr = write_json([figure], tmp_path / "curr.json")
        assert main([str(base), str(curr)]) == 1
        assert "100.0 -> 101.0" in capsys.readouterr().out
        assert main([str(base), str(curr), "--tolerance", "0.05"]) == 0


class TestCommandLine:
    def test_module_runs_without_a_runpy_warning(self):
        """``-m repro.bench.regression`` must not find itself already
        imported by the package ``__init__`` (runpy's RuntimeWarning)."""
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        completed = subprocess.run(
            [
                sys.executable,
                "-W",
                "error::RuntimeWarning",
                "-m",
                "repro.bench.regression",
                "--help",
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr


class TestEndToEnd:
    def test_rerun_of_deterministic_figure_is_clean(self, tmp_path):
        from repro.bench.figures import ablation_scheduler_overhead

        first = ablation_scheduler_overhead(db_size=60, window=6)
        second = ablation_scheduler_overhead(db_size=60, window=6)
        report = compare_documents(
            {"figures": [figure_to_dict(first)]},
            {"figures": [figure_to_dict(second)]},
        )
        assert report.clean
