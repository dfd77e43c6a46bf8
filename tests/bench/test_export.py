"""Tests for CSV/JSON export of figure results."""

import csv
import io

from repro.bench.export import (
    figure_to_csv,
    figure_to_dict,
    figure_to_rows,
    load_json,
    write_csv,
    write_json,
)
from repro.bench.report import FigureResult


def make_figure(figure_id="Figure 11A"):
    figure = FigureResult(
        figure_id=figure_id,
        title="demo",
        x_label="complex objects",
        y_label="avg seek",
    )
    figure.add_point("elevator", 1000, 43.4)
    figure.add_point("elevator", 2000, 71.4)
    figure.add_point("depth-first", 1000, 1127.5)
    figure.notes.append("a note")
    figure.check("a passing check", True)
    figure.check("a failing check", False)
    return figure


class TestRowsAndCsv:
    def test_rows_flatten_points(self):
        rows = figure_to_rows(make_figure())
        assert len(rows) == 3
        assert rows[0] == {
            "figure": "Figure 11A",
            "series": "elevator",
            "x": 1000,
            "y": 43.4,
            "x_label": "complex objects",
            "y_label": "avg seek",
        }

    def test_csv_parses_back(self):
        text = figure_to_csv(make_figure())
        parsed = list(csv.DictReader(io.StringIO(text)))
        assert len(parsed) == 3
        assert parsed[2]["series"] == "depth-first"
        assert float(parsed[2]["y"]) == 1127.5


class TestJson:
    def test_dict_shape(self):
        document = figure_to_dict(make_figure())
        assert document["figure_id"] == "Figure 11A"
        assert document["series"]["elevator"] == [[1000, 43.4], [2000, 71.4]]
        assert document["violations"] == ["a failing check"]
        assert len(document["checks"]) == 2

    def test_write_and_load_roundtrip(self, tmp_path):
        figures = [make_figure("Figure 11A"), make_figure("Figure 13B")]
        path = write_json(figures, tmp_path / "out" / "results.json")
        loaded = load_json(path)
        assert len(loaded["figures"]) == 2
        assert loaded["violations_total"] == 2
        assert loaded["figures"][1]["figure_id"] == "Figure 13B"


class TestWriteCsv:
    def test_one_file_per_figure(self, tmp_path):
        figures = [make_figure("Figure 11A"), make_figure("Ablation A-1")]
        paths = write_csv(figures, tmp_path / "csv")
        assert len(paths) == 2
        assert {p.name for p in paths} == {
            "figure-11a.csv", "ablation-a-1.csv",
        }
        for path in paths:
            assert path.read_text().startswith("figure,series,x,y")


class TestCli:
    def test_cli_exports(self, tmp_path, capsys):
        from repro.bench.__main__ import main

        code = main(
            [
                "ablation-scheduler",
                "--csv", str(tmp_path / "csv"),
                "--json", str(tmp_path / "results.json"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Ablation A-1" in out
        assert (tmp_path / "results.json").exists()
        assert list((tmp_path / "csv").glob("*.csv"))

    def test_cli_list(self, capsys):
        from repro.bench.__main__ import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig11" in out and "baseline-tidscan" in out

    def test_list_prints_one_summary_line_per_figure(self, capsys):
        """``--list`` reads the registry: one line per driver, its name
        then the first line of its docstring, and nothing else."""
        from repro.bench.__main__ import main
        from repro.bench.figures import ALL_FIGURES

        assert main(["--list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == list(ALL_FIGURES)
        for line, driver in zip(lines, ALL_FIGURES.values()):
            summary = line.split(None, 1)[1]
            assert summary == driver.__doc__.strip().splitlines()[0]
