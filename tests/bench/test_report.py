"""Tests for the experiment result container and renderers."""

import pytest

from repro.bench.report import ExperimentResult, render_report, render_series, render_table
from repro.errors import BenchmarkError


def make_result():
    return ExperimentResult(
        exp_id="demo",
        title="A demo table",
        columns=("name", "value_ms"),
        rows=[("alpha", 1.5), ("beta", 0.000123)],
        notes=["a note"],
    )


def test_row_width_validated():
    with pytest.raises(BenchmarkError):
        ExperimentResult("x", "t", ("a", "b"), rows=[(1,)])


def test_column_access():
    r = make_result()
    assert r.column("name") == ["alpha", "beta"]
    assert r.column("value_ms") == [1.5, 0.000123]
    with pytest.raises(BenchmarkError):
        r.column("missing")


def test_render_table_contains_everything():
    text = render_table(make_result())
    assert "demo" in text
    assert "A demo table" in text
    assert "alpha" in text
    assert "1.5" in text
    assert "1.230e-04" in text  # scientific notation for tiny values
    assert "note: a note" in text
    # Aligned columns: every data line has the separator.
    data_lines = [l for l in text.splitlines() if "|" in l]
    assert len(data_lines) == 3  # header + 2 rows


def test_result_render_shortcut():
    r = make_result()
    assert r.render() == render_table(r)


def test_render_report_concatenates():
    text = render_report([make_result(), make_result()])
    assert text.count("A demo table") == 2


def test_render_series():
    text = render_series([1, 2, 4], [0.5, 1.0, 2.0], width=10, label="speedup")
    assert "speedup" in text
    lines = text.splitlines()[1:]
    assert len(lines) == 3
    # Bars scale with the values.
    assert lines[2].count("#") > lines[0].count("#")


def test_render_series_validation():
    with pytest.raises(BenchmarkError):
        render_series([1, 2], [1.0])
    with pytest.raises(BenchmarkError):
        render_series([], [])


def test_render_series_zero_values():
    text = render_series([1], [0.0])
    assert "0" in text


def test_to_dict_from_dict_roundtrip():
    r = make_result()
    data = r.to_dict()
    rebuilt = ExperimentResult.from_dict(data)
    assert rebuilt.exp_id == r.exp_id
    assert rebuilt.title == r.title
    assert list(rebuilt.columns) == list(r.columns)
    assert [list(row) for row in rebuilt.rows] == [list(row) for row in r.rows]
    assert rebuilt.notes == r.notes
    import json

    json.dumps(data)  # must be JSON-serializable as-is


def test_main_output_and_json_flags(tmp_path, capsys):
    from repro.bench.__main__ import main

    out_txt = tmp_path / "report.txt"
    out_json = tmp_path / "results.json"
    assert main(["tab6", "--output", str(out_txt), "--json", str(out_json)]) == 0
    capsys.readouterr()
    assert "tab6" in out_txt.read_text()
    import json

    data = json.loads(out_json.read_text())
    assert data[0]["exp_id"] == "tab6"
    assert "wall_seconds" not in data[0]
