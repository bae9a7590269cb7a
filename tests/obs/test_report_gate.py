"""The trace report, baseline snapshots, and the regression gate."""

import copy
import json

import pytest

from repro.bench.report import ExperimentResult
from repro.errors import BenchmarkError
from repro.obs import Tracer, analyze, build_baseline, gate_compare, write_jsonl
from repro.obs.__main__ import main as obs_main
from repro.obs.report import (
    load_baseline,
    metric_direction,
    render_gate_report,
    render_trace_report,
    result_metrics,
    write_baseline,
)


def _result():
    return ExperimentResult(
        exp_id="tabX",
        title="synthetic",
        columns=("op", "data_size_bytes", "measured_ms", "paper_ms", "speedup"),
        rows=[("read", 4096, 1.0, 0.9, 2.0),
              ("open", 4096, 3.0, 2.5, 4.0),
              ("close", 4096, 5.0, 4.8, 6.0)],
    )


# -- trace report -----------------------------------------------------------

def test_render_trace_report_sections(tmp_path):
    from repro.bench.experiments.tab5_tab6_webserver import run_tab6

    tracer = Tracer()
    run_tab6(tracer=tracer)
    report = render_trace_report(analyze(tracer))
    assert "span rollup" in report
    assert "critical path" in report
    assert "per-layer attribution" in report
    assert "counters / utilization" in report
    assert "directly-follows graph" in report
    for column in ("self_ms", "p50_ms", "p90_ms", "p99_ms"):
        assert column in report
    assert "http.get" in report


def test_report_cli_on_bench_trace(tmp_path, capsys):
    from repro.bench.experiments.tables_traces import run_tab2

    tracer = Tracer()
    run_tab2(tracer=tracer)
    trace = tmp_path / "t.jsonl"
    write_jsonl(str(trace), tracer)
    assert obs_main(["report", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "critical path" in out and "fs.read" in out


def test_report_cli_missing_file_exits_2(tmp_path, capsys):
    assert obs_main(["report", str(tmp_path / "nope.jsonl")]) == 2
    assert "error" in capsys.readouterr().err


# -- baseline snapshots ------------------------------------------------------

def test_result_metrics_selects_and_characterizes_columns():
    metrics = result_metrics(_result())
    # Key column, paper_* and size columns are excluded.
    assert set(metrics) == {"measured_ms", "speedup"}
    m = metrics["measured_ms"]
    assert m["count"] == 3
    assert m["mean"] == pytest.approx(3.0)
    assert m["min"] == 1.0 and m["max"] == 5.0
    assert m["p50"] <= m["p90"] <= m["p99"] <= 5.0
    assert m["direction"] == "lower_is_better"
    assert metrics["speedup"]["direction"] == "higher_is_better"


def test_metric_direction_heuristics():
    assert metric_direction("read_ms") == "lower_is_better"
    assert metric_direction("cold_misses") == "lower_is_better"
    assert metric_direction("speedup") == "higher_is_better"
    assert metric_direction("hit_ratio") == "higher_is_better"


def test_write_and_load_baseline_roundtrip(tmp_path):
    path = tmp_path / "BENCH_x.json"
    doc = write_baseline(str(path), [_result()], label="unit")
    loaded = load_baseline(str(path))
    assert loaded == doc
    assert loaded["schema"] == "repro.bench.baseline"
    assert loaded["version"] == 1
    assert "tabX" in loaded["experiments"]


def test_load_baseline_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"schema\": \"something-else\"}")
    with pytest.raises(BenchmarkError):
        load_baseline(str(bad))
    missing = tmp_path / "missing.json"
    with pytest.raises(BenchmarkError):
        load_baseline(str(missing))


def test_bench_cli_baseline_out(tmp_path, capsys):
    from repro.bench.__main__ import main as bench_main

    path = tmp_path / "BENCH_now.json"
    assert bench_main(["tab1", "--baseline-out", str(path)]) == 0
    doc = load_baseline(str(path))
    assert set(doc["experiments"]) == {"tab1"}
    assert "measured_ms" in doc["experiments"]["tab1"]["metrics"]


# -- exact gate --------------------------------------------------------------

def _baseline():
    return build_baseline([_result()], label="a")


def _metric(doc, name="measured_ms"):
    return doc["experiments"]["tabX"]["metrics"][name]


def _bump_p90(doc):
    _metric(doc)["p90"] += 0.5


def _bump_count(doc):
    _metric(doc)["count"] += 1


def _lower_min(doc):
    _metric(doc)["min"] -= 0.5


def _raise_max(doc):
    _metric(doc)["max"] += 0.5


def _improve_mean_1pct(doc):
    assert _metric(doc)["direction"] == "lower_is_better"
    _metric(doc)["mean"] *= 0.99


def _retitle(doc):
    doc["experiments"]["tabX"]["title"] = "synthetic (renamed)"


def _add_metric(doc):
    doc["experiments"]["tabX"]["metrics"]["extra_ms"] = dict(_metric(doc))


def _add_experiment(doc):
    doc["experiments"]["tabY"] = copy.deepcopy(doc["experiments"]["tabX"])


def _drop_metric(doc):
    del doc["experiments"]["tabX"]["metrics"]["speedup"]


def _drop_experiment(doc):
    del doc["experiments"]["tabX"]


#: mutation -> the one finding it must produce, as rendered.
_MUTATIONS = {
    "p90": (_bump_p90, "tabX.metrics.measured_ms.p90: "),
    "count": (_bump_count, "tabX.metrics.measured_ms.count: 3 -> 4"),
    "min": (_lower_min, "tabX.metrics.measured_ms.min: 1.0 -> 0.5"),
    "max": (_raise_max, "tabX.metrics.measured_ms.max: 5.0 -> 5.5"),
    "mean_1pct_better": (_improve_mean_1pct,
                         "tabX.metrics.measured_ms.mean: 3.0 -> 2.96999"),
    "title": (_retitle,
              "tabX.title: 'synthetic' -> 'synthetic (renamed)'"),
    "extra_metric": (_add_metric,
                     "tabX.metrics.extra_ms: only in candidate"),
    "extra_experiment": (_add_experiment, "tabY: only in candidate"),
    "missing_metric": (_drop_metric,
                       "tabX.metrics.speedup: only in baseline"),
    "missing_experiment": (_drop_experiment, "tabX: only in baseline"),
}


@pytest.mark.parametrize("name", sorted(_MUTATIONS))
def test_gate_flags_each_mutation(name, tmp_path, capsys):
    mutate, expected = _MUTATIONS[name]
    cand = copy.deepcopy(_baseline())
    mutate(cand)
    findings = gate_compare(_baseline(), cand)
    assert len(findings) == 1
    assert findings[0].render().startswith(expected)

    base_path = tmp_path / "base.json"
    cand_path = tmp_path / "cand.json"
    base_path.write_text(json.dumps(_baseline()))
    cand_path.write_text(json.dumps(cand))
    assert obs_main(["gate", "--baseline", str(base_path),
                     "--candidate", str(cand_path)]) == 1
    assert expected in capsys.readouterr().out


def test_gate_identical_baselines_pass():
    assert gate_compare(_baseline(), _baseline()) == []


def test_gate_ignores_sections_outside_experiments():
    cand = _baseline()
    cand["label"] = "b"
    cand["wall_clock"] = {"tabX": 1.0}
    assert gate_compare(_baseline(), cand) == []


def test_gate_compares_leaves_as_json():
    # 3 == 3.0 in Python, but not in the serialised baseline.
    cand = _baseline()
    _metric(cand)["count"] = 3.0
    assert [f.path for f in gate_compare(_baseline(), cand)] == [
        "tabX.metrics.measured_ms.count"]
    nan = _baseline()
    _metric(nan)["mean"] = float("nan")
    assert gate_compare(nan, copy.deepcopy(nan)) == []


def test_gate_flags_synthetic_2x_slowdown():
    slow = copy.deepcopy(_baseline())
    metric = _metric(slow)
    for stat in ("mean", "min", "max", "p50", "p90", "p99"):
        metric[stat] *= 2.0
    findings = gate_compare(_baseline(), slow)
    assert {f.path for f in findings} == {
        f"tabX.metrics.measured_ms.{stat}"
        for stat in ("mean", "min", "max", "p50", "p90", "p99")
    }
    assert all(f.candidate == pytest.approx(2.0 * f.baseline)
               for f in findings)


def test_gate_direction_awareness():
    # A speedup drop and a changed direction tag are both findings;
    # the direction tag itself is compared like every other field.
    worse = copy.deepcopy(_baseline())
    _metric(worse, "speedup")["mean"] /= 2.0
    assert [f.path for f in gate_compare(_baseline(), worse)] == [
        "tabX.metrics.speedup.mean"]
    flipped = copy.deepcopy(_baseline())
    _metric(flipped, "speedup")["direction"] = "lower_is_better"
    assert [f.path for f in gate_compare(_baseline(), flipped)] == [
        "tabX.metrics.speedup.direction"]


def test_gate_missing_experiment_is_structural_regression():
    empty = build_baseline([])
    assert [f.render() for f in gate_compare(_baseline(), empty)] == [
        "tabX: only in baseline"]
    assert [f.render() for f in gate_compare(empty, _baseline())] == [
        "tabX: only in candidate"]


def test_gate_report_and_threshold_parsing():
    assert render_gate_report([]) == \
        "bench gate: 0 difference(s) from the baseline"
    cand = _baseline()
    _bump_count(cand)
    text = render_gate_report(gate_compare(_baseline(), cand))
    assert text.splitlines() == [
        "bench gate: 1 difference(s) from the baseline",
        "  tabX.metrics.measured_ms.count: 3 -> 4",
    ]


def test_gate_cli_exit_codes(tmp_path, capsys):
    base = tmp_path / "a.json"
    write_baseline(str(base), [_result()])
    same = tmp_path / "b.json"
    write_baseline(str(same), [_result()])
    assert obs_main(["gate", "--baseline", str(base),
                     "--candidate", str(same)]) == 0
    assert "0 difference(s)" in capsys.readouterr().out

    slow_doc = json.loads(base.read_text())
    for metric in slow_doc["experiments"]["tabX"]["metrics"].values():
        if metric["direction"] == "lower_is_better":
            for stat in ("mean", "min", "max", "p50", "p90", "p99"):
                metric[stat] *= 2.0
    slow = tmp_path / "slow.json"
    slow.write_text(json.dumps(slow_doc))
    assert obs_main(["gate", "--baseline", str(base),
                     "--candidate", str(slow)]) == 1
    assert "6 difference(s)" in capsys.readouterr().out

    assert obs_main(["gate", "--baseline", str(tmp_path / "none.json"),
                     "--candidate", str(base)]) == 2
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json")
    assert obs_main(["gate", "--baseline", str(base),
                     "--candidate", str(garbage)]) == 2


def test_committed_seed_baseline_is_valid_and_current_tree_passes_gate():
    """BENCH_seed.json loads, and a freshly measured tab1 entry equals
    its committed one field for field (the CI contract, in-process)."""
    from pathlib import Path

    from repro.bench.experiments.tables_traces import run_tab1

    seed_path = Path(__file__).resolve().parents[2] / "BENCH_seed.json"
    seed = load_baseline(str(seed_path))
    assert "wall_clock" not in seed
    fresh = build_baseline([run_tab1()])
    assert set(fresh["experiments"]) == {"tab1"}
    subset = dict(seed, experiments={"tab1": seed["experiments"]["tab1"]})
    assert gate_compare(subset, fresh) == []
    assert json.dumps(fresh["experiments"]["tab1"], sort_keys=True) == \
        json.dumps(seed["experiments"]["tab1"], sort_keys=True)


def test_baseline_omits_empty_wall_clock():
    """Baselines carry no host wall time: only simulated metrics."""
    doc = build_baseline([_result()])
    assert set(doc) == {"schema", "version", "label", "experiments"}


def test_regression_gate_example_catches_slow_disk(tmp_path, capsys):
    """examples/regression_gate.py returns 0 when the gate catches its
    injected 8x slower disk."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[2] / "examples" / \
        "regression_gate.py"
    spec = importlib.util.spec_from_file_location("regression_gate", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main(tmp_path) == 0
    assert "gate would exit 1" in capsys.readouterr().out
