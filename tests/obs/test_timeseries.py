"""Time-series telemetry: windowed scraping, determinism, layering."""

import json

import pytest

from repro.errors import SimulationError
from repro.obs import (
    Telemetry,
    TelemetryConfig,
    TelemetrySampler,
    read_series_jsonl,
    write_series_jsonl,
)
from repro.obs.export import series_lines
from repro.obs.slo import AlertRule, SloSpec
from repro.sim import Counter, Engine, Histogram, Tally, TimeWeighted


def _engine_with_metrics():
    eng = Engine()
    tally = Tally("lat")
    counter = Counter("ops")
    eng.metrics.register("disk.latency", tally, device="d0")
    eng.metrics.register("fs.ops", counter)
    return eng, tally, counter


def _run(eng, proc):
    eng.process(proc)
    eng.run()


# -- sampler windows ---------------------------------------------------------

def test_sampler_windows_are_deltas():
    """Each observation lands in exactly one window."""
    eng, tally, counter = _engine_with_metrics()
    sampler = TelemetrySampler(eng, TelemetryConfig(interval=1.0)).start()

    def proc():
        tally.record(0.010)
        counter.add(3)
        yield eng.timeout(1.5)     # window 0 boundary at t=1
        tally.record(0.020)
        tally.record(0.040)
        counter.add(2)
        yield eng.timeout(1.0)     # window 1 boundary at t=2

    _run(eng, proc())
    sampler.finish()
    samples = [r for r in sampler.records if r["kind"] == "sample"]
    lat = [r for r in samples if r["metric"] == "disk.latency"]
    ops = [r for r in samples if r["metric"] == "fs.ops"]
    assert [r["stats"]["count"] for r in lat] == [1, 2, 0]
    assert lat[0]["stats"]["sum"] == pytest.approx(0.010)
    assert lat[1]["stats"]["mean"] == pytest.approx(0.030)
    assert lat[1]["stats"]["min"] == pytest.approx(0.020)
    assert lat[1]["stats"]["max"] == pytest.approx(0.040)
    # Deltas sum to the counter's final value.
    assert [r["stats"]["delta"] for r in ops] == [3, 2, 0]
    assert ops[-1]["stats"]["value"] == 5
    # Window boundaries are contiguous on simulated time.
    assert [(r["t0"], r["t1"]) for r in ops] == [(0.0, 1.0), (1.0, 2.0),
                                                (2.0, 2.5)]


def test_sampler_tally_window_percentiles():
    eng, tally, _ = _engine_with_metrics()
    sampler = TelemetrySampler(eng, TelemetryConfig(interval=1.0)).start()

    def proc():
        for ms in range(1, 11):
            tally.record(ms * 1e-3)
        yield eng.timeout(1.0)

    _run(eng, proc())
    sampler.finish()
    stats = next(r for r in sampler.records
                 if r["kind"] == "sample"
                 and r["metric"] == "disk.latency")["stats"]
    assert stats["count"] == 10
    assert stats["p50"] <= stats["p90"] <= stats["p99"]
    assert 0.001 <= stats["p50"] <= 0.010


def test_sampler_time_weighted_window_mean_is_exact():
    eng = Engine()
    tw = TimeWeighted(eng, initial=0.0)
    eng.metrics.register("fs.depth", tw)
    sampler = TelemetrySampler(eng, TelemetryConfig(interval=2.0)).start()

    def proc():
        yield eng.timeout(2.0)   # window 0: flat 0.0
        tw.record(4.0)
        yield eng.timeout(1.0)
        tw.record(0.0)
        yield eng.timeout(1.0)   # window 1: 4.0 for 1s, 0.0 for 1s

    _run(eng, proc())
    sampler.finish()
    means = [r["stats"]["mean"] for r in sampler.records
             if r["kind"] == "sample" and r["metric"] == "fs.depth"]
    assert means[0] == pytest.approx(0.0)
    assert means[1] == pytest.approx(2.0)


def test_sampler_histogram_window_count_deltas():
    eng = Engine()
    hist = Histogram(0.0, 1.0, bins=4)
    eng.metrics.register("fs.sizes", hist)
    sampler = TelemetrySampler(eng, TelemetryConfig(interval=1.0)).start()

    def proc():
        hist.record(0.1)
        hist.record(0.9)
        yield eng.timeout(1.5)
        hist.record(0.9)
        yield eng.timeout(1.0)

    _run(eng, proc())
    sampler.finish()
    windows = [r["stats"] for r in sampler.records
               if r["kind"] == "sample" and r["metric"] == "fs.sizes"]
    assert windows[0]["count"] == 2
    assert windows[1]["count"] == 1
    assert windows[1]["counts"] == [0, 0, 0, 1]


def test_sampler_labels_merge_registry_sampler_and_layer():
    eng, _, _ = _engine_with_metrics()
    sampler = TelemetrySampler(
        eng, TelemetryConfig(interval=1.0), node="n0").start()

    def proc():
        yield eng.timeout(1.0)

    _run(eng, proc())
    sampler.finish()
    lat = next(r for r in sampler.records
               if r["kind"] == "sample" and r["metric"] == "disk.latency")
    assert lat["labels"] == {"device": "d0", "node": "n0", "layer": "disk"}


def test_sampler_metric_prefix_filter():
    eng, _, _ = _engine_with_metrics()
    sampler = TelemetrySampler(
        eng, TelemetryConfig(interval=1.0, metrics=("fs.",))).start()

    def proc():
        yield eng.timeout(1.0)

    _run(eng, proc())
    sampler.finish()
    metrics = {r["metric"] for r in sampler.records if r["kind"] == "sample"}
    assert metrics == {"fs.ops"}


# -- lifecycle & non-perturbation -------------------------------------------

def test_sampling_never_extends_or_perturbs_the_run():
    def workload(eng, tally):
        def proc():
            for i in range(5):
                tally.record(0.001 * (i + 1))
                yield eng.timeout(0.3)
        return proc()

    plain = Engine()
    t1 = Tally("lat")
    plain.metrics.register("disk.latency", t1)
    plain.process(workload(plain, t1))
    plain.run()

    sampled = Engine()
    t2 = Tally("lat")
    sampled.metrics.register("disk.latency", t2)
    sampler = TelemetrySampler(
        sampled, TelemetryConfig(interval=0.1)).start()
    sampled.process(workload(sampled, t2))
    sampled.run()
    sampler.finish()

    assert sampled.now == plain.now        # clock not extended
    assert t2.values == t1.values          # results untouched
    n_windows = len([r for r in sampler.records if r["kind"] == "sample"])
    assert n_windows >= 12                 # ~1.5s at 100ms + final partial


def test_finish_takes_final_partial_window_and_is_idempotent():
    eng, tally, _ = _engine_with_metrics()
    sampler = TelemetrySampler(eng, TelemetryConfig(interval=1.0)).start()

    def proc():
        yield eng.timeout(1.0)
        tally.record(0.005)
        yield eng.timeout(0.25)  # past the last tick: partial window

    _run(eng, proc())
    first = list(sampler.finish())
    assert sampler.finish() == first  # idempotent
    lat = [r for r in first
           if r["kind"] == "sample" and r["metric"] == "disk.latency"]
    assert lat[-1]["t1"] == pytest.approx(1.25)
    assert lat[-1]["stats"]["count"] == 1


def test_start_twice_and_finish_before_start_raise():
    eng, _, _ = _engine_with_metrics()
    sampler = TelemetrySampler(eng, TelemetryConfig(interval=1.0))
    with pytest.raises(SimulationError):
        sampler.finish()
    sampler.start()
    with pytest.raises(SimulationError):
        sampler.start()


def test_config_rejects_non_positive_interval():
    with pytest.raises(SimulationError):
        TelemetryConfig(interval=0.0)


# -- alerts in the stream ----------------------------------------------------

def _burst_rules():
    return (AlertRule(
        SloSpec("slow-reads", "latency", "disk.latency",
                objective=0.010, stat="max"),
        for_windows=1, clear_windows=1,
    ),)


def test_alerts_fire_and_resolve_inside_the_stream():
    eng, tally, _ = _engine_with_metrics()
    sampler = TelemetrySampler(
        eng, TelemetryConfig(interval=1.0, rules=_burst_rules())).start()

    def proc():
        tally.record(0.001)
        yield eng.timeout(1.5)   # w0 ok
        tally.record(0.050)      # breach in w1
        yield eng.timeout(1.0)
        tally.record(0.002)      # recovery in w2
        yield eng.timeout(1.0)

    _run(eng, proc())
    sampler.finish()
    alerts = [r for r in sampler.records if r["kind"] == "alert"]
    assert [(a["state"], a["window"]) for a in alerts] == [
        ("firing", 1), ("resolved", 2)]
    assert alerts[0]["t"] == pytest.approx(2.0)
    summary = next(r for r in sampler.records if r["kind"] == "slo")
    assert summary["fired"] == summary["resolved"] == 1
    assert summary["final_state"] == "ok"
    assert summary["worst"] == pytest.approx(0.050)
    # The header carries the rule description.
    header = sampler.records[0]
    assert header["kind"] == "telemetry.header"
    assert header["rules"][0]["name"] == "slow-reads"


# -- hub + byte determinism --------------------------------------------------

def _hub_run(seed_values):
    hub = Telemetry(TelemetryConfig(interval=0.5))
    eng = Engine()
    tally = Tally("lat")
    eng.metrics.register("disk.latency", tally, device="d0")
    sampler = hub.attach(eng, node="n0")

    def proc():
        for v in seed_values:
            tally.record(v)
            yield eng.timeout(0.2)

    eng.process(proc())
    eng.run()
    sampler.finish()
    return hub


def test_same_inputs_produce_byte_identical_series(tmp_path):
    values = [0.001, 0.004, 0.002, 0.009, 0.003]
    a, b = _hub_run(values), _hub_run(values)
    assert series_lines(a.records) == series_lines(b.records)
    pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert a.write(str(pa)) == b.write(str(pb))
    assert pa.read_bytes() == pb.read_bytes()


def test_series_jsonl_round_trip(tmp_path):
    hub = _hub_run([0.001, 0.002])
    path = tmp_path / "series.jsonl"
    n = hub.write(str(path))
    records = read_series_jsonl(str(path))
    assert len(records) == n
    assert records[0]["kind"] == "telemetry.header"
    kinds = {r["kind"] for r in records}
    assert "sample" in kinds


def test_series_floats_are_rounded_for_stability(tmp_path):
    path = tmp_path / "r.jsonl"
    write_series_jsonl(str(path), [
        {"kind": "sample", "stats": {"mean": 0.1 + 0.2}}])
    (record,) = read_series_jsonl(str(path))
    assert record["stats"]["mean"] == 0.3


def test_read_series_jsonl_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"no-kind": 1}\n')
    with pytest.raises(SimulationError):
        read_series_jsonl(str(bad))
    worse = tmp_path / "worse.jsonl"
    worse.write_text("{nope\n")
    with pytest.raises(SimulationError):
        read_series_jsonl(str(worse))


def test_hub_attach_overrides_interval_and_rules():
    hub = Telemetry(TelemetryConfig(interval=0.5))
    eng, tally, _ = _engine_with_metrics()
    sampler = hub.attach(eng, rules=_burst_rules(), interval=1.0)
    assert sampler.config.interval == 1.0
    assert sampler.config.rules == _burst_rules()
    assert hub.config.interval == 0.5  # hub config untouched
    assert hub.config.rules == ()

    def proc():
        tally.record(0.5)  # breaches 10ms objective
        yield eng.timeout(1.0)

    _run(eng, proc())
    hub.finish_all()  # finishes open samplers (idempotent with finish)
    assert any(r["kind"] == "alert" for r in hub.records)


def test_hub_write_merges_streams_in_attachment_order(tmp_path):
    hub = Telemetry(TelemetryConfig(interval=1.0))
    for node in ("n0", "n1"):
        eng, tally, _ = _engine_with_metrics()
        sampler = hub.attach(eng, node=node)

        def proc():
            tally.record(0.001)
            yield eng.timeout(1.0)

        eng.process(proc())
        eng.run()
        sampler.finish()
    path = tmp_path / "merged.jsonl"
    hub.write(str(path))
    headers = [r for r in read_series_jsonl(str(path))
               if r["kind"] == "telemetry.header"]
    assert [h["labels"]["node"] for h in headers] == ["n0", "n1"]


def test_sample_records_are_json_serializable():
    hub = _hub_run([0.001])
    for record in hub.records:
        json.dumps(record)
