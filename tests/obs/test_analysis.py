"""Trace analysis: rollup, critical path, counters, DFG, parity."""

import pytest

from repro.errors import SimulationError
from repro.obs import TraceEvent, Tracer, analyze, read_jsonl, write_jsonl
from repro.obs.analysis import percentiles
from repro.obs.layers import layer_of


def _ev(kind, name, cat, start, end, span_id, parent=None, pid=1, tid=0,
        **attrs):
    return TraceEvent(kind=kind, name=name, category=cat, start=start,
                      end=end, span_id=span_id, parent_id=parent, pid=pid,
                      tid=tid, attrs=attrs)


def _nested_trace():
    """A run shaped like the real stack: root process span, an fs.read
    containing a cache.fetch containing a disk.read — all recorded
    retroactively (no parent links), exactly like tracer.complete()."""
    return [
        _ev("span", "disk.read", "storage", 0.2, 0.5, 1, device="d0"),
        _ev("span", "cache.fetch", "io", 0.1, 0.6, 2),
        _ev("span", "fs.read", "io", 0.1, 0.7, 3),
        _ev("span", "fs.close", "io", 0.7, 0.8, 4),
        _ev("span", "process:main", "sim", 0.0, 1.0, 5),
        _ev("counter", "d0.queue", "storage", 0.2, 0.2, 6, value=2.0),
        _ev("counter", "d0.queue", "storage", 0.6, 0.6, 7, value=0.0),
        _ev("instant", "cache.evict", "io", 0.65, 0.65, 8, page=3),
    ]


def test_rollup_self_vs_total_with_inferred_nesting():
    rollup = analyze(_nested_trace()).rollup()
    root = rollup[("sim", "process:main")]
    assert root["total_s"] == pytest.approx(1.0)
    # Root's direct children: fs.read (0.6) and fs.close (0.1).
    assert root["self_s"] == pytest.approx(0.3)
    fs_read = rollup[("io", "fs.read")]
    assert fs_read["total_s"] == pytest.approx(0.6)
    assert fs_read["self_s"] == pytest.approx(0.1)  # minus cache.fetch
    cache = rollup[("io", "cache.fetch")]
    assert cache["self_s"] == pytest.approx(0.2)    # minus disk.read
    disk = rollup[("storage", "disk.read")]
    assert disk["self_s"] == pytest.approx(disk["total_s"])  # leaf
    for row in rollup.values():
        assert row["p50_s"] <= row["p90_s"] <= row["p99_s"] <= row["max_s"] + 1e-12


def test_explicit_parent_links_win_over_containment():
    events = [
        _ev("span", "outer", "app", 0.0, 1.0, 1),
        _ev("span", "inner", "app", 0.2, 0.4, 2, parent=1),
    ]
    analysis = analyze(events)
    [outer] = [s for s in analysis.spans if s.name == "outer"]
    assert [c.name for c in analysis.children_of(outer)] == ["inner"]
    assert analysis.self_time(outer) == pytest.approx(0.8)


def test_critical_path_descends_longest_children():
    path = analyze(_nested_trace()).critical_path()
    assert [step.name for step in path] == [
        "process:main", "fs.read", "cache.fetch", "disk.read",
    ]
    assert [step.layer for step in path] == [
        "sim", "filesystem", "cache", "disk",
    ]
    assert path[0].depth == 0 and path[-1].depth == 3
    # Step self times are consistent with the rollup's definitions.
    assert path[-1].self_s == pytest.approx(0.3)


def test_layer_attribution_covers_critical_path():
    analysis = analyze(_nested_trace())
    attribution = analysis.layer_attribution()
    assert attribution["disk"] == pytest.approx(0.3)
    assert attribution["cache"] == pytest.approx(0.2)
    # Root duration minus the off-path fs.close sibling (0.1 s).
    assert sum(attribution.values()) == pytest.approx(0.9)


def test_counter_stats_time_weighted_mean():
    analysis = analyze(_nested_trace())
    stats = analysis.counter_stats()["d0.queue"]
    assert stats["samples"] == 2
    assert stats["max"] == 2.0 and stats["last"] == 0.0
    # Value 2.0 held for the whole inter-sample window [0.2, 0.6].
    assert stats["mean"] == pytest.approx(2.0)


def test_utilization_disk_busy_and_queues():
    util = analyze(_nested_trace()).utilization()
    # disk.read [0.2, 0.5] over trace range [0.0, 1.0].
    assert util["disk_busy"]["d0"] == pytest.approx(0.3)
    assert util["queues"]["d0.queue"]["max_depth"] == 2.0
    assert util["cache_hit_ratio"] is None


def test_disk_busy_merges_overlapping_intervals():
    events = [
        _ev("span", "disk.read", "storage", 0.0, 0.6, 1, device="d0"),
        _ev("span", "disk.write", "storage", 0.4, 0.8, 2, device="d0"),
        _ev("span", "process:main", "sim", 0.0, 1.0, 3),
    ]
    busy = analyze(events).disk_busy()
    assert busy["d0"] == pytest.approx(0.8)  # union, not sum


def test_follows_graph_counts_and_hot_path():
    events = [
        _ev("span", "fs.open", "io", 0.0, 0.1, 1),
        _ev("span", "fs.read", "io", 0.1, 0.2, 2),
        _ev("span", "fs.read", "io", 0.2, 0.3, 3),
        _ev("span", "fs.close", "io", 0.3, 0.4, 4),
    ]
    analysis = analyze(events)
    edges = analysis.follows_graph()
    assert edges[("fs.open", "fs.read")] == 1
    assert edges[("fs.read", "fs.read")] == 1
    assert edges[("fs.read", "fs.close")] == 1
    hot = analysis.hot_path(edges)
    assert hot[0] in {"fs.open", "fs.read"} and len(hot) >= 2


def test_follows_graph_separates_tracks():
    events = [
        _ev("span", "fs.read", "io", 0.0, 0.1, 1, tid=1),
        _ev("span", "fs.write", "io", 0.2, 0.3, 2, tid=2),
    ]
    assert analyze(events).follows_graph(prefix="fs.") == {}


def test_percentiles_helper_degenerate_inputs():
    assert percentiles([]) == {50: 0.0, 90: 0.0, 99: 0.0}
    assert percentiles([4.2, 4.2, 4.2]) == {50: 4.2, 90: 4.2, 99: 4.2}
    spread = percentiles(list(range(101)))
    assert spread[50] == pytest.approx(50.5, abs=1.0)
    assert spread[99] == pytest.approx(100.0, abs=2.0)


def test_layer_of_prefix_and_category_fallback():
    assert layer_of("disk.read", "storage") == "disk"
    assert layer_of("cache.fetch", "io") == "cache"
    assert layer_of("stream.open", "io") == "filesystem"
    assert layer_of("jit.compile", "jit") == "jit"
    assert layer_of("http.get", "webserver") == "webserver"
    assert layer_of("unknown.thing", "io") == "filesystem"
    assert layer_of("unknown.thing", "") == "other"


def test_analyze_rejects_non_events():
    with pytest.raises(SimulationError):
        analyze([{"kind": "span"}])


def test_analysis_parity_live_tracer_vs_reloaded_jsonl(tmp_path):
    """Analysis must give identical answers on a live tracer and on
    the same trace written to JSONL and read back (ordering, labels
    and counter samples all preserved)."""
    from repro.bench.experiments.tables_traces import run_tab1

    tracer = Tracer()
    run_tab1(tracer=tracer)
    path = tmp_path / "tab1.jsonl"
    write_jsonl(str(path), tracer)
    live = analyze(tracer)
    reloaded = analyze(read_jsonl(str(path)))

    assert len(live.events) == len(reloaded.events)
    assert [e.span_id for e in live.events] == \
        [e.span_id for e in reloaded.events]
    assert live.rollup() == reloaded.rollup()
    assert live.critical_path() == reloaded.critical_path()
    assert live.counter_stats() == reloaded.counter_stats()
    assert live.follows_graph() == reloaded.follows_graph()
    assert live.utilization() == reloaded.utilization()
