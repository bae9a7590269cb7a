"""Performance reports and the bench regression gate.

Two faces on top of :mod:`repro.obs.analysis`:

* :func:`render_trace_report` — the human-readable text report behind
  ``python -m repro.obs report <trace.jsonl>``: span rollup with self
  vs. total time and p50/p90/p99, the critical path with per-layer
  attribution, counter/utilization summaries, and the
  directly-follows graph of I/O operations.

* the **baseline/gate workflow** — ``python -m repro.bench ...
  --baseline-out BENCH_<name>.json`` snapshots every experiment's key
  metrics (count/mean/min/max and histogram-derived percentiles per
  numeric column) into a versioned, deterministic JSON document;
  ``python -m repro.obs gate --baseline A.json --candidate B.json``
  compares two snapshots field for field and exits nonzero on any
  difference, in either direction.  Simulated metrics are
  deterministic, so a run of an unchanged model matches exactly.

The committed ``BENCH_seed.json`` is the repo's reference snapshot;
CI regenerates a candidate and runs the gate against it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import BenchmarkError
from repro.obs.analysis import QUANTILES, TraceAnalysis, percentiles

__all__ = [
    "render_trace_report",
    "analysis_to_dict",
    "render_timeline_report",
    "sparkline",
    "BASELINE_SCHEMA",
    "BASELINE_VERSION",
    "metric_direction",
    "result_metrics",
    "build_baseline",
    "write_baseline",
    "load_baseline",
    "GateFinding",
    "gate_compare",
    "render_gate_report",
]

_MS = 1e3


# ---------------------------------------------------------------------------
# Trace report
# ---------------------------------------------------------------------------

def _section(title: str) -> List[str]:
    return [f"== {title} ==".ljust(72, "=")]


def render_trace_report(analysis: TraceAnalysis, top: int = 20) -> str:
    """Full text report over one analyzed trace.

    ``top`` bounds the rollup and follows-graph tables (the critical
    path and counter sections are always complete).
    """
    lines: List[str] = []
    t0, t1 = analysis.time_range
    lines += _section("trace")
    lines.append(
        f"events {len(analysis.events)} (spans {len(analysis.spans)}, "
        f"instants {len(analysis.instants)}, counters {len(analysis.counters)})"
        f"  simulated [{t0:.6f}s .. {t1:.6f}s]"
    )

    lines.append("")
    lines += _section(f"span rollup: self vs total time (top {top} by total)")
    rollup = analysis.rollup()
    lines.append(
        f"{'category':<10} {'span':<26} {'count':>6} {'total_ms':>10} "
        f"{'self_ms':>10} {'mean_ms':>9} {'p50_ms':>9} {'p90_ms':>9} "
        f"{'p99_ms':>9} {'max_ms':>9}"
    )
    ranked = sorted(rollup.items(), key=lambda kv: -kv[1]["total_s"])
    for (category, name), row in ranked[:top]:
        lines.append(
            f"{category:<10} {name:<26} {row['count']:>6d} "
            f"{row['total_s'] * _MS:>10.4f} {row['self_s'] * _MS:>10.4f} "
            f"{row['mean_s'] * _MS:>9.4f} {row['p50_s'] * _MS:>9.4f} "
            f"{row['p90_s'] * _MS:>9.4f} {row['p99_s'] * _MS:>9.4f} "
            f"{row['max_s'] * _MS:>9.4f}"
        )
    if len(ranked) > top:
        lines.append(f"... {len(ranked) - top} more span names")

    lines.append("")
    lines += _section("critical path (longest root-to-leaf chain)")
    path = analysis.critical_path()
    if not path:
        lines.append("(no spans)")
    else:
        for step in path:
            lines.append(
                f"{'  ' * step.depth}{step.name}  [{step.layer}]  "
                f"total {step.duration_s * _MS:.4f} ms, "
                f"self {step.self_s * _MS:.4f} ms"
            )
        lines.append("per-layer attribution of the critical path:")
        attribution = analysis.layer_attribution()
        total = sum(attribution.values()) or 1.0
        for layer, seconds in sorted(attribution.items(),
                                     key=lambda kv: -kv[1]):
            lines.append(
                f"  {layer:<12} {seconds * _MS:>12.4f} ms "
                f"({100.0 * seconds / total:5.1f}%)"
            )

    lines.append("")
    lines += _section("counters / utilization")
    util = analysis.utilization()
    if util["disk_busy"]:
        for device, fraction in sorted(util["disk_busy"].items()):
            lines.append(f"disk busy       {device:<16} {fraction:6.2%}")
    for name, row in sorted(util["queues"].items()):
        lines.append(
            f"queue depth     {name:<16} mean {row['mean_depth']:.3f} "
            f"max {row['max_depth']:.0f}"
        )
    if util["cache_hit_ratio"] is not None:
        lines.append(
            f"cache hit ratio final {util['cache_hit_ratio']:.4f} "
            f"(time-weighted mean {util['cache_hit_ratio_mean']:.4f})"
        )
    if not (util["disk_busy"] or util["queues"]
            or util["cache_hit_ratio"] is not None):
        lines.append("(no counter samples recorded)")

    instants = analysis.instant_summary()
    if instants:
        lines.append("")
        lines += _section("point events (faults / retries / degradation)")
        lines.append(f"{'event':<26} {'count':>6}  layers / breakdown")
        for name in sorted(instants):
            row = instants[name]
            layers = " ".join(
                f"{layer}×{count}"
                for layer, count in sorted(row["layers"].items()))
            details = []
            for key in ("kind", "target", "op", "reason", "action", "error"):
                tally = row["attrs"].get(key)
                if tally:
                    values = " ".join(
                        f"{value}×{count}"
                        for value, count in sorted(tally.items()))
                    details.append(f"{key}: {values}")
            lines.append(f"{name:<26} {row['count']:>6d}  {layers}")
            for detail in details:
                lines.append(f"{'':<34} {detail}")

    lines.append("")
    lines += _section(f"directly-follows graph of I/O ops (top {top} edges)")
    edges = analysis.follows_graph()
    if not edges:
        lines.append("(not enough operation spans)")
    else:
        ranked_edges = sorted(edges.items(), key=lambda kv: (-kv[1], kv[0]))
        for (a, b), count in ranked_edges[:top]:
            lines.append(f"{a:<26} -> {b:<26} x{count}")
        hot = analysis.hot_path(edges)
        if hot:
            lines.append("hot path: " + " -> ".join(hot))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Machine-readable trace analysis
# ---------------------------------------------------------------------------

ANALYSIS_SCHEMA = "repro.obs.analysis"
ANALYSIS_VERSION = 1


def analysis_to_dict(analysis: TraceAnalysis) -> dict:
    """The full :class:`TraceAnalysis` rollup as one JSON-ready dict.

    Everything :func:`render_trace_report` prints, machine-readably:
    trace totals, the span rollup, the critical path with per-layer
    attribution, counter/utilization summaries, instant summaries and
    the directly-follows graph.  ``python -m repro.obs report
    --format json`` emits exactly this document
    (``tests/obs/test_cli.py`` pins the round trip).
    """
    t0, t1 = analysis.time_range
    rollup = [
        {"category": category, "name": name, **row}
        for (category, name), row in sorted(analysis.rollup().items())
    ]
    path = [
        {
            "name": step.name,
            "category": step.category,
            "layer": step.layer,
            "depth": step.depth,
            "start": step.start,
            "duration_s": step.duration_s,
            "self_s": step.self_s,
        }
        for step in analysis.critical_path()
    ]
    edges = [
        {"from": a, "to": b, "count": count}
        for (a, b), count in sorted(analysis.follows_graph().items())
    ]
    return {
        "schema": ANALYSIS_SCHEMA,
        "version": ANALYSIS_VERSION,
        "trace": {
            "events": len(analysis.events),
            "spans": len(analysis.spans),
            "instants": len(analysis.instants),
            "counters": len(analysis.counters),
            "time_range": [t0, t1],
        },
        "rollup": rollup,
        "critical_path": path,
        "layer_attribution": analysis.layer_attribution(),
        "counters": analysis.counter_stats(),
        "utilization": analysis.utilization(),
        "instants": analysis.instant_summary(),
        "follows_graph": edges,
        "hot_path": analysis.hot_path(),
    }


# ---------------------------------------------------------------------------
# Timeline report (telemetry series)
# ---------------------------------------------------------------------------

#: ASCII intensity ramp for sparklines, low to high.
_RAMP = " .:-=+*#@"


def sparkline(values: Sequence[Optional[float]], width: int = 60) -> str:
    """Render a value series as a fixed-width ASCII sparkline.

    Values are normalized to the series' own [min, max]; ``None``
    (empty window) renders as ``_``.  Longer series are folded into
    ``width`` buckets by taking each bucket's max — a dip narrower
    than one bucket still has to survive its neighbourhood, but a
    spike never disappears.
    """
    vals = list(values)
    if not vals:
        return ""
    if len(vals) > width:
        folded: List[Optional[float]] = []
        for i in range(width):
            lo = (i * len(vals)) // width
            hi = max(lo + 1, ((i + 1) * len(vals)) // width)
            bucket = [v for v in vals[lo:hi] if v is not None]
            folded.append(max(bucket) if bucket else None)
        vals = folded
    present = [v for v in vals if v is not None]
    if not present:
        return "_" * len(vals)
    lo, hi = min(present), max(present)
    span = hi - lo
    out = []
    for v in vals:
        if v is None:
            out.append("_")
        elif span <= 0:
            out.append(_RAMP[-1] if hi > 0 else _RAMP[0])
        else:
            idx = int((v - lo) / span * (len(_RAMP) - 1))
            out.append(_RAMP[idx])
    return "".join(out)


#: Which window statistic headlines each metric type's sparkline.
_HEADLINE_STAT = {
    "tally": "p99",
    "counter": "delta",
    "time_weighted": "mean",
    "gauge": "value",
    "histogram": "count",
}


def _series_key(record: dict) -> Tuple[str, str]:
    """Group samples into one series per (metric, identity labels).

    The derived ``layer`` label is presentation, not identity, so two
    attachments only split when a *distinguishing* label (node,
    architecture, device, ...) differs.
    """
    labels = {k: v for k, v in (record.get("labels") or {}).items()
              if k != "layer"}
    return (record["metric"],
            json.dumps(labels, sort_keys=True, default=str))


def _cluster_rows(series: Dict[Tuple[str, str], List[dict]]) -> List[str]:
    """Per-node rollup of ``cluster.*``/``lb.*`` series (empty for a
    single-host stream — the section renders only for cluster runs).

    One block per attachment context (e.g. ``scenario=...``): a fleet
    line for the unlabeled cluster counters, then one line per node.
    The registry's ``#N`` duplicate-name suffixes are presentation
    noise here — the ``node=`` label is the identity — so they are
    stripped.
    """
    groups: Dict[Tuple[str, int, str], Dict[str, float]] = {}
    for (metric, labels_json), recs in series.items():
        base = metric.split("#", 1)[0]
        if not (base.startswith("cluster.") or base.startswith("lb.")):
            continue
        last = recs[-1].get("stats", {})
        total = last.get("value", last.get("mean"))
        if total is None:
            continue
        labels = json.loads(labels_json)
        node = labels.pop("node", None)
        context = " ".join(f"{k}={v}" for k, v in sorted(labels.items()))
        key = (context, 0, "fleet") if node is None else (context, 1, node)
        groups.setdefault(key, {})[base] = total
    rows: List[str] = []
    previous = None
    for (context, _order, who) in sorted(groups):
        if context != previous:
            if previous is not None:
                rows.append("")
            if context:
                rows.append(f"[{context}]")
            previous = context
        metrics = groups[(context, _order, who)]
        rows.append(f"{who:<10} " + "  ".join(
            f"{m}={metrics[m]:g}" for m in sorted(metrics)))
    return rows


def render_timeline_report(records: Sequence[dict], top: int = 20,
                           width: int = 60) -> str:
    """Time-resolved text report over one telemetry series stream.

    Three sections: per-metric sparklines of the headline window
    statistic (p99 for tallies, delta for counters, mean for
    utilization signals), SLO status, and the alert timeline.  ``top``
    bounds the sparkline section (series ranked by peak headline
    value); SLO and alert sections are always complete.
    """
    headers = [r for r in records if r.get("kind") == "telemetry.header"]
    samples = [r for r in records if r.get("kind") == "sample"]
    alerts = [r for r in records if r.get("kind") == "alert"]
    slos = [r for r in records if r.get("kind") == "slo"]

    lines: List[str] = []
    lines += _section("telemetry")
    if headers:
        for header in headers:
            labels = header.get("labels") or {}
            label_text = " ".join(
                f"{k}={v}" for k, v in sorted(labels.items()))
            lines.append(
                f"stream interval {header.get('interval', 0) * _MS:g} ms"
                f"  rules {len(header.get('rules', []))}"
                + (f"  [{label_text}]" if label_text else "")
            )
    lines.append(
        f"records: {len(samples)} samples, {len(alerts)} alert "
        f"transitions, {len(slos)} slo summaries"
    )

    series: Dict[Tuple[str, str], List[dict]] = {}
    for record in samples:
        series.setdefault(_series_key(record), []).append(record)

    lines.append("")
    lines += _section(f"series (top {top} by peak, ramp '{_RAMP}')")
    if not series:
        lines.append("(no sample records)")
    ranked: List[Tuple[float, Tuple[str, str], List[Optional[float]],
                       dict]] = []
    for key, recs in series.items():
        recs.sort(key=lambda r: (r.get("window", 0), r.get("t1", 0.0)))
        stat = _HEADLINE_STAT.get(recs[0].get("type", ""), "value")
        values = [r.get("stats", {}).get(stat) for r in recs]
        present = [v for v in values if v is not None]
        if not present:
            continue
        ranked.append((max(present), key, values, recs[0]))
    ranked.sort(key=lambda item: (-item[0], item[1]))
    if ranked:
        t_end = max((r.get("t1", 0.0) for r in samples), default=0.0)
        lines.append(
            f"{'metric':<30} {'stat':<6} {'peak':>12} {'last':>12}  "
            f"windows [0 .. {t_end:.3f}s]"
        )
    for peak, (metric, labels_json), values, first in ranked[:top]:
        stat = _HEADLINE_STAT.get(first.get("type", ""), "value")
        layer = (first.get("labels") or {}).get("layer", "")
        identity = json.loads(labels_json)
        label_text = " ".join(
            f"{k}={v}" for k, v in sorted(identity.items()))
        present = [v for v in values if v is not None]
        lines.append(
            f"{metric:<30} {stat:<6} {peak:>12.6g} {present[-1]:>12.6g}  "
            f"|{sparkline(values, width)}|  [{layer}]"
            + (f" {label_text}" if label_text else "")
        )
    if len(ranked) > top:
        lines.append(f"... {len(ranked) - top} more series")

    cluster_rows = _cluster_rows(series)
    if cluster_rows:
        lines.append("")
        lines += _section("cluster")
        lines += cluster_rows

    lines.append("")
    lines += _section("slo status")
    if not slos:
        lines.append("(no slo rules evaluated)")
    for row in slos:
        worst = row.get("worst")
        lines.append(
            f"{row.get('final_state', '?'):<8} {row.get('rule'):<24} "
            f"[{row.get('slo_kind')}] objective {row.get('objective'):g}  "
            f"breached {row.get('breached', 0)}/{row.get('windows', 0)} "
            f"windows (no-data {row.get('no_data', 0)}), "
            f"fired {row.get('fired', 0)}, resolved {row.get('resolved', 0)}"
            + (f", worst {worst:.6g}" if worst is not None else "")
        )

    lines.append("")
    lines += _section("alert timeline")
    if not alerts:
        lines.append("(no alert transitions)")
    for alert in sorted(alerts, key=lambda a: (a.get("t", 0.0),
                                               a.get("rule", ""))):
        value = alert.get("value")
        if alert.get("state") != "firing":
            compare = "vs"
        elif alert.get("slo_kind") == "availability":
            compare = "<"  # availability degrades downward
        else:
            compare = ">"
        lines.append(
            f"t={alert.get('t', 0.0):>10.4f}s  "
            f"{alert.get('state', '?').upper():<8} "
            f"{alert.get('rule'):<24} [{alert.get('severity')}] "
            f"window {alert.get('window')}: "
            + (f"value {value:.6g} {compare} {alert.get('threshold'):g}"
               if value is not None else "(no data)")
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Baseline snapshots
# ---------------------------------------------------------------------------

BASELINE_SCHEMA = "repro.bench.baseline"
BASELINE_VERSION = 1

#: Input-parameter columns that are never performance metrics.
_NON_METRIC_COLUMNS = {"data_size_bytes", "predicted"}

#: Substrings marking a metric where *larger* is the good direction.
_HIGHER_IS_BETTER = ("speedup", "throughput", "hit_ratio", "hits")


def metric_direction(column: str) -> str:
    """``higher_is_better`` or ``lower_is_better`` for a column name."""
    lowered = column.lower()
    if any(tag in lowered for tag in _HIGHER_IS_BETTER):
        return "higher_is_better"
    return "lower_is_better"


def result_metrics(result: Any) -> Dict[str, Dict[str, Any]]:
    """Key metrics of one :class:`~repro.bench.report.ExperimentResult`.

    Every numeric column except the row key (first column), the
    published ``paper_*`` references, and known input parameters
    becomes one metric: ``{column: {count, mean, min, max, p50, p90,
    p99, direction}}``.  Columns with no numeric cells are skipped.
    """
    out: Dict[str, Dict[str, Any]] = {}
    for idx, column in enumerate(result.columns):
        name = str(column)
        if idx == 0 or name.startswith("paper_") or name in _NON_METRIC_COLUMNS:
            continue
        values = [
            float(row[idx]) for row in result.rows
            if idx < len(row) and isinstance(row[idx], (int, float))
            and not isinstance(row[idx], bool)
        ]
        if not values:
            continue
        pct = percentiles(values)
        out[name] = {
            "count": len(values),
            "mean": sum(values) / len(values),
            "min": min(values),
            "max": max(values),
            **{f"p{q}": pct[q] for q in QUANTILES},
            "direction": metric_direction(name),
        }
    return out


def build_baseline(results: Iterable[Any], label: str = "") -> dict:
    """Versioned, machine-readable snapshot of many experiment results.

    Every field is simulated and deterministic, so two runs of the same
    tree write the same bytes.  Host wall time is recorded only in the
    ``--wallclock-append`` trajectory.
    """
    experiments: Dict[str, dict] = {}
    for result in results:
        metrics = result_metrics(result)
        if not metrics:
            continue
        experiments[result.exp_id] = {
            "title": result.title,
            "metrics": metrics,
        }
    return {
        "schema": BASELINE_SCHEMA,
        "version": BASELINE_VERSION,
        "label": label,
        "experiments": experiments,
    }


def write_baseline(path: str, results: Iterable[Any], label: str = "") -> dict:
    """Build and write a baseline; returns the document."""
    doc = build_baseline(results, label=label)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return doc


def load_baseline(path: str) -> dict:
    """Load and validate a baseline document."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchmarkError(f"{path}: cannot load baseline ({exc})") from None
    if not isinstance(doc, dict) or doc.get("schema") != BASELINE_SCHEMA:
        raise BenchmarkError(f"{path}: not a {BASELINE_SCHEMA} document")
    if doc.get("version") != BASELINE_VERSION:
        raise BenchmarkError(
            f"{path}: baseline version {doc.get('version')!r} unsupported "
            f"(expected {BASELINE_VERSION})"
        )
    if not isinstance(doc.get("experiments"), dict):
        raise BenchmarkError(f"{path}: baseline has no experiments table")
    return doc


# ---------------------------------------------------------------------------
# Exact behaviour gate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GateFinding:
    """One difference between two baselines, named by its JSON path
    (``exp.metrics.metric.stat``).  ``only_in`` is ``"baseline"`` or
    ``"candidate"`` when the path exists on one side only."""

    path: str
    baseline: Any = None
    candidate: Any = None
    only_in: Optional[str] = None

    def render(self) -> str:
        if self.only_in is not None:
            return f"{self.path}: only in {self.only_in}"
        return f"{self.path}: {self.baseline!r} -> {self.candidate!r}"


def _diff(path: str, base: Any, cand: Any, out: List[GateFinding]) -> None:
    if isinstance(base, dict) and isinstance(cand, dict):
        for key in sorted(set(base) | set(cand)):
            sub = f"{path}.{key}" if path else str(key)
            if key not in cand:
                out.append(GateFinding(sub, only_in="baseline"))
            elif key not in base:
                out.append(GateFinding(sub, only_in="candidate"))
            else:
                _diff(sub, base[key], cand[key], out)
    elif json.dumps(base, sort_keys=True) != json.dumps(cand, sort_keys=True):
        # Compared as serialised JSON, so 1 vs 1.0 and NaN are exact too.
        out.append(GateFinding(path, base, cand))


def gate_compare(baseline: dict, candidate: dict) -> List[GateFinding]:
    """Every difference between two baselines' ``experiments`` sections.

    Simulated metrics are deterministic, so the comparison is exact:
    every field of every experiment entry (the title and each metric's
    summary statistics and direction) is compared both ways, and an
    experiment or metric present on one side only is a finding.  An
    empty list means the sections are equal.
    """
    findings: List[GateFinding] = []
    _diff("", baseline["experiments"], candidate["experiments"], findings)
    return findings


def render_gate_report(findings: Sequence[GateFinding]) -> str:
    """One line per difference under a count header."""
    lines = [f"bench gate: {len(findings)} difference(s) from the baseline"]
    lines.extend("  " + finding.render() for finding in findings)
    return "\n".join(lines)
