"""Trace analysis: where did the simulated time go?

PR 1 gave the stack a :class:`~repro.obs.Tracer`; this module is its
consumer.  :func:`analyze` ingests a recorded trace — a live tracer or
the event list :func:`~repro.obs.export.read_jsonl` returns — and a
:class:`TraceAnalysis` derives the structural summaries an I/O
benchmark needs to be trustworthy (distributions and correlations,
not single means):

* **rollup** — per-span-name aggregates with *self* time (duration
  minus child durations) next to *total* time: the flame-graph view
  flattened to a table, with p50/p90/p99 per name;
* **critical path** — the longest root-to-leaf chain of spans, each
  step attributed to an architectural layer (disk / cache /
  filesystem / JIT / webserver), so "what bounded this run?" has a
  one-table answer;
* **counter series** — time-weighted mean/max per sampled series
  (queue depths, cache hit ratio) plus disk-busy fractions derived
  from the union of device span intervals;
* **directly-follows graph** — which I/O operation follows which,
  with counts: the op-flow characterization used for system-call
  traces, applied to our span stream.

Everything here is pure derivation: analysis never mutates the trace
and gives identical results on a live tracer and a reloaded JSONL
dump (``tests/obs/test_analysis.py`` pins the parity).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.errors import SimulationError
from repro.obs.layers import layer_of
from repro.obs.tracer import TraceEvent, Tracer, _collapse

__all__ = ["TraceAnalysis", "PathStep", "analyze", "percentiles"]

#: Default percentiles reported throughout.
QUANTILES: Tuple[int, ...] = (50, 90, 99)

#: Op families tried (in order) when picking spans for the
#: directly-follows graph: the first prefix with >= 2 spans wins.
DFG_PREFIX_CANDIDATES: Tuple[str, ...] = ("replay.", "fs.", "http.", "disk.")


def percentiles(values: Sequence[float], qs: Sequence[int] = QUANTILES,
                bins: int = 128) -> Dict[int, float]:
    """``{q: value}`` for each requested percentile, computed through
    a :class:`repro.sim.stats.Histogram` over ``values``.

    Degenerate inputs (empty, or all samples equal) short-circuit to
    the obvious answers instead of building an unbinnable histogram.
    """
    if not values:
        return {q: 0.0 for q in qs}
    lo, hi = min(values), max(values)
    if hi <= lo:
        return {q: lo for q in qs}
    from repro.sim.stats import Histogram

    hist = Histogram(lo, hi, bins=min(bins, max(1, len(values))))
    for v in values:
        hist.record(v)
    return {q: hist.percentile(q) for q in qs}


@dataclass(frozen=True)
class PathStep:
    """One span on the critical path."""

    name: str
    category: str
    layer: str
    depth: int
    start: float
    duration_s: float
    self_s: float


class TraceAnalysis:
    """Derived views over one recorded trace.

    Construct via :func:`analyze`; all methods are pure queries and
    may be called in any order.  Span identity relies on ``span_id``
    being unique within the trace (which :class:`Tracer` guarantees
    across engine attachments).
    """

    def __init__(self, events: Sequence[TraceEvent]) -> None:
        self.events: List[TraceEvent] = list(events)
        self.spans = [e for e in self.events if e.kind == "span"]
        self.counters = [e for e in self.events if e.kind == "counter"]
        self.instants = [e for e in self.events if e.kind == "instant"]
        self._parent = self._effective_parents()
        self._children: Dict[int, List[TraceEvent]] = {}
        for span in self.spans:
            parent = self._parent.get(span.span_id)
            if parent is not None:
                self._children.setdefault(parent, []).append(span)
        # Self time = duration minus time covered by direct children
        # (clamped: overlapping/async children can exceed the parent).
        self._self_s: Dict[int, float] = {}
        for span in self.spans:
            covered = sum(c.duration for c in self._children.get(span.span_id, ()))
            self._self_s[span.span_id] = max(0.0, span.duration - covered)

    def _effective_parents(self) -> Dict[int, Optional[int]]:
        """Parent span per span: the explicit ``parent_id`` when
        recorded, else inferred from time containment.

        Most library spans are recorded retroactively with
        ``tracer.complete(...)`` and carry no parent link, so the tree
        is rebuilt the way trace viewers do: within each ``(pid,
        tid)`` track a span's parent is the innermost span whose
        interval contains it.  For identical intervals the span
        recorded later is the outer one (retroactive completion
        records inner spans first), hence the ``-span_id`` sort key.
        """
        parents: Dict[int, Optional[int]] = {}
        tracks: Dict[Tuple[int, int], List[TraceEvent]] = {}
        for span in self.spans:
            tracks.setdefault((span.pid, span.tid), []).append(span)
        for track in tracks.values():
            track.sort(key=lambda s: (s.start, -s.end, -s.span_id))
            stack: List[TraceEvent] = []
            for span in track:
                while stack and not (stack[-1].start <= span.start
                                     and span.end <= stack[-1].end):
                    stack.pop()
                if span.parent_id is not None:
                    parents[span.span_id] = span.parent_id
                else:
                    parents[span.span_id] = (stack[-1].span_id
                                             if stack else None)
                stack.append(span)
        return parents

    # -- basics ---------------------------------------------------------------

    @property
    def time_range(self) -> Tuple[float, float]:
        """(earliest start, latest end) over every event; (0, 0) when
        the trace is empty."""
        if not self.events:
            return (0.0, 0.0)
        return (min(e.start for e in self.events),
                max(e.end for e in self.events))

    def self_time(self, span: TraceEvent) -> float:
        """Self time of one span (duration minus direct children)."""
        return self._self_s[span.span_id]

    def children_of(self, span: TraceEvent) -> List[TraceEvent]:
        return list(self._children.get(span.span_id, ()))

    # -- (a) flame-style rollup ----------------------------------------------

    def rollup(self, collapse: bool = True) -> Dict[Tuple[str, str], Dict[str, float]]:
        """Per-(category, name) aggregates with self vs. total time.

        Returns ``{(category, name): {count, total_s, self_s, mean_s,
        max_s, p50_s, p90_s, p99_s}}``.  With ``collapse`` (default)
        per-instance name decorations are merged the same way
        :func:`repro.obs.summarize` does (``worker-17`` → ``worker-*``).
        """
        durations: Dict[Tuple[str, str], List[float]] = {}
        out: Dict[Tuple[str, str], Dict[str, float]] = {}
        for span in self.spans:
            key = (span.category,
                   _collapse(span.name) if collapse else span.name)
            row = out.setdefault(key, {"count": 0, "total_s": 0.0,
                                       "self_s": 0.0, "max_s": 0.0})
            row["count"] += 1
            row["total_s"] += span.duration
            row["self_s"] += self._self_s[span.span_id]
            if span.duration > row["max_s"]:
                row["max_s"] = span.duration
            durations.setdefault(key, []).append(span.duration)
        for key, row in out.items():
            row["mean_s"] = row["total_s"] / row["count"] if row["count"] else 0.0
            pct = percentiles(durations[key])
            for q, value in pct.items():
                row[f"p{q}_s"] = value
        return out

    # -- (b) critical path ----------------------------------------------------

    def critical_path(self) -> List[PathStep]:
        """Longest root-to-leaf chain of spans.

        Starts from the longest root span (no parent) and at each
        level descends into the longest child, producing one
        :class:`PathStep` per level.  Empty trace → empty list.
        """
        roots = [s for s in self.spans if self._parent.get(s.span_id) is None]
        if not roots:
            return []
        path: List[PathStep] = []
        node: Optional[TraceEvent] = max(roots, key=lambda s: (s.duration, -s.span_id))
        depth = 0
        while node is not None:
            path.append(PathStep(
                name=node.name,
                category=node.category,
                layer=layer_of(node.name, node.category),
                depth=depth,
                start=node.start,
                duration_s=node.duration,
                self_s=self._self_s[node.span_id],
            ))
            children = self._children.get(node.span_id)
            node = (max(children, key=lambda s: (s.duration, -s.span_id))
                    if children else None)
            depth += 1
        return path

    def layer_attribution(self) -> Dict[str, float]:
        """Critical-path self-seconds per architectural layer.

        Sums the self time of each step on the critical path, keyed by
        its layer — the direct answer to "which layer bounded this
        run's longest chain?".  (Off-path siblings are excluded, so
        the total can be less than the root span's duration.)
        """
        out: Dict[str, float] = {}
        for step in self.critical_path():
            out[step.layer] = out.get(step.layer, 0.0) + step.self_s
        return out

    # -- (c) counters / utilization -------------------------------------------

    def counter_stats(self) -> Dict[str, Dict[str, float]]:
        """Per-series summary of sampled counters.

        ``{name: {samples, min, max, last, mean}}`` where ``mean`` is
        the *time-weighted* mean (each sample's value held until the
        next sample); a single-sample series reports its own value.
        """
        series: Dict[str, List[Tuple[float, float]]] = {}
        for event in self.counters:
            value = float(event.attrs.get("value", 0.0))
            series.setdefault(event.name, []).append((event.start, value))
        out: Dict[str, Dict[str, float]] = {}
        for name, samples in series.items():
            values = [v for _, v in samples]
            if len(samples) > 1:
                area = sum(v * (samples[i + 1][0] - t)
                           for i, (t, v) in enumerate(samples[:-1]))
                span = samples[-1][0] - samples[0][0]
                mean = area / span if span > 0 else sum(values) / len(values)
            else:
                mean = values[0]
            out[name] = {
                "samples": len(samples),
                "min": min(values),
                "max": max(values),
                "last": values[-1],
                "mean": mean,
            }
        return out

    def disk_busy(self) -> Dict[str, float]:
        """Busy fraction per device: union of ``disk.*`` span
        intervals divided by the whole trace's time range."""
        t0, t1 = self.time_range
        total = t1 - t0
        if total <= 0:
            return {}
        intervals: Dict[str, List[Tuple[float, float]]] = {}
        for span in self.spans:
            if not span.name.startswith("disk."):
                continue
            device = str(span.attrs.get("device", "disk"))
            intervals.setdefault(device, []).append((span.start, span.end))
        out: Dict[str, float] = {}
        for device, ivals in intervals.items():
            busy = 0.0
            cursor = None
            for start, end in sorted(ivals):
                if cursor is None or start > cursor:
                    busy += end - start
                    cursor = end
                elif end > cursor:
                    busy += end - cursor
                    cursor = end
            out[device] = busy / total
        return out

    def utilization(self) -> Dict[str, Any]:
        """One dict of queueing/utilization summaries: per-device busy
        fractions, ``*.queue`` counter mean/max depths, and the last
        ``cache.hit_ratio`` sample (None when the series is absent)."""
        counters = self.counter_stats()
        queues = {name: {"mean_depth": row["mean"], "max_depth": row["max"]}
                  for name, row in counters.items() if name.endswith(".queue")}
        hit_ratio = counters.get("cache.hit_ratio")
        return {
            "disk_busy": self.disk_busy(),
            "queues": queues,
            "cache_hit_ratio": None if hit_ratio is None else hit_ratio["last"],
            "cache_hit_ratio_mean": None if hit_ratio is None else hit_ratio["mean"],
        }

    # -- point events (faults / retries / sheds) -------------------------------

    def instant_summary(self) -> Dict[str, Dict[str, Any]]:
        """Per-name summary of point events, with per-layer attribution.

        ``{name: {count, layers: {layer: count}, attrs: {key:
        {value: count}}}}``.  The fault-injection machinery reports
        everything it does as instants (``fault.injected``,
        ``retry.attempt``, ``server.shed`` ...); the layer of each one
        comes from :func:`layer_of` over its name and category, so a
        media error injected at the disk and a connection drop injected
        at the network land in different rows of the breakdown.  Only
        short string/bool/int attribute values are tallied (``kind``,
        ``target``, ``op`` — not free-form messages).
        """
        out: Dict[str, Dict[str, Any]] = {}
        for event in self.instants:
            name = _collapse(event.name)
            row = out.setdefault(name, {"count": 0, "layers": {}, "attrs": {}})
            row["count"] += 1
            layer = layer_of(event.name, event.category)
            row["layers"][layer] = row["layers"].get(layer, 0) + 1
            for key, value in event.attrs.items():
                if isinstance(value, bool) or isinstance(value, int) \
                        or (isinstance(value, str) and len(value) <= 32):
                    tally = row["attrs"].setdefault(key, {})
                    tally[str(value)] = tally.get(str(value), 0) + 1
        return out

    # -- (d) directly-follows graph -------------------------------------------

    def follows_graph(
        self,
        prefix: Optional[str] = None,
        collapse: bool = True,
    ) -> Dict[Tuple[str, str], int]:
        """Directly-follows counts over I/O operation spans.

        Spans whose name starts with ``prefix`` are ordered by start
        time within each ``(pid, tid)`` track; each consecutive pair
        ``a → b`` increments an edge count.  With ``prefix=None`` the
        first of :data:`DFG_PREFIX_CANDIDATES` matching at least two
        spans is used (replay ops, then filesystem ops, then HTTP,
        then raw device ops).
        """
        if prefix is None:
            for candidate in DFG_PREFIX_CANDIDATES:
                if sum(1 for s in self.spans if s.name.startswith(candidate)) >= 2:
                    prefix = candidate
                    break
            else:
                return {}
        tracks: Dict[Tuple[int, int], List[TraceEvent]] = {}
        for span in self.spans:
            if span.name.startswith(prefix):
                tracks.setdefault((span.pid, span.tid), []).append(span)
        edges: Dict[Tuple[str, str], int] = {}
        for track in tracks.values():
            track.sort(key=lambda s: (s.start, s.span_id))
            for a, b in zip(track, track[1:]):
                key = (_collapse(a.name) if collapse else a.name,
                       _collapse(b.name) if collapse else b.name)
                edges[key] = edges.get(key, 0) + 1
        return edges

    def hot_path(self, edges: Optional[Dict[Tuple[str, str], int]] = None,
                 max_len: int = 8) -> List[str]:
        """Greedy most-frequent walk through the directly-follows
        graph: start at the heaviest edge, keep following the heaviest
        outgoing edge to an unvisited node (bounded by ``max_len``)."""
        if edges is None:
            edges = self.follows_graph()
        if not edges:
            return []
        (first, second), _ = max(edges.items(), key=lambda kv: (kv[1], kv[0]))
        path = [first, second]
        seen = {first, second}
        while len(path) < max_len:
            outgoing = [(count, b) for (a, b), count in edges.items()
                        if a == path[-1] and b not in seen]
            if not outgoing:
                break
            _, nxt = max(outgoing)
            path.append(nxt)
            seen.add(nxt)
        return path


def analyze(source: Union[Tracer, Iterable[TraceEvent]]) -> TraceAnalysis:
    """Build a :class:`TraceAnalysis` from a live tracer or a loaded
    event list (:func:`~repro.obs.export.read_jsonl` output)."""
    if isinstance(source, Tracer):
        events: Sequence[TraceEvent] = source.events
    else:
        events = list(source)
        for event in events:
            if not isinstance(event, TraceEvent):
                raise SimulationError(
                    f"analyze() needs TraceEvents, got {type(event).__name__}"
                )
    return TraceAnalysis(events)
