"""Time-series telemetry: windowed samples of the live metrics registry.

End-of-run snapshots (``MetricsRegistry.snapshot()``) answer "what did
the run total?"; this module answers "*when* did it happen?".  A
:class:`TelemetrySampler` rides a simulation as a background scraper:
every ``interval`` simulated seconds it walks the engine's registry and
emits one ``sample`` record per metric describing that *window* —
deltas for counters, exact time-weighted window means for utilization
signals, and per-window count/sum/min/max/mean plus histogram-backed
p50/p90/p99 for tallies.  A fault that craters p99 for two simulated
seconds mid-run is a visible dip in the series even when the end-of-run
totals recover.

Determinism is load-bearing.  The sampler schedules its ticks with
:meth:`~repro.sim.engine.Engine.schedule_background`, whose contract
guarantees sampling can neither extend a run past its last foreground
event nor perturb foreground event ordering — so a run with telemetry
produces byte-identical *simulated* results to one without, and two
same-seed telemetry runs produce byte-identical series files
(:func:`write_series_jsonl` sorts keys and rounds floats).

SLO rules (:mod:`repro.obs.slo`) evaluate at each sample boundary;
their alert instants land in the same stream, interleaved at the
window where they fired.

Labels travel with every record: registry labels (``device=``,
``server=``, ``architecture=``), sampler-level labels (``node=`` for
the cluster item), and a derived ``layer`` label from
:func:`~repro.obs.layers.layer_of` so series group the same way trace
analysis does.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, replace
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.errors import SimulationError
from repro.obs.analysis import QUANTILES, percentiles
from repro.obs.layers import layer_of
from repro.obs.slo import AlertRule, SloEvaluator

__all__ = [
    "TelemetryConfig",
    "TelemetrySampler",
    "Telemetry",
]

SERIES_SCHEMA = "repro.obs.timeseries"
SERIES_VERSION = 1

@dataclass(frozen=True)
class TelemetryConfig:
    """Sampling policy for one :class:`TelemetrySampler`.

    ``interval`` is simulated seconds between scrapes (default 100
    simulated ms).  ``metrics`` optionally restricts sampling to
    names matching any of the given prefixes (exact names match too);
    ``None`` samples everything registered.  ``rules`` are evaluated
    at every sample boundary; ``labels`` are stamped on every record.
    """

    interval: float = 0.1
    metrics: Optional[Tuple[str, ...]] = None
    rules: Tuple[AlertRule, ...] = ()
    labels: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise SimulationError(
                f"telemetry interval must be > 0 sim-seconds, "
                f"got {self.interval}"
            )

    def wants(self, name: str) -> bool:
        if self.metrics is None:
            return True
        return any(name == m or name.startswith(m) for m in self.metrics)


class TelemetrySampler:
    """Scrapes one engine's metrics registry on simulated time.

    Construction does not touch the engine; :meth:`start` schedules
    the first background tick (call it before running the workload)
    and :meth:`finish` takes a final partial-window scrape, appends
    the SLO summaries, and hands the records to the owning
    :class:`Telemetry` hub.

    The per-metric cursor state (previous counts, counter values,
    time-weighted integrals) lives here, so windows are deltas —
    each observation is counted in exactly one window.
    """

    def __init__(
        self,
        engine: Any,
        config: Optional[TelemetryConfig] = None,
        hub: Optional["Telemetry"] = None,
        **labels: Any,
    ) -> None:
        self.engine = engine
        self.config = config or TelemetryConfig()
        self.hub = hub
        self.labels: Dict[str, Any] = dict(self.config.labels)
        self.labels.update(labels)
        self.records: List[Dict[str, Any]] = []
        self.evaluator = SloEvaluator(list(self.config.rules))
        self._cursors: Dict[str, Tuple[str, Any]] = {}
        self._window = 0
        self._last_t: Optional[float] = None
        self._started = False
        self._finished = False

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "TelemetrySampler":
        """Record the stream header and schedule the first tick."""
        if self._started:
            raise SimulationError("TelemetrySampler.start() called twice")
        self._started = True
        self._last_t = self.engine.now
        header: Dict[str, Any] = {
            "kind": "telemetry.header",
            "schema": SERIES_SCHEMA,
            "version": SERIES_VERSION,
            "interval": self.config.interval,
            "start": self.engine.now,
        }
        if self.labels:
            header["labels"] = dict(self.labels)
        if self.config.rules:
            header["rules"] = [r.slo.describe() for r in self.config.rules]
        self.records.append(header)
        self.engine.schedule_background(self._tick, self.config.interval)
        return self

    def _tick(self) -> None:
        if self._finished:
            return
        self.sample()
        self.engine.schedule_background(self._tick, self.config.interval)

    def finish(self) -> List[Dict[str, Any]]:
        """Close the stream: final partial window + SLO summaries.

        Returns this sampler's records (also appended to the hub's
        stream when one owns the sampler).  Idempotent.
        """
        if not self._started:
            raise SimulationError("TelemetrySampler.finish() before start()")
        if self._finished:
            return self.records
        self._finished = True
        if self.engine.now > (self._last_t or 0.0):
            self.sample()
        for summary in self.evaluator.summaries():
            self.records.append(self._stamp(summary))
        if self.hub is not None:
            self.hub.records.extend(self.records)
        return self.records

    # -- scraping -----------------------------------------------------------

    def sample(self) -> Dict[str, Dict[str, Any]]:
        """Scrape one window now; returns ``{metric: window_stats}``.

        Called automatically by the background tick; callable directly
        for event-aligned extra windows.  Reads collectors only — a
        scrape never mutates simulation state.
        """
        t0, t1 = self._last_t or 0.0, self.engine.now
        registry = self.engine.metrics
        window_stats: Dict[str, Dict[str, Any]] = {}
        samples: List[Dict[str, Any]] = []
        for name in sorted(registry.names()):
            if not self.config.wants(name):
                continue
            collector = registry.get(name)
            for sub_name, mtype, stats in self._scrape(name, collector, t1):
                if stats is None:
                    continue
                window_stats[sub_name] = stats
                record = {
                    "kind": "sample",
                    "metric": sub_name,
                    "type": mtype,
                    "window": self._window,
                    "t0": t0,
                    "t1": t1,
                    "stats": stats,
                }
                labels = dict(registry.labels_of(name))
                labels.update(self.labels)
                labels["layer"] = layer_of(name, labels=registry.labels_of(name))
                record["labels"] = labels
                samples.append(record)
        self.records.extend(samples)
        alerts = self.evaluator.evaluate(self._window, t1, window_stats)
        tracer = getattr(self.engine, "tracer", None)
        for alert in alerts:
            self.records.append(self._stamp(alert))
            if tracer is not None and tracer.enabled:
                tracer.instant(
                    f"alert.{alert['state']}", "telemetry",
                    rule=alert["rule"], severity=alert["severity"],
                )
        self._window += 1
        self._last_t = t1
        return window_stats

    def _stamp(self, record: Dict[str, Any]) -> Dict[str, Any]:
        if self.labels:
            record = dict(record)
            record["labels"] = dict(self.labels)
        return record

    def _scrape(
        self, name: str, obj: Any, now: float
    ) -> Iterable[Tuple[str, str, Optional[Dict[str, Any]]]]:
        """Window statistics for one collector.

        Yields ``(metric_name, type, stats)`` tuples — one for most
        collectors, one per numeric field for stats dataclasses
        (``cache.stats`` fans out to ``cache.stats.hits``, ...).
        Structural dispatch mirrors the registry's ``snapshot()``.
        """
        # Histogram: windowed bin-count deltas.
        if hasattr(obj, "bin_edges") and hasattr(obj, "counts"):
            prev = self._cursor(name, "histogram", lambda: [0] * obj.bins)
            counts = [int(c) for c in obj.counts]
            delta = [c - p for c, p in zip(counts, prev)]
            self._cursors[name] = ("histogram", counts)
            yield name, "histogram", {"count": int(sum(delta)),
                                      "counts": delta}
            return
        # Tally: slice of observations since the previous scrape.
        if hasattr(obj, "percentile") and hasattr(obj, "count"):
            if hasattr(obj, "values_since"):
                prev = self._cursor(name, "tally", lambda: 0)
                values = obj.values_since(prev)
                self._cursors[name] = ("tally", obj.count)
                yield name, "tally", _tally_window(values)
            else:
                # Quacks like a tally but cannot expose raw values
                # (e.g. unit-view wrappers): deltas of count/total.
                prev_c, prev_t = self._cursor(
                    name, "tally_view", lambda: (0, 0.0))
                count, total = obj.count, float(obj.total)
                self._cursors[name] = ("tally_view", (count, total))
                dc, dt = count - prev_c, total - prev_t
                yield name, "tally", {
                    "count": dc,
                    "sum": dt,
                    "mean": (dt / dc) if dc else None,
                }
            return
        # TimeWeighted: exact window mean from integral differences.
        if hasattr(obj, "current") and callable(getattr(obj, "mean", None)):
            if not hasattr(obj, "integral"):
                yield name, "gauge", _gauge_stats(obj.current)
                return
            prev = self._cursor(name, "time_weighted", lambda: None)
            area = obj.integral(now)
            self._cursors[name] = ("time_weighted", (now, area))
            if prev is None:
                # First window: the signal's own cumulative mean (the
                # collector may predate the sampler, so there is no
                # earlier integral to difference against).
                mean = obj.mean(now)
            else:
                prev_t, prev_area = prev
                span = now - prev_t
                mean = ((area - prev_area) / span) if span > 0 \
                    else obj.current
            yield name, "time_weighted", {
                "mean": mean,
                "value": obj.current,
            }
            return
        # Counter: per-window delta next to the running value.
        if hasattr(obj, "add") and hasattr(obj, "value"):
            prev = self._cursor(name, "counter", lambda: 0)
            value = obj.value
            self._cursors[name] = ("counter", value)
            yield name, "counter", {"delta": value - prev, "value": value}
            return
        # Stats dataclass: one counter-style series per numeric field.
        if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            for f in dataclasses.fields(obj):
                value = getattr(obj, f.name)
                if isinstance(value, bool) or not isinstance(
                        value, (int, float)):
                    continue
                sub = f"{name}.{f.name}"
                prev = self._cursor(sub, "counter", lambda: 0)
                self._cursors[sub] = ("counter", value)
                yield sub, "counter", {"delta": value - prev, "value": value}
            return
        # Gauge: sample the callable now.
        if callable(obj):
            value = obj()
            if isinstance(value, bool) or not isinstance(
                    value, (int, float)):
                yield name, "gauge", None
                return
            yield name, "gauge", _gauge_stats(value)
            return
        yield name, "value", None  # inert registered value: not a series

    def _cursor(self, name: str, mtype: str, default: Any) -> Any:
        state = self._cursors.get(name)
        if state is not None and state[0] == mtype:
            return state[1]
        return default()


def _tally_window(values: List[float]) -> Dict[str, Any]:
    """Window statistics for a slice of tally observations.

    Percentiles go through :func:`repro.obs.analysis.percentiles`,
    i.e. a :class:`~repro.sim.stats.Histogram` over the window — the
    same estimator the bench baselines use.
    """
    out: Dict[str, Any] = {"count": len(values)}
    if not values:
        out.update({"sum": 0.0, "min": None, "max": None, "mean": None})
        out.update({f"p{q}": None for q in QUANTILES})
        return out
    total = float(sum(values))
    out.update({
        "sum": total,
        "min": min(values),
        "max": max(values),
        "mean": total / len(values),
    })
    pct = percentiles(values)
    out.update({f"p{q}": pct[q] for q in QUANTILES})
    return out


def _gauge_stats(value: Union[int, float]) -> Dict[str, Any]:
    return {"value": value}


class Telemetry:
    """Hub collecting telemetry streams across one or more engines.

    The bench runner builds one hub per ``--telemetry-out`` request,
    attaches a sampler to every engine an experiment creates, and
    writes the merged stream once at the end::

        hub = Telemetry(TelemetryConfig(interval=0.1))
        sampler = hub.attach(engine, architecture="threaded")
        ...  # run the workload
        sampler.finish()
        hub.write("series.jsonl")
    """

    def __init__(self, config: Optional[TelemetryConfig] = None) -> None:
        self.config = config or TelemetryConfig()
        self.records: List[Dict[str, Any]] = []
        self._samplers: List[TelemetrySampler] = []

    def attach(
        self,
        engine: Any,
        rules: Optional[Iterable[AlertRule]] = None,
        interval: Optional[float] = None,
        **labels: Any,
    ) -> TelemetrySampler:
        """Start a sampler on ``engine``; returns it (already started).

        ``rules`` / ``interval`` override the hub config for this
        attachment; ``labels`` are stamped on the attachment's records
        on top of the hub labels.
        """
        config = self.config
        overrides: Dict[str, Any] = {}
        if rules is not None:
            overrides["rules"] = tuple(rules)
        if interval is not None:
            overrides["interval"] = interval
        if overrides:
            config = replace(config, **overrides)
        sampler = TelemetrySampler(engine, config, hub=self, **labels)
        self._samplers.append(sampler)
        return sampler.start()

    def finish_all(self) -> None:
        """Finish every attached sampler that is still open."""
        for sampler in self._samplers:
            sampler.finish()

    def write(self, path: str) -> int:
        """Write the merged stream as deterministic JSONL (see
        :func:`repro.obs.export.write_series_jsonl`)."""
        from repro.obs.export import write_series_jsonl

        self.finish_all()
        return write_series_jsonl(path, self.records)
