"""Analyze traces, render telemetry timelines, gate bench baselines::

    python -m repro.bench tab1 --trace-jsonl tab1.jsonl
    python -m repro.obs report tab1.jsonl            # where did time go?
    python -m repro.obs report tab1.jsonl --format json   # machine-readable

    python -m repro.bench ext_faults --telemetry-out series.jsonl
    python -m repro.obs timeline series.jsonl        # when did it go there?

    python -m repro.bench --baseline-out BENCH_now.json
    python -m repro.obs gate --baseline BENCH_seed.json \
        --candidate BENCH_now.json

Exit codes: ``report`` and ``timeline`` return 0 (2 on unreadable or
invalid input); ``gate`` returns 0 when the two baselines' experiments
are identical, 1 when any field differs or exists on one side only, 2
on unreadable/invalid baselines.

See docs/observability.md ("Analysis & regression gate", "Time series,
SLOs & alerts") for the report sections, the baseline and series
schemas, and worked examples.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.errors import ReproError
from repro.obs.analysis import analyze
from repro.obs.export import read_jsonl, read_series_jsonl
from repro.obs.report import (
    analysis_to_dict,
    gate_compare,
    load_baseline,
    render_gate_report,
    render_timeline_report,
    render_trace_report,
)


def _check_top(top: int) -> int:
    """``--top`` must be positive: a non-positive limit renders
    nothing, which as CLI output is never what anyone wants."""
    if top <= 0:
        print(f"error: --top must be >= 1, got {top}", file=sys.stderr)
        return 2
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    status = _check_top(args.top)
    if status:
        return status
    try:
        events = read_jsonl(args.trace)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    analysis = analyze(events)
    if args.format == "json":
        print(json.dumps(analysis_to_dict(analysis), indent=1,
                         sort_keys=True))
    else:
        print(render_trace_report(analysis, top=args.top))
    return 0


def _cmd_timeline(args: argparse.Namespace) -> int:
    status = _check_top(args.top)
    if status:
        return status
    if args.width < 10:
        print(f"error: --width must be >= 10, got {args.width}",
              file=sys.stderr)
        return 2
    try:
        records = read_series_jsonl(args.series)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_timeline_report(records, top=args.top, width=args.width))
    return 0


def _cmd_gate(args: argparse.Namespace) -> int:
    try:
        baseline = load_baseline(args.baseline)
        candidate = load_baseline(args.candidate)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    findings = gate_compare(baseline, candidate)
    print(render_gate_report(findings))
    return 1 if findings else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="trace analysis reports and the bench regression gate",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser(
        "report", help="render the analysis report for a JSONL trace"
    )
    report.add_argument("trace", help="trace file from --trace-jsonl")
    report.add_argument("--top", type=int, default=20,
                        help="rows per table section (default 20)")
    report.add_argument("--format", choices=("text", "json"),
                        default="text",
                        help="text report or the full analysis rollup "
                        "as JSON (default text)")
    report.set_defaults(fn=_cmd_report)

    timeline = sub.add_parser(
        "timeline",
        help="render the time-resolved report for a telemetry series",
    )
    timeline.add_argument("series",
                          help="series file from --telemetry-out")
    timeline.add_argument("--top", type=int, default=20,
                          help="series rows shown (default 20)")
    timeline.add_argument("--width", type=int, default=60,
                          help="sparkline width in characters "
                          "(default 60)")
    timeline.set_defaults(fn=_cmd_timeline)

    gate = sub.add_parser(
        "gate", help="compare two bench baselines exactly; nonzero on "
        "any difference"
    )
    gate.add_argument("--baseline", required=True,
                      help="reference snapshot (e.g. BENCH_seed.json)")
    gate.add_argument("--candidate", required=True,
                      help="snapshot from the current tree")
    gate.set_defaults(fn=_cmd_gate)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
