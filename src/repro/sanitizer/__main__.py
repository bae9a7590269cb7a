"""Command-line entry points for the concurrency sanitizer.

Two subcommands, both deterministic and CI-friendly:

``check <trace.jsonl> [--invariant NAME]... [--format text|json]``
    Run the protocol-invariant machines over an obs JSONL trace.
    Exit 0 when clean, 1 when violations were found, 2 on usage or
    file errors.

``lint [PATH]... [--format text|json]``
    Run the stale-read-across-wait AST lint over files/directories
    (default: ``src/repro``).  Same exit-code contract.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis.staleread import lint_paths
from repro.errors import ReproError
from repro.sanitizer.invariants import INVARIANTS, check_trace_file


def _cmd_check(args: argparse.Namespace) -> int:
    names: Optional[List[str]] = args.invariant or None
    try:
        violations = check_trace_file(args.trace, names)
    except (OSError, ValueError, ReproError) as exc:
        print(f"error: cannot check {args.trace}: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        payload = {
            "trace": args.trace,
            "invariants": names or sorted(INVARIANTS),
            "violations": [v.to_dict() for v in violations],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for violation in violations:
            print(violation)
        checked = ", ".join(names or sorted(INVARIANTS))
        print(f"checked [{checked}]: {len(violations)} violation(s)")
    return 1 if violations else 0


def _cmd_lint(args: argparse.Namespace) -> int:
    paths = [Path(p) for p in (args.paths or ["src/repro"])]
    for path in paths:
        if not path.exists():
            print(f"error: no such path: {path}", file=sys.stderr)
            return 2
    findings = lint_paths(paths)
    if args.format == "json":
        print(json.dumps({"findings": [f.to_dict() for f in findings]},
                         indent=2, sort_keys=True))
    else:
        for finding in findings:
            print(finding)
        print(f"stale-read lint: {len(findings)} finding(s)")
    return 1 if findings else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sanitizer",
        description="Concurrency sanitizer: protocol-invariant checking "
                    "and stale-read linting.")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser(
        "check", help="check protocol invariants over an obs JSONL trace")
    check.add_argument("trace", help="path to a JSONL trace file")
    check.add_argument(
        "--invariant", action="append", metavar="NAME",
        help=f"invariant to check (repeatable; default: all of "
             f"{', '.join(sorted(INVARIANTS))})")
    check.add_argument("--format", choices=("text", "json"), default="text")
    check.set_defaults(func=_cmd_check)

    lint = sub.add_parser(
        "lint", help="run the stale-read-across-wait lint")
    lint.add_argument("paths", nargs="*",
                      help="files or directories (default: src/repro)")
    lint.add_argument("--format", choices=("text", "json"), default="text")
    lint.set_defaults(func=_cmd_lint)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
