"""The repository benchmark: four workloads, host-time metrics, a traced run.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

``NAME`` is one of the workloads in :mod:`spec`, or ``all`` to run each in
turn.  Every measured run is a fresh ``python3 perfbench/child.py``
process, one at a time, because users pay imports and warm-up on every
call of the simulator.

``--trace 0`` makes as many timed runs as fit in ``--seconds`` (at least
one) and reports the medians of ``wall_s``, ``setup_s`` and
``peak_rss_mb``; ``wall_s`` and ``setup_s`` are scaled to the reference
host speed that a timed run's speed probe measures (see ``README.md``).  ``--trace 1``
makes two untraced and two traced runs and reports the per-layer metrics
of the first traced run; its spans are written once, at the end, next to
the result.

Every run's simulated outputs are hashed.  All runs of one invocation
must agree, the traced digest must equal the untraced one, and at the
default seed the digest must equal the one stored in ``expected.json``;
otherwise every operation counts as failed and the exit code is 1.  A
traced invocation also fails when an exact count differs between its
two traced runs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A result file,
a manifest and the spans go to ``perfbench/out/<workload>/``.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spec import DEFAULT_SEED, END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

#: Every invocation ends inside 180 s; a run that would not is not started.
BUDGET_S = 170.0
#: Time of the speed probe's work slice at the reference host speed (a
#: quiet 2-vCPU Xeon VM, Python 3.11); ``wall_s`` is scaled to it.
REFERENCE_SLICE_S = 2.0e-3
#: End-to-end metrics reported at the reference host speed.
SCALED = ("wall_s", "setup_s")
EXPECTED = HERE / "expected.json"


class BenchError(Exception):
    """The benchmark could not measure (as opposed to measuring a
    wrong result)."""


def child(workload: str, seed: int, mode: str, deadline: float,
          spans: Path | None = None) -> dict:
    """One measured run in a fresh process; returns its JSON report."""
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed), mode]
    if spans is not None:
        cmd.append(str(spans))
    # One thread: numpy's BLAS would otherwise start a pool at import.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time budget spent before the run could start")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} {mode} run exceeded the time budget") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} {mode} run failed:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def source_digest() -> str:
    """sha256 over the simulator's and the benchmark's sources, which
    identifies the measured code where no git metadata exists."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")) + sorted(
            HERE.glob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def manifest(args, workload: str, runs: int) -> dict:
    return {
        "workload": workload,
        "seed": args.seed,
        "trace": args.trace,
        "run_seconds": args.seconds,
        "runs": runs,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "finished_utc": datetime.datetime.now(datetime.timezone.utc)
                        .isoformat(timespec="seconds"),
    }


def check_digests(workload: str, seed: int, runs) -> str | None:
    """Why the runs' simulated outputs are wrong, or None."""
    digests = sorted({r["digest"] for r in runs})
    if len(digests) != 1:
        return f"runs disagree on the simulated-output digest: {digests}"
    if seed == DEFAULT_SEED:
        expected = json.loads(EXPECTED.read_text()).get(workload)
        if expected is None:
            return f"no expected digest for {workload} in {EXPECTED.name}"
        if digests[0] != expected:
            return (f"digest {digests[0]} differs from the expected "
                    f"{expected} for seed {seed}")
    return None


def repeat_errors(traced, untraced) -> list:
    """Exact counts and simulated values that differ between the two
    traced runs, and GC counts that differ between the untraced runs."""
    exact = [m.name for m in PER_LAYER
             if m.kind != "host" and not m.name.startswith("host.")]
    errors = [f"{name}: {traced[0]['layers'][name]} != "
              f"{traced[1]['layers'][name]}"
              for name in exact
              if traced[0]["layers"][name] != traced[1]["layers"][name]]
    first, second = (r["gc"]["collections"] for r in untraced)
    if first != second:
        errors.append(f"gc collections: {first} != {second}")
    return errors


def scaled(run: dict, metric: str) -> float:
    """A timed run's ``wall_s`` (without the probe's own time) or
    ``setup_s``, scaled to the reference host speed."""
    probe = run["probe"]
    seconds = run[metric]
    if metric == "wall_s":
        seconds -= probe["spent_s"]
    return seconds * REFERENCE_SLICE_S / probe["slice_s"]


def measure_timed(args, workload: str, deadline: float):
    runs = []
    started = time.monotonic()
    longest = 0.0
    # Start another run only if it should end inside the window.
    while not runs or (time.monotonic() - started + longest <= args.seconds
                       and time.monotonic() + 2 * longest < deadline):
        t = time.monotonic()
        runs.append(child(workload, args.seed, "timed", deadline))
        longest = max(longest, time.monotonic() - t)
    metrics = {m.name: statistics.median(r[m.name] for r in runs)
               for m in END_TO_END}
    for name in SCALED:
        metrics[name] = statistics.median(scaled(r, name) for r in runs)
    return runs, metrics, []


def measure_traced(args, workload: str, deadline: float, spans: Path):
    untraced = [child(workload, args.seed, "untraced", deadline)
                for _ in range(2)]
    traced = [child(workload, args.seed, "traced", deadline, spans),
              child(workload, args.seed, "traced", deadline)]
    untraced_wall = statistics.median(r["wall_s"] for r in untraced)
    layers = dict(traced[0]["layers"])
    layers["sim.us_per_event"] = (untraced_wall / layers["sim.events"] * 1e6
                                  if layers["sim.events"] else 0.0)
    layers["host.gc_s"] = statistics.median(r["gc"]["seconds"]
                                            for r in untraced)
    layers["host.gc_gen0"] = untraced[0]["gc"]["collections"][0]
    layers["host.gc_gen2"] = untraced[0]["gc"]["collections"][2]
    layers["host.trace_overhead"] = traced[0]["wall_s"] / untraced_wall
    metrics = {m.name: layers[m.name] for m in PER_LAYER}
    return untraced + traced, metrics, repeat_errors(traced, untraced)


def run_workload(args, workload: str) -> bool:
    deadline = time.monotonic() + BUDGET_S
    out = HERE / "out" / workload
    out.mkdir(parents=True, exist_ok=True)
    stem = out / f"seed{args.seed}-trace{args.trace}"
    if args.trace:
        runs, metrics, errors = measure_traced(
            args, workload, deadline, out / f"seed{args.seed}-spans.json.gz")
    else:
        runs, metrics, errors = measure_timed(args, workload, deadline)

    wrong = check_digests(workload, args.seed, runs)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    if wrong:
        errors.insert(0, wrong)
        failed = attempted
    correct = failed == 0 and not errors
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {m.name: {"value": metrics[m.name], "unit": m.unit}
                          for m in (PER_LAYER if args.trace else END_TO_END)}}

    stem.with_suffix(".manifest.json").write_text(
        json.dumps(manifest(args, workload, len(runs)), indent=2) + "\n")
    stem.with_suffix(".result.json").write_text(
        json.dumps({"result": result, "errors": errors, "runs": runs},
                   indent=2) + "\n")

    print(f"{workload}: seed {args.seed}, {len(runs)} fresh-process runs, "
          f"digest {runs[0]['digest'][:16]}")
    if not args.trace:
        for m in END_TO_END:
            values = [scaled(r, m.name) if m.name in SCALED else r[m.name]
                      for r in runs]
            q1, _, q3 = quartiles(values)
            print(f"  {m.name:<12} {metrics[m.name]:10.4f} {m.unit:<3} "
                  f"(runs: q1 {q1:.4f}, q3 {q3:.4f})")
        raw = [statistics.median(r[name] for r in runs) for name in SCALED]
        speed = statistics.median(REFERENCE_SLICE_S / r["probe"]["slice_s"]
                                  for r in runs)
        print(f"  {'':<12} unscaled wall {raw[0]:.4f} s, setup {raw[1]:.4f} s; "
              f"host speed {speed:.3f}x the reference")
    else:
        for m in PER_LAYER:
            print(f"  {m.name:<27} {metrics[m.name]:>16.6g} {m.unit}")
    print(f"  {'error_rate':<12} {failed / attempted:10.4f}     "
          f"({failed} failed / {attempted} attempted)")
    for error in errors:
        print(f"  ERROR: {error}")
    print(json.dumps(result))
    return correct


def parse_args(argv):
    names = [w.name for w in WORKLOADS]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="window the timed runs must fit in (default 25)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    args.workloads = names if args.workload == "all" else [args.workload]
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    import compileall

    # Bytecode is compiled once per checkout, not on each measured run.
    compileall.compile_dir(ROOT / "src", quiet=1)
    ok = True
    for workload in args.workloads:
        try:
            ok = run_workload(args, workload) and ok
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
