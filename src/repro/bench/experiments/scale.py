"""The ``ext_scale`` macro experiment: the paper's workloads at 10×+.

The ROADMAP's north star is serving workloads far beyond the paper's
scale; this experiment is the harness's proof (and its wall-clock
canary).  Three phases:

* a Dmine replay over a dataset 10× the ``ext_prefetch``
  configuration, scanned twice — the second pass runs hot and
  exercises the buffer cache's sequential-hit fast path;
* a multi-thousand-request web-server run with concurrent closed-loop
  clients — every request dispatches through the CIL handler methods;
* the ``ext_cil`` microbenchmark kernels at 300×+ their usual
  iteration count — millions of CIL instructions, so wall time here
  is dominated by the execution engine itself and the JIT's
  template-compiled tier carries the run.

Simulated results are deterministic (seeded workload, virtual clock);
the experiment's *wall* time is tracked in the ``--wallclock-append``
trajectory (``BENCH_wallclock.jsonl``).
"""

from __future__ import annotations

from repro.bench.report import ExperimentResult
from repro.traces import IOOp, ReplayConfig, TraceReplayer, generate_dmine
from repro.units import MiB
from repro.webserver import HostConfig, WebServerHost
from repro.webserver.workload import WorkloadConfig, WorkloadGenerator

__all__ = ["run_ext_scale"]

#: Loop kernels from :mod:`repro.cli.microbench` run in phase 3 (the
#: ``call``/``alloc`` kernels are event-bound, not execution-bound, so
#: they stay at ``ext_cil`` scale).
_SCALE_KERNELS = ("arith", "branch")


def run_ext_scale(
    scale: int = 10,
    web_clients: int = 8,
    web_requests: int = 4000,
    kernel_n: int = 100_000,
) -> ExperimentResult:
    """Run the macro phases; rows are one-per-phase summaries."""
    from repro.cli.microbench import run_kernel

    rows = []

    # Phase 1: Dmine replay at ``scale``× the ext_prefetch dataset,
    # two passes so the second runs entirely from cache.
    header, records = generate_dmine(
        dataset_size=scale * 16 * MiB, passes=2, compute_gap=1e-4,
    )
    cfg = ReplayConfig(
        warmup=False, prefetch_policy="adaptive", prefetch_window=32,
        file_size=scale * 64 * MiB,
    )
    replay = TraceReplayer(cfg).replay(header, records, f"dmine-x{scale}")
    rows.append(
        (
            f"dmine_replay_x{scale}",
            len(records),
            replay.instructions,
            round(replay.timings.mean_ms(IOOp.READ), 4),
            round(replay.total_time, 4),
        )
    )

    # Phase 2: closed-loop web serving, thousands of requests across
    # concurrent clients (mostly-GET mix over the paper's image files).
    per_client, remainder = divmod(web_requests, web_clients)
    if remainder:
        raise ValueError(
            f"web_requests ({web_requests}) must divide evenly across "
            f"web_clients ({web_clients})"
        )
    host = WebServerHost(HostConfig())
    workload = WorkloadGenerator(
        host,
        WorkloadConfig(
            num_clients=web_clients,
            requests_per_client=per_client,
            get_fraction=0.9,
            mean_think_time=1e-3,
            seed=11,
        ),
    )
    outcome = workload.run()
    rows.append(
        (
            f"webserver_{web_requests}req",
            outcome.count,
            host.runtime.interpreter.instructions_executed.value,
            round(outcome.mean_latency_ms, 4),
            round(outcome.duration, 4),
        )
    )
    if outcome.error_count:
        raise AssertionError(
            f"ext_scale webserver phase saw {outcome.error_count} errors"
        )

    # Phase 3: the paper's CIL loop kernels at 300×+ the ext_cil
    # iteration count (n=300 there).  Each run_kernel call executes the
    # kernel twice (cold, then warm), so the phase retires millions of
    # CIL instructions — the execution engine IS the workload.
    instructions = 0
    sim_time = 0.0
    warm_times = []
    for kernel in _SCALE_KERNELS:
        result = run_kernel(kernel, n=kernel_n)
        if not result.correct:
            raise AssertionError(
                f"ext_scale kernel {kernel!r} returned {result.result}, "
                f"expected {result.expected}"
            )
        instructions += result.instructions
        sim_time += result.first_call_time + result.warm_call_time
        warm_times.append(result.warm_call_time)
    rows.append(
        (
            f"cil_kernels_n{kernel_n}",
            2 * len(_SCALE_KERNELS),
            instructions,
            round(1e3 * sum(warm_times) / len(warm_times), 4),
            round(sim_time, 4),
        )
    )
    notes = [
        f"Dmine at {scale}x the ext_prefetch dataset: pass 2 runs hot, "
        "so the cache's sequential-hit fast path carries half the records",
        f"{web_requests} requests from {web_clients} concurrent clients all "
        "execute CIL handler methods",
        f"{'/'.join(_SCALE_KERNELS)} kernels at n={kernel_n} retire "
        f"{instructions} CIL instructions — the JIT's compiled tier "
        "dominates the wall-time profile",
        "simulated metrics are deterministic; wall time for this experiment "
        "is tracked in the BENCH_wallclock.jsonl trajectory",
    ]
    return ExperimentResult(
        exp_id="ext_scale",
        title="Extension: macro workloads at 10-300x scale (wall-clock canary)",
        columns=("phase", "operations", "instructions", "mean_latency_ms",
                 "sim_time_s"),
        rows=rows,
        notes=notes,
    )
