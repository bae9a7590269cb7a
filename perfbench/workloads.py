"""The four workloads, driven through the public ``repro`` APIs.

Each workload has a ``setup(seed)`` that builds its inputs (the part a
user pays before any simulation runs) and a ``run(inputs)`` that
simulates them and returns an :class:`Outcome`: how many operations
were attempted and how many failed their per-operation check, the
simulated outputs that the run's digest is taken over, and the
simulated-time values the per-layer report shows.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.model import (
    ApplicationExecutor,
    MachineConfig,
    SyntheticAppParams,
    build_qcrd,
    generate_application,
)
from repro.traces import (
    IOOp,
    ReplayConfig,
    TraceReplayer,
    generate_dmine,
    generate_lu,
    generate_titan,
)
from repro.units import MiB
from repro.webserver import HostConfig, WebServerHost
from repro.webserver.server import WebServerConfig
from repro.webserver.workload import WorkloadConfig, WorkloadGenerator

__all__ = ["Outcome", "WORKLOADS", "digest"]


@dataclass
class Outcome:
    attempted: int
    failed: int
    #: Simulated outputs, hashed into the run's digest.
    outputs: list = field(default_factory=list)
    #: Simulated-time per-layer values (``traces.read_ms_p50`` ...).
    sim: Dict[str, float] = field(default_factory=dict)


def digest(outputs) -> str:
    """sha256 over the canonical JSON of the simulated outputs (floats
    in their shortest exact repr)."""
    text = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _pct(values: List[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


# -- qcrd_sweep -------------------------------------------------------------

SWEEP_COUNTS = (2, 4, 8, 16, 32)
#: Two 20-second programs keep the seeded application's share of the
#: work small next to QCRD's, so seeds differ little in host cost.
SYNTHETIC = SyntheticAppParams(programs=(2, 2), total_time=(20.0, 20.0))


def setup_qcrd(seed: int):
    apps = [build_qcrd(), generate_application(params=SYNTHETIC, seed=seed)]
    machines = [replace(MachineConfig(), **{resource: n})
                for resource in ("disks", "cpus") for n in SWEEP_COUNTS]
    return [(app, m) for app in apps for m in machines]


def run_qcrd(runs) -> Outcome:
    attempted = failed = 0
    outputs = []
    makespan = 0.0
    for app, machine in runs:
        result = ApplicationExecutor(app, machine).run()
        makespan += result.makespan
        row = [app.name, machine.disks, machine.cpus, result.makespan]
        for program in app.programs:
            pr = result.programs[program.name]
            attempted += 1
            # A program that did not run every phase, or a nonsense
            # makespan, is a failed operation.
            if (pr.phases_run != len(program.phases())
                    or not 0 < pr.finish_time <= result.makespan
                    or not math.isfinite(result.makespan)):
                failed += 1
            row.append([pr.name, pr.phases_run, pr.finish_time, pr.cpu_busy,
                        pr.io_busy, pr.comm_busy, pr.bytes_read,
                        pr.bytes_sent])
        outputs.append(row)
    return Outcome(attempted, failed, outputs, {"model.makespan_s": makespan})


# -- trace_replay -----------------------------------------------------------


def setup_traces(seed: int):
    return [
        ("dmine", generate_dmine(dataset_size=256 * MiB, passes=2)),
        ("titan", generate_titan(region_size=32 * MiB, num_queries=256,
                                 reads_per_query=16, seed=seed)),
        ("lu", generate_lu(extra_panels=57)),
    ]


def run_traces(traces) -> Outcome:
    attempted = failed = 0
    outputs = []
    reads: List[float] = []
    writes: List[float] = []
    for name, (header, records) in traces:
        result = TraceReplayer(ReplayConfig()).replay(header, records, name)
        attempted += len(records)
        timed = {rt.index: rt.seconds for rt in result.per_record}
        for index in range(len(records)):
            seconds = timed.get(index)
            if seconds is None or not 0 <= seconds < math.inf:
                failed += 1
        for rt in result.per_record:
            if rt.record.op is IOOp.READ:
                reads.append(rt.ms)
            elif rt.record.op is IOOp.WRITE:
                writes.append(rt.ms)
        outputs.append([name, result.total_time, result.cache_hits,
                        result.cache_misses, result.jit_methods,
                        result.instructions,
                        [timed.get(i) for i in range(len(records))]])
    return Outcome(attempted, failed, outputs, {
        "traces.read_ms_p50": _pct(reads, 50),
        "traces.read_ms_p99": _pct(reads, 99),
        "traces.write_ms_p50": _pct(writes, 50),
    })


# -- web workloads ------------------------------------------------------------


def _setup_web(seed: int, architecture: str, **workload):
    host = WebServerHost(HostConfig(architecture=architecture,
                                    server=WebServerConfig(seed=seed)))
    config = WorkloadConfig(get_fraction=0.8, mean_think_time=1e-3,
                            seed=seed, **workload)
    return host, WorkloadGenerator(host, config)


def setup_web_thread(seed: int):
    return _setup_web(seed, "thread", num_clients=16, requests_per_client=200)


def setup_web_eventloop(seed: int):
    return _setup_web(seed, "eventloop", num_clients=16,
                      requests_per_client=250, arrival="open",
                      arrival_rate=20000.0)


def run_web(inputs) -> Outcome:
    host, generator = inputs
    result = generator.run()
    files = host.config.files
    failed = result.aborted
    outputs = []
    for r in result.results:
        # Failures: an error status, or a GET that did not return the
        # file's exact size.  Aborted requests are counted above.
        if r.status >= 400 or (r.method == "GET"
                               and r.body_bytes != files[r.path]):
            failed += 1
        outputs.append([r.method, r.path, r.status, r.body_bytes, r.elapsed])
    server = host.server
    stats = host.fs.cache.stats
    response_ms = [rec.response_ms for rec in server.metrics.requests]
    outputs.append([result.duration, result.aborted, server.metrics.count,
                    server.connections_accepted.value,
                    server.peak_live_processes, stats.hits, stats.misses,
                    host.disk.requests_completed.value,
                    host.runtime.interpreter.instructions_executed.value])
    return Outcome(result.attempted, failed, outputs, {
        "webserver.requests": server.metrics.count,
        "webserver.connections": server.connections_accepted.value,
        "webserver.peak_processes": server.peak_live_processes,
        "webserver.response_ms_p50": _pct(response_ms, 50),
        "webserver.response_ms_p99": _pct(response_ms, 99),
    })


#: name -> (setup, run)
WORKLOADS: Dict[str, Tuple[Callable, Callable]] = {
    "qcrd_sweep": (setup_qcrd, run_qcrd),
    "trace_replay": (setup_traces, run_traces),
    "web_thread_closed": (setup_web_thread, run_web),
    "web_eventloop_open": (setup_web_eventloop, run_web),
}
