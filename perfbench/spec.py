"""What the benchmark measures: workloads, metrics and their predicted links.

``BENCHMARK.json`` at the repository root is the machine-checked copy of
the names, units and directions below (``test_perfbench.py`` keeps the
two in step).  This module additionally records, for every workload, its
load shape, and for every per-layer metric, which end-to-end metric it
is predicted to move and on which workload, so that later changes can cite
both by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

__all__ = [
    "DEFAULT_SEED",
    "Workload",
    "WORKLOADS",
    "EndToEnd",
    "END_TO_END",
    "PerLayer",
    "PER_LAYER",
]

#: Seed whose simulated-output digests are stored in ``expected.json``.
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Load shape: loop type, clients or rate, mix, data size vs cache.
    shape: Dict[str, object]


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "qcrd_sweep",
        "Paper QCRD app plus one seeded synthetic app on ApplicationExecutor, "
        "swept over disks and CPUs in {2,4,8,16,32}: sim kernel and RAID/disk "
        "do the work; io, cli, webserver idle",
        {
            "loop": "batch (no clients)",
            "applications": "QCRD (Eqs. 8-10) + generate_application(seed), "
                            "2 programs, 20 s each",
            "sweep": "disks in {2,4,8,16,32} at 1 CPU, CPUs in {2,4,8,16,32} "
                     "at 1 disk: 20 executor runs",
            "data_vs_cache": "raw striped-array I/O, no buffer cache",
        },
    ),
    Workload(
        "trace_replay",
        "Cold-cache TraceReplayer on one disk: Dmine 256 MiB x2 passes (4x the "
        "64 MiB cache), seeded Titan reads in a 32 MiB region (fits), LU with "
        "63 panels (reads+writes)",
        {
            "loop": "closed, one replay stream per trace, paced by the trace",
            "traces": "dmine 256 MiB x 2 passes of 128 KiB reads; titan "
                      "256 queries x 16 reads of 187681 B in a 32 MiB region "
                      "(seeded); lu 63 panels of 512 KiB, seek+read+seek+write",
            "data_vs_cache": "dmine 4x the 64 MiB cache (spills), titan 0.5x "
                             "(re-reads hit), lu 32 MiB written back on close",
        },
    ),
    Workload(
        "web_thread_closed",
        "Thread-per-connection server, closed loop: 16 clients x 200 requests, "
        "80% GET of the 3 paper images, 20% POST 1-64 KiB, 1 ms think; thread "
        "scan, CIL handlers, fs, net",
        {
            "loop": "closed",
            "clients": 16,
            "requests": 3200,
            "mix": "80% GET of 50607/7501/14063-byte images, 20% POST of "
                   "1024-65536 bytes (seeded), exponential think 1 ms",
            "data_vs_cache": "docroot 70 KiB plus uploads, far below the "
                             "64 MiB cache",
        },
    ),
    Workload(
        "web_eventloop_open",
        "Event-loop server, open Poisson arrivals at 20000/s (server serves "
        "~800/s), 4000 requests, same mix: thousands live at once; TaskLoop, "
        "GC and memory growth",
        {
            "loop": "open (Poisson), latency timed from each arrival's due time",
            "arrival_rate_per_s": 20000,
            "requests": 4000,
            "mix": "80% GET of the 3 paper images, 20% POST of 1024-65536 "
                   "bytes (seeded)",
            "data_vs_cache": "docroot 70 KiB plus uploads, far below the "
                             "64 MiB cache",
        },
    ),
)


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which the metric may worsen.
    bound: float


#: Host-side costs a user of ``python -m repro...`` pays on every call.
#: ``error_rate`` (failed / attempted operations) is printed beside them
#: and carried in the result's ``attempted``/``failed`` fields; it is 0
#: on a healthy tree, so it cannot be a median-compared metric.
END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd("wall_s", "s", "lower", 0.25),
    EndToEnd("setup_s", "s", "lower", 0.25),
    EndToEnd("peak_rss_mb", "MiB", "lower", 0.2),
)


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    #: "count": exact work count; "sim": simulated-time value; both must
    #: repeat exactly.  "host": host-time measurement, noisy.
    kind: str
    #: End-to-end metric the layer metric is predicted to move.
    moves: str
    #: Workloads on which it should move (the others predict no change).
    on: Tuple[str, ...]


_ALL = ("qcrd_sweep", "trace_replay", "web_thread_closed", "web_eventloop_open")
_WEB = ("web_thread_closed", "web_eventloop_open")

PER_LAYER: Tuple[PerLayer, ...] = (
    # sim: the event kernel.
    PerLayer("sim.events", "count", "lower", "count", "wall_s", _ALL),
    PerLayer("sim.processes", "count", "lower", "count", "wall_s", _ALL),
    PerLayer("sim.taskloop_tasks", "count", "lower", "count", "wall_s",
             ("web_eventloop_open",)),
    PerLayer("sim.us_per_event", "us", "lower", "host", "wall_s", _ALL),
    PerLayer("sim.self_s", "s", "lower", "host", "wall_s", ("qcrd_sweep",)),
    # storage: disks and the striped array.
    PerLayer("storage.array_requests", "count", "lower", "count", "wall_s",
             ("qcrd_sweep",)),
    PerLayer("storage.disk_requests", "count", "lower", "count", "wall_s",
             ("qcrd_sweep",)),
    PerLayer("storage.fanout", "ratio", "lower", "count", "wall_s",
             ("qcrd_sweep",)),
    PerLayer("storage.fanout_vs_min", "ratio", "lower", "count", "wall_s",
             ("qcrd_sweep",)),
    PerLayer("storage.split_s", "s", "lower", "host", "wall_s",
             ("qcrd_sweep",)),
    PerLayer("storage.self_s", "s", "lower", "host", "wall_s",
             ("qcrd_sweep",)),
    PerLayer("storage.disk_busy_frac", "ratio", "higher", "sim", "wall_s", ()),
    PerLayer("storage.queue_wait_ms", "ms", "lower", "sim", "wall_s", ()),
    # io: buffer cache, file system, network.
    PerLayer("io.cache_hit_ratio", "ratio", "higher", "count", "wall_s",
             ("trace_replay",)),
    PerLayer("io.prefetch_useful_ratio", "ratio", "higher", "count", "wall_s",
             ("trace_replay",)),
    PerLayer("io.inflight_waits", "count", "lower", "count", "wall_s",
             ("trace_replay",)),
    PerLayer("io.writebacks", "count", "lower", "count", "wall_s",
             ("trace_replay",)),
    PerLayer("io.cache_access_calls", "count", "lower", "count", "wall_s",
             ("trace_replay",)),
    PerLayer("io.fs_ops", "count", "lower", "count", "wall_s",
             ("trace_replay",) + _WEB),
    PerLayer("io.net_sends", "count", "lower", "count", "wall_s", _WEB),
    PerLayer("io.cache_self_s", "s", "lower", "host", "wall_s",
             ("trace_replay",)),
    PerLayer("io.fs_self_s", "s", "lower", "host", "wall_s",
             ("trace_replay",)),
    PerLayer("io.net_self_s", "s", "lower", "host", "wall_s", _WEB),
    # cli: interpreter, JIT, managed threads.
    PerLayer("cli.instructions", "count", "lower", "count", "wall_s",
             ("web_thread_closed", "trace_replay")),
    PerLayer("cli.invokes", "count", "lower", "count", "wall_s",
             ("web_thread_closed", "trace_replay")),
    PerLayer("cli.native_ratio", "ratio", "higher", "count", "wall_s",
             ("web_thread_closed", "trace_replay")),
    PerLayer("cli.jit_compiles", "count", "lower", "count", "wall_s",
             ("web_thread_closed", "trace_replay")),
    PerLayer("cli.threads", "count", "lower", "count", "wall_s",
             ("web_thread_closed",)),
    PerLayer("cli.self_s", "s", "lower", "host", "wall_s",
             ("web_thread_closed", "trace_replay")),
    # traces: the replayer and its class-library intrinsics.
    PerLayer("traces.records", "count", "lower", "count", "wall_s",
             ("trace_replay",)),
    PerLayer("traces.self_s", "s", "lower", "host", "wall_s",
             ("trace_replay",)),
    PerLayer("traces.read_ms_p50", "ms", "lower", "sim", "wall_s", ()),
    PerLayer("traces.read_ms_p99", "ms", "lower", "sim", "wall_s", ()),
    PerLayer("traces.write_ms_p50", "ms", "lower", "sim", "wall_s", ()),
    # webserver: both server architectures and the client workload.
    PerLayer("webserver.requests", "count", "higher", "count", "wall_s", _WEB),
    PerLayer("webserver.connections", "count", "higher", "count", "wall_s",
             _WEB),
    PerLayer("webserver.peak_processes", "count", "lower", "count",
             "peak_rss_mb", _WEB),
    PerLayer("webserver.liveness_calls", "count", "lower", "count", "wall_s",
             ("web_thread_closed",)),
    PerLayer("webserver.liveness_s", "s", "lower", "host", "wall_s",
             ("web_thread_closed",)),
    PerLayer("webserver.response_ms_p50", "ms", "lower", "sim", "wall_s", ()),
    PerLayer("webserver.response_ms_p99", "ms", "lower", "sim", "wall_s", ()),
    PerLayer("webserver.self_s", "s", "lower", "host", "wall_s", _WEB),
    # model: the application executor.
    PerLayer("model.executor_runs", "count", "lower", "count", "wall_s",
             ("qcrd_sweep",)),
    PerLayer("model.makespan_s", "s", "lower", "sim", "wall_s", ()),
    PerLayer("model.self_s", "s", "lower", "host", "wall_s",
             ("qcrd_sweep",)),
    # host: the Python process around the simulator.
    PerLayer("host.gc_s", "s", "lower", "host", "wall_s",
             ("web_eventloop_open",)),
    PerLayer("host.gc_gen0", "count", "lower", "count", "wall_s",
             ("web_eventloop_open",)),
    PerLayer("host.gc_gen2", "count", "lower", "count", "peak_rss_mb",
             ("web_eventloop_open",)),
    PerLayer("host.trace_overhead", "ratio", "lower", "host", "wall_s", ()),
)
