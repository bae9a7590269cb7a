"""One measured run, in a fresh process.

    python3 perfbench/child.py WORKLOAD SEED {timed,untraced,traced} [SPANS_PATH]

Times the set-up (imports, input generation, host construction) and the
run, and prints one JSON object: ``setup_s``, ``wall_s``,
``peak_rss_mb``, the operation counts and the simulated-output digest.
A timed run adds the host speed its :class:`SpeedProbe` saw; an untraced
run adds the garbage collector's work, measured through ``gc.callbacks``
(the traced run's own allocations would distort it); a traced run adds
the per-layer metrics measured by :mod:`tracer`.
"""

import time

_T0 = time.perf_counter()

import contextlib  # noqa: E402
import gc  # noqa: E402
import heapq  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import GROUPS, Tracer  # noqa: E402
from workloads import WORKLOADS, digest  # noqa: E402


class SpeedProbe:
    """Samples the host's speed while a run executes.

    Other tenants of a shared host slow identical runs by up to 2x, in
    spells of seconds to minutes.  Every ``INTERVAL`` seconds of wall time
    a SIGALRM handler times one fixed slice of pure-Python work: generator
    resumes, heap pushes and pops of tuples and dict stores, then strided
    reads over a 64Ki-element list that does not fit the CPU's private
    caches.  The compute half alone over-corrects and the memory half
    alone under-corrects; together they track the simulator's slowdown.
    The slice's own time is kept out of the run's.
    """

    INTERVAL = 0.1

    def __init__(self) -> None:
        self.samples = []
        self.spent = 0.0
        self._ints = list(range(1000, 1000 + 65536))
        self._cursor = 0

    @staticmethod
    def _proc():
        total = 0
        while True:
            total += yield total & 7

    def _handler(self, signum, frame) -> None:
        t = time.perf_counter()
        gens = [self._proc() for _ in range(16)]
        for g in gens:
            next(g)
        heap, table = [], {}
        for i in range(2400):
            g = gens[i & 15]
            delay = g.send(i)
            heapq.heappush(heap, (delay + i, i, g))
            if len(heap) > 64:
                heapq.heappop(heap)
            table[i & 255] = delay
        ints, j, acc = self._ints, self._cursor, 0
        for _ in range(3000):
            j = (j + 7919) % 65536
            acc += ints[j]
        self._cursor = j
        d = time.perf_counter() - t
        self.samples.append(d)
        self.spent += d

    def __enter__(self) -> "SpeedProbe":
        self._handler(None, None)
        self.spent = 0.0  # that first sample ran before the run started
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    @property
    def slice_s(self) -> float:
        """Median time of the slice: the host's speed during the run."""
        return statistics.median(self.samples)


class GcWatch:
    """Host time and collections per generation, via ``gc.callbacks``."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.collections = [0, 0, 0]
        self._started = 0.0

    def __call__(self, phase, info) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._started
            self.collections[info["generation"]] += 1


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, outcome) -> dict:
    """Per-layer metrics of one traced run (host-side ones that need the
    untraced run are completed by ``run.py``)."""
    counts = tracer.counts
    totals = tracer.rec.totals()
    self_s = dict.fromkeys(GROUPS, 0.0)
    for row in totals.values():
        self_s[row["group"]] += row["self_s"]
    inst = tracer.instances
    disks = list(inst.get("disk", {}).values())
    caches = [c.stats for c in inst.get("cache", {}).values()]
    interps = list(inst.get("interp", {}).values())
    jits = list(inst.get("jit", {}).values())
    busy = sum(d.busy.integral() for d in disks)
    elapsed = sum(d.engine.now for d in disks)
    waits = sum(d.response_times.total - d.service_times.total for d in disks)
    served = sum(d.response_times.count for d in disks)
    hits = sum(c.hits for c in caches)
    accesses = sum(c.accesses for c in caches)
    liveness_s = sum(row["self_s"] for name, row in totals.items()
                     if name.split(".")[-1] in ("active_threads",
                                                "live_workers",
                                                "live_processes"))
    metrics = {
        "sim.events": counts["sim.events"],
        "sim.processes": counts["sim.processes"],
        "sim.taskloop_tasks": counts["sim.taskloop_tasks"],
        "sim.self_s": self_s["sim"],
        "storage.array_requests": counts["storage.array_requests"],
        "storage.disk_requests": counts["storage.disk_requests"],
        # Member requests per array request: every disk request of the
        # qcrd executor comes from an array request.
        "storage.fanout": _ratio(counts["storage.disk_requests"],
                                 counts["storage.array_requests"]),
        "storage.fanout_vs_min": _ratio(counts["storage.disk_requests"],
                                        counts["storage.members_touched"]),
        "storage.split_s": totals.get("storage:StripedArray.split",
                                      {}).get("total_s", 0.0),
        "storage.self_s": self_s["storage"],
        "storage.disk_busy_frac": _ratio(busy, elapsed),
        "storage.queue_wait_ms": _ratio(waits, served) * 1e3,
        "io.cache_hit_ratio": _ratio(hits, accesses),
        "io.prefetch_useful_ratio": _ratio(counts["io.prefetch_useful"],
                                           counts["io.prefetched_pages"]),
        "io.inflight_waits": sum(c.inflight_waits for c in caches),
        "io.writebacks": sum(c.writebacks for c in caches),
        "io.cache_access_calls": counts["io.cache_access_calls"],
        "io.fs_ops": counts["io.fs_ops"],
        "io.net_sends": counts["io.net_sends"],
        "io.cache_self_s": self_s["io.cache"],
        "io.fs_self_s": self_s["io.fs"],
        "io.net_self_s": self_s["io.net"],
        "cli.instructions": sum(i.instructions_executed.value
                                for i in interps),
        "cli.invokes": counts["cli.invokes"],
        "cli.native_ratio": _ratio(counts["cli.native_invokes"],
                                   counts["cli.invokes"]),
        "cli.jit_compiles": sum(j.methods_compiled.value for j in jits),
        "cli.threads": counts["cli.threads"],
        "cli.self_s": self_s["cli"],
        "traces.records": counts["traces.records"],
        "traces.self_s": self_s["traces"],
        "webserver.liveness_calls": counts["webserver.liveness_calls"],
        "webserver.liveness_s": liveness_s,
        "webserver.self_s": self_s["webserver"],
        "model.executor_runs": counts["model.executor_runs"],
        "model.self_s": self_s["model"],
    }
    for name in ("traces.read_ms_p50", "traces.read_ms_p99",
                 "traces.write_ms_p50", "webserver.requests",
                 "webserver.connections", "webserver.peak_processes",
                 "webserver.response_ms_p50", "webserver.response_ms_p99",
                 "model.makespan_s"):
        metrics[name] = outcome.sim.get(name, 0)
    return metrics


def main(argv) -> int:
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    if mode not in ("timed", "untraced", "traced"):
        raise SystemExit(f"unknown mode {mode!r}")
    setup, run = WORKLOADS[workload]
    tracer = Tracer().install() if mode == "traced" else None
    inputs = setup(seed)
    setup_s = time.perf_counter() - _T0

    # Each mode measures one thing and leaves the others undisturbed:
    # "timed" samples host speed, "untraced" watches the collector,
    # "traced" records spans.
    probe = SpeedProbe() if mode == "timed" else contextlib.nullcontext()
    watch = GcWatch() if mode == "untraced" else None
    if tracer is not None:
        tracer.rec.reset()
        for name in tracer.counts:
            tracer.counts[name] = 0
    if watch is not None:
        gc.callbacks.append(watch)
    with probe:
        t1 = time.perf_counter()
        outcome = run(inputs)
        wall_s = time.perf_counter() - t1
    if watch is not None:
        gc.callbacks.remove(watch)

    result = {
        "workload": workload,
        "seed": seed,
        "mode": mode,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "digest": digest(outcome.outputs),
    }
    if mode == "timed":
        result["probe"] = {"slice_s": probe.slice_s, "spent_s": probe.spent,
                           "samples": len(probe.samples)}
    if watch is not None:
        result["gc"] = {"seconds": watch.seconds,
                        "collections": watch.collections}
    if tracer is not None:
        tracer.uninstall()
        result["spans"] = len(tracer.rec)
        result["layers"] = layer_metrics(tracer, outcome)
        if len(argv) > 3:
            tracer.rec.dump(argv[3], workload=workload, seed=seed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
