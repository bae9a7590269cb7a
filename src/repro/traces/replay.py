"""Trace replay through the CLI virtual machine.

"Our simulator reads each trace file ... and performs the I/O
operations on a local disk" (§3.3).  The replay dispatch loop is a
CIL method body (fetch a record, branch on its op code, call the
class-library intrinsic for that op), so the measured path includes
JIT compilation on first entry and interpreter dispatch per record —
the same structure as a C# replayer on the SSCLI.

Per-record semantics follow §3.3:

* reads and writes are performed at the record's offset;
* "seek operations are performed from the beginning of the file to
  the offset as mentioned in the trace files";
* each open/close/read/write/seek is timed individually.

Replay can be **sequential** (one stream replays all records in trace
order — the paper's configuration) or **concurrent**
(``ReplayConfig(concurrent=True)``: one managed thread per traced
process id, each replaying its own records, contending on the shared
cache and disk — how the multi-process traces such as Pgrep actually
ran).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cli import AssemblyBuilder, CliRuntime, MethodBuilder
from repro.errors import TraceError
from repro.io import CacheParams, FileSystem, FsParams
from repro.io.prefetch import PrefetchPolicy, make_prefetch_policy
from repro.sim import Engine
from repro.storage import Disk, DiskGeometry, DiskParams
from repro.traces.ops import IOOp, TraceHeader, TraceRecord
from repro.traces.timing import OpTimings
from repro.units import GiB, to_ms

__all__ = ["ReplayConfig", "RecordTiming", "ReplayResult", "TraceReplayer"]


@dataclass(frozen=True)
class ReplayConfig:
    """Environment for one replay.

    ``warmup=True`` runs the whole trace once before the measured
    pass, leaving the JIT and buffer cache hot (how steady-state
    tables such as 1–2 read); ``warmup=False`` measures a cold VM and
    cold cache (how the fault-sensitive Tables 3–4 and the web-server
    Table 6 behave).

    ``pace=True`` honours the trace's inter-record wall-clock gaps, so
    asynchronous prefetch has the time window it had in the original
    run.

    ``concurrent=True`` replays each traced process id on its own
    managed thread.

    ``tracer`` (a :class:`repro.obs.Tracer`) turns on unified
    observability for the whole replay stack: the engine, disk,
    cache, file system, JIT and the replayer itself all emit spans
    into it, exportable via :mod:`repro.obs.export`.

    ``fault_plan`` (a :class:`repro.faults.FaultPlan`) injects
    deterministic disk faults during the replay; pair it with
    ``retry`` (a :class:`repro.faults.RetryPolicy`) so reads/writes
    ride out transient faults — the counts land in
    ``ReplayResult.faults_injected`` / ``ReplayResult.retries``.

    ``telemetry`` (a :class:`repro.obs.Telemetry` hub) attaches a
    windowed-metrics sampler to the replay engine for the run's
    duration; ``telemetry_labels`` are stamped on its records, and
    ``telemetry_rules`` / ``telemetry_interval`` override the hub's
    SLO rules and sampling interval for this replay.  Sampling rides
    the engine's background-call channel, so it never perturbs the
    replayed timeline (``ReplayResult`` is byte-identical with or
    without it).
    """

    file_size: int = 1 * GiB
    cache_pages: int = 16384
    prefetch_policy: str = "fixed"
    prefetch_window: int = 8
    warmup: bool = False
    pace: bool = True
    concurrent: bool = False
    scheduler: str = "fcfs"
    # Unified observability sink (repro.obs.Tracer); None = disabled.
    tracer: Optional[object] = None
    # Deterministic fault injection (repro.faults.FaultPlan) and the
    # retry policy (repro.faults.RetryPolicy) replayed reads/writes
    # run under; None disables either side.
    fault_plan: Optional[object] = None
    retry: Optional[object] = None
    # Telemetry hub (repro.obs.Telemetry) and per-replay attachment
    # overrides; None disables sampling.
    telemetry: Optional[object] = None
    telemetry_labels: Tuple[Tuple[str, object], ...] = ()
    telemetry_rules: Optional[Tuple[object, ...]] = None
    telemetry_interval: Optional[float] = None
    fs_params: FsParams = field(default_factory=FsParams)
    disk_params: DiskParams = field(default_factory=DiskParams)
    disk_geometry: DiskGeometry = field(default_factory=DiskGeometry)

    def make_policy(self) -> PrefetchPolicy:
        if self.prefetch_policy == "fixed":
            return make_prefetch_policy("fixed", window=self.prefetch_window)
        return make_prefetch_policy(self.prefetch_policy)


@dataclass(frozen=True)
class RecordTiming:
    """Measured latency of one trace record.

    ``index`` is the record's position in the original trace, so
    results align with the input regardless of replay concurrency.
    """

    index: int
    record: TraceRecord
    seconds: float

    @property
    def ms(self) -> float:
        return to_ms(self.seconds)


@dataclass
class ReplayResult:
    """Everything measured during the replay pass."""

    application: str
    timings: OpTimings
    per_record: List[RecordTiming]
    total_time: float
    cache_hits: int
    cache_misses: int
    jit_methods: int
    instructions: int
    streams: int = 1
    faults_injected: int = 0
    retries: int = 0
    retries_exhausted: int = 0

    def rows_for(self, op: IOOp) -> List[Tuple[int, float]]:
        """(data size, latency ms) rows for one op — the layout of the
        paper's Tables 3 and 4."""
        out = []
        for rt in self.per_record:
            if rt.record.op is op:
                size = rt.record.length if op in (IOOp.READ, IOOp.WRITE) else rt.record.offset
                out.append((size, rt.ms))
        return out


class _ReplayStream:
    """One replay stream: a subsequence of records replayed in order
    by one managed thread."""

    def __init__(self, stream_id: int, indexed_records: List[Tuple[int, TraceRecord]]) -> None:
        self.stream_id = stream_id
        self.indexed_records = indexed_records
        self.cursor = -1
        self.handles: Dict[int, object] = {}
        self._last_wall: Optional[float] = None

    @property
    def current(self) -> Tuple[int, TraceRecord]:
        return self.indexed_records[self.cursor]

    def reset(self) -> None:
        self.cursor = -1
        self._last_wall = None


class _ReplaySession:
    """Shared replay state: file system, measurement sinks, streams."""

    def __init__(
        self,
        engine: Engine,
        fs: FileSystem,
        sample_path: str,
        streams: List[_ReplayStream],
        pace: bool,
        retrier=None,
    ) -> None:
        self.engine = engine
        self.fs = fs
        self.sample_path = sample_path
        self.streams = {s.stream_id: s for s in streams}
        self.pace = pace
        self.retrier = retrier
        self.timings = OpTimings()
        self.per_record: List[RecordTiming] = []
        self.measuring = True
        # Bound methods hoisted for the per-record dispatch path.
        self._timeout = engine.timeout

    def reset_for_measurement(self) -> None:
        for stream in self.streams.values():
            stream.reset()
        self.timings = OpTimings()
        self.per_record = []
        self.measuring = True

    def _stream(self, sid: int) -> _ReplayStream:
        try:
            return self.streams[sid]
        except KeyError:
            raise TraceError(f"unknown replay stream {sid}") from None

    # -- intrinsics (all take the stream id) --------------------------------

    def fetch(self, sid: int):
        """Advance the stream; returns the next record's op code or -1."""
        stream = self._stream(sid)
        records = stream.indexed_records
        cursor = stream.cursor = stream.cursor + 1
        timeout = self._timeout
        if cursor >= len(records):
            yield timeout(0.0)
            return -1
        _index, record = records[cursor]
        if self.pace and stream._last_wall is not None:
            gap = record.wall_clock - stream._last_wall
            yield timeout(gap if gap > 0 else 0.0)
        else:
            yield timeout(0.0)
        stream._last_wall = record.wall_clock
        return int(record.op)

    def _handle_for(self, stream: _ReplayStream, pid: int):
        handle = stream.handles.get(pid)
        if handle is None or not handle.open:
            index, _record = stream.current
            raise TraceError(
                f"record {index}: pid {pid} performs I/O without an open file"
            )
        return handle

    def _finish(self, stream: _ReplayStream, op: IOOp, started: float) -> None:
        elapsed = self.engine.now - started
        index, record = stream.current
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.complete(
                f"replay.{op.name.lower()}", "replay", started,
                tid=stream.stream_id, index=index, pid=record.pid,
                offset=record.offset, length=record.length,
                measured=self.measuring,
            )
        if self.measuring:
            self.timings.record(op, elapsed)
            self.per_record.append(RecordTiming(index, record, elapsed))

    def do_open(self, sid: int):
        stream = self._stream(sid)
        _index, record = stream.current
        t0 = self.engine.now
        handle = yield from self.fs.open(self.sample_path, writable=True)
        stream.handles[record.pid] = handle
        self._finish(stream, IOOp.OPEN, t0)

    def do_close(self, sid: int):
        stream = self._stream(sid)
        _index, record = stream.current
        handle = self._handle_for(stream, record.pid)
        t0 = self.engine.now
        yield from self.fs.close(handle)
        del stream.handles[record.pid]
        self._finish(stream, IOOp.CLOSE, t0)

    def do_read(self, sid: int):
        stream = self._stream(sid)
        _index, record = stream.current
        handle = self._handle_for(stream, record.pid)
        t0 = self.engine.now
        # The explicit-offset read is idempotent, so it can run under a
        # retry policy unchanged: a retried attempt re-reads the same
        # range without moving the handle.
        if self.retrier is not None:
            yield from self.retrier.call(
                lambda: self.fs.read(handle, record.length,
                                     offset=record.offset),
                op="replay.read")
        else:
            yield from self.fs.read(handle, record.length, offset=record.offset)
        self._finish(stream, IOOp.READ, t0)

    def do_write(self, sid: int):
        stream = self._stream(sid)
        _index, record = stream.current
        handle = self._handle_for(stream, record.pid)
        t0 = self.engine.now
        if self.retrier is not None:
            yield from self.retrier.call(
                lambda: self.fs.write(handle, record.length,
                                      offset=record.offset),
                op="replay.write")
        else:
            yield from self.fs.write(handle, record.length, offset=record.offset)
        self._finish(stream, IOOp.WRITE, t0)

    def do_seek(self, sid: int):
        stream = self._stream(sid)
        _index, record = stream.current
        handle = self._handle_for(stream, record.pid)
        t0 = self.engine.now
        yield from self.fs.seek(handle, record.offset)
        self._finish(stream, IOOp.SEEK, t0)


def build_replay_method():
    """The CIL dispatch loop: fetch → branch on op → intrinsic → loop.
    Takes the stream id as its argument."""
    return (
        MethodBuilder("Replay")
        .arg("sid").local("op")
        .label("top")
        .ldarg("sid").call_intrinsic("Trace.Fetch", 1, True)
        .stloc("op")
        .ldloc("op").ldc(0).clt().brtrue("done")       # op < 0 → end of trace
        .ldloc("op").ldc(int(IOOp.OPEN)).ceq().brtrue("op_open")
        .ldloc("op").ldc(int(IOOp.CLOSE)).ceq().brtrue("op_close")
        .ldloc("op").ldc(int(IOOp.READ)).ceq().brtrue("op_read")
        .ldloc("op").ldc(int(IOOp.WRITE)).ceq().brtrue("op_write")
        .ldarg("sid").call_intrinsic("Trace.Seek", 1, False).br("top")
        .label("op_open").ldarg("sid").call_intrinsic("Trace.Open", 1, False).br("top")
        .label("op_close").ldarg("sid").call_intrinsic("Trace.Close", 1, False).br("top")
        .label("op_read").ldarg("sid").call_intrinsic("Trace.Read", 1, False).br("top")
        .label("op_write").ldarg("sid").call_intrinsic("Trace.Write", 1, False).br("top")
        .label("done")
        .ret()
        .build()
    )


class TraceReplayer:
    """Builds a fresh simulated machine + VM and replays one trace."""

    def __init__(self, config: Optional[ReplayConfig] = None) -> None:
        self.config = config or ReplayConfig()

    def _make_streams(self, records: Sequence[TraceRecord]) -> List[_ReplayStream]:
        indexed = list(enumerate(records))
        if not self.config.concurrent:
            return [_ReplayStream(0, indexed)]
        by_pid: Dict[int, List[Tuple[int, TraceRecord]]] = {}
        for index, record in indexed:
            by_pid.setdefault(record.pid, []).append((index, record))
        return [
            _ReplayStream(sid, recs)
            for sid, (_pid, recs) in enumerate(sorted(by_pid.items()))
        ]

    def replay(
        self,
        header: TraceHeader,
        records: Sequence[TraceRecord],
        application: str = "trace",
    ) -> ReplayResult:
        cfg = self.config
        engine = Engine(tracer=cfg.tracer)
        engine.tracer.name_process(f"replay:{application}")
        injector = None
        if cfg.fault_plan is not None:
            from repro.faults import FaultInjector

            injector = FaultInjector(engine, cfg.fault_plan)
        disk = Disk(
            engine,
            geometry=cfg.disk_geometry,
            params=cfg.disk_params,
            scheduler=cfg.scheduler,
            name="local-disk",
            injector=injector,
        )
        fs = FileSystem(
            engine,
            disk,
            params=cfg.fs_params,
            cache_params=CacheParams(capacity_pages=cfg.cache_pages),
            prefetch_policy=cfg.make_policy(),
        )
        runtime = CliRuntime(engine)
        retrier = None
        if cfg.retry is not None:
            from repro.faults import Retrier
            from repro.rng import SeededStreams

            seed = cfg.fault_plan.seed if cfg.fault_plan is not None else 0
            retrier = Retrier(
                engine, cfg.retry, category="replay",
                rng=SeededStreams(seed).get("replay-retry-jitter"),
            )
        streams = self._make_streams(records)
        session = _ReplaySession(
            engine, fs, header.sample_file, streams, pace=cfg.pace,
            retrier=retrier,
        )
        runtime.register_intrinsics(
            {
                "Trace.Fetch": session.fetch,
                "Trace.Open": session.do_open,
                "Trace.Close": session.do_close,
                "Trace.Read": session.do_read,
                "Trace.Write": session.do_write,
                "Trace.Seek": session.do_seek,
            }
        )
        ab = AssemblyBuilder("TraceBenchmark")
        ab.add_method("TraceBench", build_replay_method())
        assembly = ab.build()

        def run_all_streams():
            threads = [
                runtime.create_thread(
                    runtime.find_method("TraceBench::Replay"),
                    [stream.stream_id],
                    name=f"replay-{stream.stream_id}",
                ).start()
                for stream in streams
            ]
            for thread in threads:
                yield from thread.join()

        def main():
            yield from runtime.load_assembly(assembly)
            # Create the sample file the trace operates on (§3.1: "a
            # large file containing 1GB of data").
            yield from fs.create(header.sample_file, size_bytes=cfg.file_size)
            if cfg.warmup:
                session.measuring = False
                yield from run_all_streams()
                session.reset_for_measurement()
            t0 = engine.now
            yield from run_all_streams()
            return engine.now - t0

        sampler = None
        if cfg.telemetry is not None:
            sampler = cfg.telemetry.attach(
                engine,
                rules=cfg.telemetry_rules,
                interval=cfg.telemetry_interval,
                **dict(cfg.telemetry_labels),
            )
        total = engine.run_process(main())
        if sampler is not None:
            sampler.finish()
        session.per_record.sort(key=lambda rt: rt.index)
        return ReplayResult(
            application=application,
            timings=session.timings,
            per_record=session.per_record,
            total_time=total,
            cache_hits=fs.cache.stats.hits,
            cache_misses=fs.cache.stats.misses,
            jit_methods=runtime.jit.methods_compiled.value,
            instructions=runtime.interpreter.instructions_executed.value,
            streams=len(streams),
            faults_injected=injector.injected.value if injector else 0,
            retries=retrier.retries.value if retrier else 0,
            retries_exhausted=retrier.exhausted.value if retrier else 0,
        )
