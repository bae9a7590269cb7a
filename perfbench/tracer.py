"""Host-time tracing of the simulator's layers, from outside the program.

:class:`Tracer` patches the public functions of each ``repro`` layer
(class attributes, so every instance created afterwards goes through
them) with wrappers that

* count calls, for the exact per-layer work counts;
* record one span per call, and for a generator API one span per
  resume (:class:`Resumed`), so host time lands on the layer that
  spent it;
* remember the instances they were called on, so simulated counters
  (cache stats, disk busy time, CIL instructions) can be read after
  the run.

Generators handed to ``Engine.process`` and ``TaskLoop.spawn`` are
wrapped too and attributed to the layer of the module that defines
them, so private per-process work (a disk arm, a program's phase loop)
is not billed to the event kernel that resumes it.

Spans are kept in memory, in flat arrays, and written out once after
the run (:meth:`SpanRecorder.dump`).  Nothing here changes what is
simulated: the wrappers forward arguments, results and exceptions
unchanged.
"""

from __future__ import annotations

import gzip
import json
import time
from array import array
from types import GeneratorType
from typing import Callable, Dict, List, Optional, Sequence

__all__ = [
    "GROUPS",
    "group_of",
    "self_times",
    "SpanRecorder",
    "Resumed",
    "Tracer",
]

#: Span groups, i.e. the layers host time is split over.  ``other`` is
#: the benchmark's own glue and code outside the measured packages.
GROUPS = ("sim", "storage", "io.cache", "io.fs", "io.net", "cli", "traces",
          "webserver", "model", "other")

_MODULE_GROUPS = (
    ("repro.sim", "sim"),
    ("repro.storage", "storage"),
    ("repro.io.net", "io.net"),
    ("repro.io.filesystem", "io.fs"),
    ("repro.io.filestream", "io.fs"),
    ("repro.io.streamwriter", "io.fs"),
    ("repro.io", "io.cache"),
    ("repro.cli", "cli"),
    ("repro.traces", "traces"),
    ("repro.webserver", "webserver"),
    ("repro.model", "model"),
)


def group_of(module: Optional[str]) -> str:
    """The span group of code defined in ``module``."""
    if module:
        for prefix, group in _MODULE_GROUPS:
            if module == prefix or module.startswith(prefix + "."):
                return group
    return "other"


def self_times(parents: Sequence[int], starts: Sequence[float],
               ends: Sequence[float]) -> List[float]:
    """Self time of every span: its duration minus the part of its
    interval that its child spans cover.

    ``parents[i]`` is the index of span ``i``'s parent, or -1.  Children
    may overlap each other or stick out of their parent; only the union
    of their intervals inside the parent is subtracted.
    """
    n = len(parents)
    order = sorted(range(n), key=starts.__getitem__)  # stable: ties by index
    covered = [0.0] * n
    reach = list(starts)  # per parent: end of the union covered so far
    for i in order:
        p = parents[i]
        if p < 0:
            continue
        lo = max(starts[i], reach[p])
        hi = min(ends[i], ends[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return [ends[i] - starts[i] - covered[i] for i in range(n)]


class SpanRecorder:
    """Spans in flat arrays: name id, parent index, start and end in
    ``perf_counter_ns``.  Spans nest strictly (one thread, and every
    span closes in the frame that opened it), so the open spans form a
    stack."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.groups: List[str] = []
        self._ids: Dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        """Drop recorded spans (the open-span stack must be empty)."""
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack: List[int] = []

    def sid(self, name: str, group: str) -> int:
        """The id of span name ``name`` in ``group``."""
        try:
            return self._ids[name]
        except KeyError:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.groups.append(group)
            return self._ids[name]

    def begin(self, sid: int) -> int:
        idx = len(self.name)
        stack = self.stack
        self.name.append(sid)
        self.parent.append(stack[-1] if stack else -1)
        self.start.append(time.perf_counter_ns())
        self.end.append(0)
        stack.append(idx)
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        if self.stack.pop() != idx:
            raise RuntimeError("spans closed out of order")

    def __len__(self) -> int:
        return len(self.name)

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, inclusive ``total_s`` (outermost
        spans of that name only, so recursion is not counted twice) and
        ``self_s``."""
        own = self_times(self.parent, self.start, self.end)
        out: Dict[str, Dict[str, float]] = {}
        name, parent, start, end = self.name, self.parent, self.start, self.end
        for i in range(len(name)):
            row = out.get(self.names[name[i]])
            if row is None:
                row = out[self.names[name[i]]] = {
                    "group": self.groups[name[i]], "calls": 0,
                    "total_s": 0.0, "self_s": 0.0}
            row["calls"] += 1
            row["self_s"] += own[i] * 1e-9
            p = parent[i]
            if p < 0 or name[p] != name[i]:
                row["total_s"] += (end[i] - start[i]) * 1e-9
        return out

    def dump(self, path, **meta) -> None:
        """Write every span once, gzip-compressed JSON, times in ns
        relative to the first span's start."""
        t0 = self.start[0] if len(self.start) else 0
        doc = {
            "format": "perfbench-spans/1",
            "clock": "time.perf_counter_ns",
            "meta": meta,
            "names": self.names,
            "groups": self.groups,
            "spans": {
                "name": self.name.tolist(),
                "parent": self.parent.tolist(),
                "start_ns": [s - t0 for s in self.start],
                "end_ns": [e - t0 for e in self.end],
            },
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))


class Resumed:
    """A generator proxy that records one span per resume.

    ``send``/``throw``/``close``, the return value (``StopIteration``)
    and ``yield from`` delegation behave as on the wrapped generator.
    """

    __slots__ = ("gen", "sid", "rec")

    def __init__(self, gen, sid: int, rec: SpanRecorder) -> None:
        self.gen = gen
        self.sid = sid
        self.rec = rec

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        rec = self.rec
        idx = rec.begin(self.sid)
        try:
            return self.gen.send(value)
        finally:
            rec.finish(idx)

    def throw(self, *exc):
        rec = self.rec
        idx = rec.begin(self.sid)
        try:
            return self.gen.throw(*exc)
        finally:
            rec.finish(idx)

    def close(self):
        return self.gen.close()

    @property
    def __name__(self):
        return self.gen.__name__


class Tracer:
    """Installs the layer wrappers; :meth:`uninstall` restores them.

    ``counts`` holds the call counters, ``instances`` the objects seen
    per kind (``"disk"``, ``"cache"``, ``"interp"``, ``"jit"``).
    """

    def __init__(self) -> None:
        self.rec = SpanRecorder()
        self.counts: Dict[str, int] = {}
        self.instances: Dict[str, Dict[int, object]] = {}
        self._undo: List[tuple] = []
        self._gen_sids: Dict[object, int] = {}

    # -- wrappers ---------------------------------------------------------

    def _capture(self, kind: str, obj) -> None:
        self.instances.setdefault(kind, {})[id(obj)] = obj

    def _process_gen(self, gen):
        """Wrap a process or task generator, attributed by its module."""
        if not isinstance(gen, GeneratorType):
            return gen
        code = gen.gi_code
        sid = self._gen_sids.get(code)
        if sid is None:
            module = gen.gi_frame.f_globals.get("__name__") if gen.gi_frame else None
            group = group_of(module)
            sid = self._gen_sids[code] = self.rec.sid(
                f"{group}:{gen.__qualname__}", group)
        return Resumed(gen, sid, self.rec)

    def _patch(self, owner, attr: str, make: Callable) -> None:
        orig = owner.__dict__[attr]
        if isinstance(orig, property):
            new = property(make(orig.fget))
        else:
            new = make(orig)
        self._undo.append((owner, attr, orig))
        setattr(owner, attr, new)

    def spanned(self, owner, attr: str, group: str,
                counter: Optional[str] = None,
                capture: Optional[str] = None,
                before: Optional[Callable] = None,
                after: Optional[Callable] = None) -> None:
        """Record a span per call of ``owner.attr`` (per resume when it
        returns a generator), optionally counting calls, capturing
        ``self`` and calling ``before(args)`` and ``after(args, result)``
        outside the span."""
        rec = self.rec
        sid = rec.sid(f"{group}:{owner.__name__}.{attr}", group)
        counts = self.counts
        tracer = self
        if counter is not None:
            counts.setdefault(counter, 0)

        def make(fn):
            def wrapper(*args, **kwargs):
                if counter is not None:
                    counts[counter] += 1
                if capture is not None:
                    tracer._capture(capture, args[0])
                if before is not None:
                    before(args)
                idx = rec.begin(sid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    rec.finish(idx)
                if after is not None:
                    after(args, result)
                if type(result) is GeneratorType:
                    return Resumed(result, sid, rec)
                return result
            wrapper.__wrapped__ = fn
            return wrapper

        self._patch(owner, attr, make)

    def counted(self, owner, attr: str, counters: Sequence[str],
                wrap_gen: bool = False,
                after: Optional[Callable] = None) -> None:
        """Count calls of ``owner.attr`` without a span.  With
        ``wrap_gen`` the first argument after ``self`` (a process or task
        generator) is wrapped for per-resume spans."""
        counts = self.counts
        tracer = self
        for name in counters:
            counts.setdefault(name, 0)

        def make(fn):
            def wrapper(self_, *args, **kwargs):
                for name in counters:
                    counts[name] += 1
                if wrap_gen:
                    args = (tracer._process_gen(args[0]),) + args[1:]
                result = fn(self_, *args, **kwargs)
                if after is not None:
                    after((self_,) + args, result)
                return result
            wrapper.__wrapped__ = fn
            return wrapper

        self._patch(owner, attr, make)

    def intrinsic_registry(self, owner, attr: str) -> None:
        """Wrap every class-library intrinsic as it is registered, so
        managed code's calls into a layer are spans of that layer."""
        rec = self.rec

        def make(fn):
            def wrapper(self_, name, impl):
                module = getattr(impl, "__module__", None)
                group = group_of(module)
                sid = rec.sid(f"{group}:intrinsic {name}", group)

                def traced(*args, **kwargs):
                    idx = rec.begin(sid)
                    try:
                        result = impl(*args, **kwargs)
                    finally:
                        rec.finish(idx)
                    if type(result) is GeneratorType:
                        return Resumed(result, sid, rec)
                    return result

                return fn(self_, name, traced)
            wrapper.__wrapped__ = fn
            return wrapper

        self._patch(owner, attr, make)

    # -- the layer map ------------------------------------------------------

    def install(self) -> "Tracer":
        """Patch every layer's public functions (see module docstring)."""
        from repro.cli.interpreter import Interpreter
        from repro.cli.jit import JitCompiler
        from repro.cli.runtime import CliRuntime
        from repro.cli.threads import ManagedThread
        from repro.io.buffercache import BufferCache
        from repro.io.filesystem import FileSystem
        from repro.io.net import Network, Socket, TcpListener
        from repro.model.executor import ApplicationExecutor
        from repro.sim.engine import Engine
        from repro.sim.taskloop import TaskLoop
        from repro.storage.disk import Disk
        from repro.storage.raid import StripedArray
        from repro.traces.replay import TraceReplayer
        from repro.webserver.client import HttpClient
        from repro.webserver.eventloop import EventLoopServer
        from repro.webserver.server import ThreadPerConnectionServer
        from repro.webserver.workload import WorkloadGenerator

        counts = self.counts
        # Counters bumped by the hooks below rather than per call.
        for name in ("storage.members_touched", "io.prefetched_pages",
                     "io.prefetch_useful", "cli.native_invokes",
                     "traces.records"):
            counts[name] = 0

        # sim: event factories are counted, not spanned (one per event).
        for attr in ("timeout", "event", "all_of", "any_of"):
            self.counted(Engine, attr, ("sim.events",))
        self.counted(Engine, "process", ("sim.events", "sim.processes"),
                     wrap_gen=True)
        self.counted(TaskLoop, "spawn", ("sim.taskloop_tasks",),
                     wrap_gen=True)
        self.spanned(Engine, "run", "sim")

        # storage
        def fanout(args, _result):
            array_, lba, nblocks = args[0], args[1], args[2]
            unit = array_.stripe_unit
            units = (lba + nblocks - 1) // unit - lba // unit + 1
            counts["storage.members_touched"] += min(units, len(array_.disks))

        self.spanned(StripedArray, "submit_range", "storage",
                     counter="storage.array_requests", after=fanout)
        self.spanned(StripedArray, "split", "storage")
        self.spanned(Disk, "submit", "storage", counter="storage.disk_requests",
                     capture="disk")
        self.spanned(Disk, "submit_range", "storage")

        # io.  A prefetched page is useful when a later access finds it
        # resident or still in flight, i.e. it was not evicted unread.
        # (CacheStats.prefetch_hits exists but nothing increments it.)
        prefetched = set()

        def note_prefetch(args):
            cache, inode, first, npages = args[:4]
            last = min(first + npages, inode.page_count(cache.params.page_size))
            for page in range(first, last):
                if not (cache.is_resident(inode, page)
                        or cache.is_inflight(inode, page)):
                    prefetched.add((id(cache), inode.file_id, page))

        def count_prefetch(_args, issued):
            counts["io.prefetched_pages"] += issued

        def note_access(args):
            cache, inode, first, npages = args[:4]
            for page in range(first, first + npages):
                key = (id(cache), inode.file_id, page)
                if key in prefetched:
                    prefetched.discard(key)
                    if (cache.is_resident(inode, page)
                            or cache.is_inflight(inode, page)):
                        counts["io.prefetch_useful"] += 1

        self.spanned(BufferCache, "prefetch", "io.cache", before=note_prefetch,
                     after=count_prefetch)
        for attr in ("write_pages", "flush_file", "sync_file",
                     "invalidate_file", "drop_page"):
            self.spanned(BufferCache, attr, "io.cache")
        self.spanned(BufferCache, "access", "io.cache",
                     counter="io.cache_access_calls", capture="cache",
                     before=note_access)
        for attr in ("create", "delete", "open", "close", "read", "write",
                     "seek", "sync", "rename", "truncate"):
            self.spanned(FileSystem, attr, "io.fs", counter="io.fs_ops")
        self.spanned(Network, "connect", "io.net")
        self.spanned(TcpListener, "accept_socket", "io.net")
        self.spanned(Socket, "send", "io.net", counter="io.net_sends")
        self.spanned(Socket, "receive", "io.net")
        self.spanned(Socket, "close", "io.net")

        # cli
        def native_hit(_args, result):
            if result is not None:
                counts["cli.native_invokes"] += 1

        self.spanned(Interpreter, "invoke", "cli", counter="cli.invokes",
                     capture="interp")
        self.counted(JitCompiler, "native_for", (), after=native_hit)
        self.spanned(JitCompiler, "ensure_compiled", "cli", capture="jit")
        self.spanned(CliRuntime, "load_assembly", "cli")
        self.spanned(CliRuntime, "invoke", "cli")
        self.spanned(CliRuntime, "create_thread", "cli", counter="cli.threads")
        self.spanned(ManagedThread, "start", "cli")
        self.spanned(ManagedThread, "join", "cli")
        self.intrinsic_registry(CliRuntime, "register_intrinsic")

        # traces
        def records(args, _result):
            counts["traces.records"] += len(args[2])

        self.spanned(TraceReplayer, "replay", "traces", after=records)

        # webserver: the liveness properties are the thread scan's
        # public face; count and time every read.
        for cls in (ThreadPerConnectionServer, EventLoopServer):
            for attr in ("active_threads", "live_workers", "live_processes"):
                if attr in cls.__dict__:
                    self.spanned(cls, attr, "webserver",
                                 counter="webserver.liveness_calls")
        self.spanned(WorkloadGenerator, "run", "webserver")
        self.spanned(HttpClient, "request", "webserver")

        # model
        self.spanned(ApplicationExecutor, "run", "model",
                     counter="model.executor_runs")
        return self

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()
