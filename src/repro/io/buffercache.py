"""Page-granular buffer cache over a block device.

The cache holds *metadata only* (which pages are resident and whether
they are dirty) — no payload bytes, since the simulation tracks sizes,
not contents.  Pages are keyed ``(file_id, page_index)``, evicted LRU,
and fetched from the device in contiguous batched runs.

Concurrency: a page being fetched is *in flight*; concurrent demanders
wait on the same completion event instead of duplicating device
traffic.  Dirty pages evicted or flushed are written back by an
asynchronous writer process, so only the *issue* cost lands on the
caller — mirroring OS write-behind, and producing the paper's
"close is slower than open, but not disk-slow" measurements.
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.errors import StorageError
from repro.sanitizer import runtime as _sanitizer
from repro.sanitizer.race import shared
from repro.sim import Engine
from repro.sim.event import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.io.filesystem import Inode

__all__ = ["CacheParams", "CacheStats", "BufferCache", "PageState"]


class PageState(enum.Enum):
    CLEAN = "clean"
    DIRTY = "dirty"


@dataclass(frozen=True)
class CacheParams:
    """Sizing and cost parameters.

    ``capacity_pages`` defaults to 16384 × 4 KiB = 64 MiB, a plausible
    page-cache share on the paper's 2004 test machine.
    ``page_touch_cost`` is the software cost of delivering one cached
    page to the caller (lookup + copy bookkeeping).
    ``writeback_issue_cost`` is the per-page cost of queueing an
    asynchronous write-back (charged to flushers/evicters).
    """

    page_size: int = 4096
    capacity_pages: int = 16384
    page_touch_cost: float = 60e-9
    writeback_issue_cost: float = 30e-9
    eviction: str = "lru"

    def __post_init__(self) -> None:
        if self.page_size < 1:
            raise StorageError(f"page_size must be >= 1, got {self.page_size}")
        if self.capacity_pages < 1:
            raise StorageError(f"capacity_pages must be >= 1, got {self.capacity_pages}")
        if self.page_touch_cost < 0 or self.writeback_issue_cost < 0:
            raise StorageError("per-page costs must be >= 0")
        from repro.io.eviction import EVICTION_POLICIES

        if self.eviction not in EVICTION_POLICIES:
            raise StorageError(
                f"unknown eviction policy {self.eviction!r}; "
                f"choices: {sorted(EVICTION_POLICIES)}"
            )


@dataclass
class CacheStats:
    """Running counters; read them after an experiment."""

    hits: int = 0
    misses: int = 0
    inflight_waits: int = 0
    prefetches_issued: int = 0
    prefetch_hits: int = 0
    evictions: int = 0
    writebacks: int = 0
    fetch_failures: int = 0
    writeback_failures: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses + self.inflight_waits

    @property
    def hit_ratio(self) -> float:
        total = self.accesses
        return self.hits / total if total else 0.0


class BufferCache:
    """LRU page cache bound to one block device.

    The device must expose ``block_size`` and
    ``submit_range(lba, nblocks, is_write) -> Event``
    (both :class:`~repro.storage.disk.Disk` and
    :class:`~repro.storage.raid.StripedArray` qualify).
    """

    def __init__(
        self,
        engine: Engine,
        device,
        params: Optional[CacheParams] = None,
    ) -> None:
        self.engine = engine
        self.device = device
        self.params = params or CacheParams()
        if self.params.page_size % device.block_size != 0:
            raise StorageError(
                f"page size {self.params.page_size} not a multiple of "
                f"device block size {device.block_size}"
            )
        self.blocks_per_page = self.params.page_size // device.block_size
        from repro.io.eviction import make_eviction_policy

        self._pages: Dict[Tuple[int, int], PageState] = {}
        # Per-file indexes kept in lockstep with ``_pages`` so close
        # paths (flush/sync/invalidate) are O(pages of that file), not
        # O(all resident pages) — file closes are on the macro
        # experiments' hot path.
        self._file_pages: Dict[int, set] = {}
        self._dirty_by_file: Dict[int, set] = {}
        self._policy = make_eviction_policy(self.params.eviction)
        self._inflight: Dict[Tuple[int, int], Event] = {}
        # Sanitizer annotation for the page map.  Internal operations
        # access it relaxed: the cache's contract is that the map may
        # change across any wait and every consumer must re-validate
        # residency after resuming (the stale-read lint enforces that
        # discipline; the ``access()`` hit path re-checks explicitly).
        # Public introspection reads are strict, so outside code that
        # *mutates* cache state in a race with the engine shows up.
        self._san_pages = shared("cache.pages")
        self.stats = CacheStats()
        engine.metrics.register("cache.stats", self.stats)
        engine.metrics.gauge("cache.resident_pages", lambda: len(self._pages))

    # -- queries ---------------------------------------------------------

    @property
    def resident_pages(self) -> int:
        if _sanitizer.active is not None:
            self._san_pages.read(self.engine, op="resident_pages")
        return len(self._pages)

    def is_resident(self, inode: "Inode", page: int) -> bool:
        if _sanitizer.active is not None:
            self._san_pages.read(self.engine, op="is_resident")
        return (inode.file_id, page) in self._pages

    def is_dirty(self, inode: "Inode", page: int) -> bool:
        if _sanitizer.active is not None:
            self._san_pages.read(self.engine, op="is_dirty")
        return self._pages.get((inode.file_id, page)) is PageState.DIRTY

    def is_inflight(self, inode: "Inode", page: int) -> bool:
        return (inode.file_id, page) in self._inflight

    def dirty_pages_of(self, inode: "Inode") -> List[int]:
        return list(self._dirty_by_file.get(inode.file_id, ()))

    def resident_pages_of(self, inode: "Inode") -> List[int]:
        return list(self._file_pages.get(inode.file_id, ()))

    # -- core operations ---------------------------------------------------

    def access(self, inode: "Inode", first_page: int, npages: int):
        """Generator: make pages [first, first+npages) resident and
        charge delivery cost.  Returns ``(hits, misses)``.

        Misses are fetched from the device in contiguous batched runs;
        in-flight pages (e.g. being prefetched) are awaited, counting
        as neither a pure hit nor a cold miss.
        """
        if npages < 1:
            raise StorageError(f"npages must be >= 1, got {npages}")
        if _sanitizer.active is not None:
            self._san_pages.read(self.engine, op="access", relaxed=True)
        pages = self._pages
        fid = inode.file_id
        if all((fid, p) in pages for p in range(first_page, first_page + npages)):
            # Fast path: the whole range is resident (the warm
            # sequential-read case that dominates replay workloads).
            # Same observable behavior as the general loop below —
            # per-page policy touches in order, hit accounting, one
            # delivery timeout, hit-ratio counter — without the
            # run-tracking generator machinery.
            on_access = self._policy.on_access
            for p in range(first_page, first_page + npages):
                on_access((fid, p))
            self.stats.hits += npages
            yield self.engine.timeout(self.params.page_touch_cost * npages)
            tracer = self.engine.tracer
            if tracer.enabled:
                tracer.counter("cache.hit_ratio", "io", self.stats.hit_ratio)
            return npages, 0
        hits = misses = 0
        run_start: Optional[int] = None  # start of current absent run
        waits: List[Event] = []

        def flush_run(upto: int):
            nonlocal run_start
            if run_start is not None:
                yield from self._fetch_run(inode, run_start, upto - run_start)
                run_start = None

        for page in range(first_page, first_page + npages):
            key = (inode.file_id, page)
            if key in self._pages or key in self._inflight:
                yield from flush_run(page)
                # Re-check after the fetch: publishing the preceding
                # run can evict this very page (or complete/fail its
                # in-flight fetch), so the pre-yield residency test is
                # stale by the time we are back.
                if key in self._pages:
                    self._policy.on_access(key)
                    self.stats.hits += 1
                    hits += 1
                    continue
                if key in self._inflight:
                    self.stats.inflight_waits += 1
                    waits.append(self._inflight[key])
                    continue
            if run_start is None:
                run_start = page
            self.stats.misses += 1
            misses += 1
        yield from flush_run(first_page + npages)
        for ev in waits:
            if not ev.processed:
                yield ev
            elif not ev.ok:
                # The fetch we piggybacked on already failed; surface it
                # instead of pretending the page arrived.
                raise ev.value
        # Software delivery cost for every page touched.
        yield self.engine.timeout(self.params.page_touch_cost * npages)
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.counter("cache.hit_ratio", "io", self.stats.hit_ratio)
        return hits, misses

    def _fetch_run(self, inode: "Inode", first_page: int, npages: int):
        """Generator: synchronous device read of a contiguous page run.

        The file's extent map may break the run into several physically
        contiguous fragments; each becomes one device request.
        """
        tracer = self.engine.tracer
        started = self.engine.now if tracer.enabled else 0.0
        done = self._begin_fetch(inode, first_page, npages)
        yield from self._complete_fetch(inode, first_page, npages, done)
        if tracer.enabled:
            tracer.complete("cache.fetch", "io", started,
                            file=inode.file_id, first_page=first_page,
                            npages=npages)

    def _complete_fetch(self, inode: "Inode", first_page: int, npages: int, done: Event):
        """Generator: issue the device reads for an already-registered
        in-flight run and publish the pages when they land.

        A failed device read (media error, offline disk) must unwind the
        in-flight registrations and fail ``done`` — otherwise demand
        readers waiting on the run would block forever — before the
        error propagates to whoever issued the fetch.
        """
        try:
            for ev in self._issue_reads(inode, first_page, npages):
                yield ev
        except StorageError as exc:
            self.stats.fetch_failures += 1
            for page in range(first_page, first_page + npages):
                self._inflight.pop((inode.file_id, page), None)
            tracer = self.engine.tracer
            if tracer.enabled:
                tracer.instant("cache.fetch_failed", "io",
                               file=inode.file_id, first_page=first_page,
                               npages=npages, error=type(exc).__name__)
            # Background prefetches may have no waiters; the sacrificial
            # callback keeps the engine from raising on the unobserved
            # failure.
            done.add_callback(lambda ev: None)
            done.fail(exc)
            raise
        self._finish_fetch(inode, first_page, npages, done)

    def _begin_fetch(self, inode: "Inode", first_page: int, npages: int) -> Event:
        done = self.engine.event()
        for page in range(first_page, first_page + npages):
            self._inflight[(inode.file_id, page)] = done
        return done

    def _issue_reads(self, inode: "Inode", first_page: int, npages: int) -> List[Event]:
        events = []
        for lba, nblocks in inode.physical_runs(
            first_page * self.blocks_per_page, npages * self.blocks_per_page
        ):
            events.append(self.device.submit_range(lba, nblocks, is_write=False))
        return events

    def _finish_fetch(self, inode: "Inode", first_page: int, npages: int, done: Event) -> None:
        for page in range(first_page, first_page + npages):
            key = (inode.file_id, page)
            self._inflight.pop(key, None)
            self._insert(key, PageState.CLEAN)
        done.succeed()

    def prefetch(self, inode: "Inode", first_page: int, npages: int) -> int:
        """Issue an *asynchronous* fetch for absent pages in the range.

        Returns the number of pages actually scheduled.  The fetch runs
        as a background process; demand reads arriving meanwhile wait
        on the in-flight event rather than duplicating device work.
        """
        if npages < 1:
            return 0
        max_page = inode.page_count(self.params.page_size)
        pages = [
            p
            for p in range(first_page, first_page + npages)
            if p < max_page
            and (inode.file_id, p) not in self._pages
            and (inode.file_id, p) not in self._inflight
        ]
        if not pages:
            return 0
        # Break into contiguous runs and fetch each in the background.
        runs: List[Tuple[int, int]] = []
        start = prev = pages[0]
        for p in pages[1:]:
            if p == prev + 1:
                prev = p
            else:
                runs.append((start, prev - start + 1))
                start = prev = p
        runs.append((start, prev - start + 1))
        tracer = self.engine.tracer
        for run_start, run_len in runs:
            # Register in-flight *now* so demand reads and repeated
            # prefetch calls see these pages immediately.
            if tracer.enabled:
                tracer.instant("cache.prefetch", "io", file=inode.file_id,
                               first_page=run_start, npages=run_len)
            done = self._begin_fetch(inode, run_start, run_len)
            self.engine.process(
                self._complete_fetch(inode, run_start, run_len, done),
                name=f"prefetch[{inode.file_id}:{run_start}+{run_len}]",
                daemon=True,
            )
        self.stats.prefetches_issued += len(pages)
        return len(pages)

    def write_pages(self, inode: "Inode", first_page: int, npages: int, partial_head: bool, partial_tail: bool):
        """Generator: make pages writable and mark them dirty.

        A *partial* first/last page that already holds file data must be
        read before being overwritten (read-modify-write); full-page
        overwrites and appends skip the fetch.
        Returns the number of pages that required a fetch.
        """
        if npages < 1:
            raise StorageError(f"npages must be >= 1, got {npages}")
        fetched = 0
        last_page = first_page + npages - 1
        file_pages = inode.page_count(self.params.page_size)
        for page in range(first_page, first_page + npages):
            key = (inode.file_id, page)
            needs_rmw = (
                (page == first_page and partial_head) or (page == last_page and partial_tail)
            ) and page < file_pages
            if key in self._inflight:
                ev = self._inflight[key]
                if not ev.processed:
                    yield ev
            if key not in self._pages and needs_rmw:
                yield from self._fetch_run(inode, page, 1)
                fetched += 1
            self._insert(key, PageState.DIRTY)
        yield self.engine.timeout(self.params.page_touch_cost * npages)
        return fetched

    def flush_file(self, inode: "Inode"):
        """Generator: issue asynchronous write-back for every dirty page
        of ``inode``; the caller pays only the issue cost.  Returns the
        number of pages queued for write-back."""
        dirty = sorted(self.dirty_pages_of(inode))
        for page in dirty:
            self._pages[(inode.file_id, page)] = PageState.CLEAN
        self._dirty_by_file.pop(inode.file_id, None)
        if dirty:
            self._writeback_async(inode, dirty)
            yield self.engine.timeout(self.params.writeback_issue_cost * len(dirty))
        else:
            yield self.engine.timeout(0.0)
        return len(dirty)

    def sync_file(self, inode: "Inode"):
        """Generator: synchronous flush — waits for the device writes.
        Returns the number of pages written."""
        dirty = sorted(self.dirty_pages_of(inode))
        for page in dirty:
            self._pages[(inode.file_id, page)] = PageState.CLEAN
        self._dirty_by_file.pop(inode.file_id, None)
        events = []
        for start, length in _contiguous_runs(dirty):
            for lba, nblocks in inode.physical_runs(
                start * self.blocks_per_page, length * self.blocks_per_page
            ):
                events.append(self.device.submit_range(lba, nblocks, is_write=True))
        for ev in events:
            yield ev
        self.stats.writebacks += len(dirty)
        return len(dirty)

    def invalidate_file(self, inode: "Inode") -> int:
        """Drop every resident page of ``inode`` (dirty pages are lost —
        callers flush first).  Returns the number of pages dropped."""
        fid = inode.file_id
        if _sanitizer.active is not None:
            self._san_pages.write(self.engine, op="invalidate", relaxed=True)
        victims = [(fid, p) for p in self._file_pages.get(fid, ())]
        for key in victims:
            del self._pages[key]
            self._policy.on_remove(key)
        self._file_pages.pop(fid, None)
        self._dirty_by_file.pop(fid, None)
        return len(victims)

    def drop_page(self, inode: "Inode", page: int) -> None:
        """Drop one resident page without writeback (truncate path)."""
        key = (inode.file_id, page)
        if _sanitizer.active is not None:
            self._san_pages.write(self.engine, op="drop", relaxed=True)
        del self._pages[key]
        self._policy.on_remove(key)
        self._drop_from_indexes(key)

    def _drop_from_indexes(self, key: Tuple[int, int]) -> None:
        fid, page = key
        pages = self._file_pages.get(fid)
        if pages is not None:
            pages.discard(page)
            if not pages:
                del self._file_pages[fid]
        dirty = self._dirty_by_file.get(fid)
        if dirty is not None:
            dirty.discard(page)
            if not dirty:
                del self._dirty_by_file[fid]

    # -- internals -----------------------------------------------------------

    def _writeback_async(self, inode: "Inode", pages: List[int]) -> None:
        def writer():
            try:
                for start, length in _contiguous_runs(pages):
                    for lba, nblocks in inode.physical_runs(
                        start * self.blocks_per_page, length * self.blocks_per_page
                    ):
                        yield self.device.submit_range(lba, nblocks, is_write=True)
            except StorageError as exc:
                # Background write-back against a failing device: count
                # it rather than crash the daemon; the data stays lost
                # (no payloads in the model), which sync paths surface.
                self.stats.writeback_failures += 1
                tracer = self.engine.tracer
                if tracer.enabled:
                    tracer.instant("cache.writeback_failed", "io",
                                   file=inode.file_id,
                                   error=type(exc).__name__)
                return
            self.stats.writebacks += len(pages)

        self.engine.process(writer(), name=f"writeback[{inode.file_id}]", daemon=True)

    def _insert(self, key: Tuple[int, int], state: PageState) -> None:
        if _sanitizer.active is not None:
            self._san_pages.write(self.engine, op="insert", relaxed=True)
        if key in self._pages:
            # Upgrade clean → dirty, never silently downgrade.
            if state is PageState.DIRTY or self._pages[key] is PageState.CLEAN:
                self._pages[key] = state
                if state is PageState.DIRTY:
                    self._dirty_by_file.setdefault(key[0], set()).add(key[1])
            self._policy.on_access(key)
            return
        while len(self._pages) >= self.params.capacity_pages:
            self._evict_one()
        self._pages[key] = state
        self._file_pages.setdefault(key[0], set()).add(key[1])
        if state is PageState.DIRTY:
            self._dirty_by_file.setdefault(key[0], set()).add(key[1])
        self._policy.on_insert(key)

    def _evict_one(self) -> None:
        if _sanitizer.active is not None:
            self._san_pages.write(self.engine, op="evict", relaxed=True)
        victim_key = self._policy.victim()
        victim_state = self._pages.pop(victim_key)
        self._drop_from_indexes(victim_key)
        self.stats.evictions += 1
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.instant("cache.evict", "io", file=victim_key[0],
                           page=victim_key[1],
                           dirty=victim_state is PageState.DIRTY)
        if victim_state is PageState.DIRTY:
            # Lost-update safety: queue an async write-back for the victim.
            file_id, page = victim_key
            inode = self._inode_lookup(file_id)
            if inode is not None:
                self._writeback_async(inode, [page])

    # The file system registers a resolver so eviction can map file ids
    # back to inodes for write-back.
    _resolver = None

    def register_inode_resolver(self, resolver) -> None:
        """``resolver(file_id) -> Inode | None``; set by the file system."""
        self._resolver = resolver

    def _inode_lookup(self, file_id: int):
        return self._resolver(file_id) if self._resolver is not None else None


def _contiguous_runs(sorted_pages: List[int]) -> List[Tuple[int, int]]:
    """Group a sorted page list into (start, length) contiguous runs."""
    runs: List[Tuple[int, int]] = []
    if not sorted_pages:
        return runs
    start = prev = sorted_pages[0]
    for p in sorted_pages[1:]:
        if p == prev + 1:
            prev = p
        else:
            runs.append((start, prev - start + 1))
            start = prev = p
    runs.append((start, prev - start + 1))
    return runs
