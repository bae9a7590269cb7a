"""Mechanical disk model.

Service time of a request = controller overhead + seek + rotational
latency + media transfer.  The seek cost follows the standard
square-root curve between track-to-track and full-stroke times; the
rotational latency is half a revolution in deterministic mode or
uniform(0, revolution) from a seeded stream otherwise.

Defaults approximate a 7200 rpm desktop drive of the paper's era
(2004): ~8.5 ms average seek, ~4.2 ms average rotational latency,
50 MB/s media rate.

A :class:`Disk` is an active object: its arm is a daemon process that
drains the attached scheduler.  ``submit()`` returns an event that
succeeds with the request when it completes, so callers simply::

    done = disk.submit(IORequest(lba=0, nblocks=8))
    req = yield done
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.errors import DiskError, DiskFailedError, MediaError
from repro.sim import Counter, Engine, Tally, TimeWeighted
from repro.sim.event import Event
from repro.storage.geometry import DiskGeometry
from repro.storage.request import IORequest
from repro.storage.scheduler import DiskScheduler, make_scheduler
from repro.units import MB

__all__ = ["DiskParams", "Disk"]


@dataclass(frozen=True)
class DiskParams:
    """Timing parameters of the mechanical model.

    Attributes
    ----------
    rpm:
        Spindle speed; one revolution takes ``60 / rpm`` seconds.
    seek_track_to_track / seek_full_stroke:
        Seek-time endpoints (seconds); intermediate distances follow
        ``t2t + (full - t2t) * sqrt(d / max_d)``.
    transfer_rate:
        Sustained media rate, bytes/second.
    controller_overhead:
        Fixed per-request command processing cost (seconds).
    deterministic:
        If True, rotational latency is always half a revolution; if
        False it is sampled uniformly from a seeded stream.
    """

    rpm: float = 7200.0
    seek_track_to_track: float = 0.0008
    seek_full_stroke: float = 0.018
    transfer_rate: float = 50.0 * MB
    controller_overhead: float = 0.0002
    deterministic: bool = True

    def __post_init__(self) -> None:
        if self.rpm <= 0:
            raise DiskError(f"rpm must be positive, got {self.rpm}")
        if self.seek_track_to_track < 0 or self.seek_full_stroke < 0:
            raise DiskError("seek times must be >= 0")
        if self.seek_full_stroke < self.seek_track_to_track:
            raise DiskError("full-stroke seek must be >= track-to-track seek")
        if self.transfer_rate <= 0:
            raise DiskError(f"transfer rate must be positive, got {self.transfer_rate}")
        if self.controller_overhead < 0:
            raise DiskError("controller overhead must be >= 0")

    @property
    def revolution_time(self) -> float:
        return 60.0 / self.rpm

    @property
    def avg_rotational_latency(self) -> float:
        return self.revolution_time / 2.0


class Disk:
    """One disk: geometry + mechanics + a scheduler-driven arm.

    Parameters
    ----------
    engine:
        The simulation engine.
    geometry, params:
        Physical description; defaults model a 2004 desktop drive.
    scheduler:
        Policy name (``"fcfs"``, ``"sstf"``, ``"scan"``, ``"cscan"``,
        ``"clook"``) or a ready :class:`DiskScheduler` instance.
    rng:
        numpy Generator used only when ``params.deterministic`` is
        False (rotational-latency sampling).
    injector:
        Optional :class:`~repro.faults.FaultInjector`; when given, the
        arm consults it per serviced request (media errors, slowdowns,
        stalls) and ``disk.fail`` rules targeting this device are armed.
    """

    def __init__(
        self,
        engine: Engine,
        geometry: Optional[DiskGeometry] = None,
        params: Optional[DiskParams] = None,
        scheduler: "str | DiskScheduler" = "fcfs",
        rng: Optional[np.random.Generator] = None,
        name: str = "disk",
        injector=None,
    ) -> None:
        self.engine = engine
        self.geometry = geometry or DiskGeometry()
        self.params = params or DiskParams()
        if isinstance(scheduler, str):
            scheduler = make_scheduler(scheduler, self.geometry)
        self.scheduler: DiskScheduler = scheduler
        self._rng = rng
        self.name = name

        self._head_cylinder = 0
        self._last_end_lba: Optional[int] = None
        self._wakeup: Optional[Event] = None
        self._completions: Dict[int, Event] = {}
        self._injector = injector
        self.failed = False

        # Statistics (registered with the engine's metrics registry so
        # one snapshot covers every device on the machine).
        self.requests_completed = Counter(f"{name}.completed")
        self.bytes_read = Counter(f"{name}.bytes_read")
        self.bytes_written = Counter(f"{name}.bytes_written")
        self.media_errors = Counter(f"{name}.media_errors")
        self.service_times = Tally(f"{name}.service")
        self.response_times = Tally(f"{name}.response")
        self.busy = TimeWeighted(engine, initial=0.0)
        reg = engine.metrics
        for collector in (self.requests_completed, self.bytes_read,
                          self.bytes_written, self.media_errors,
                          self.service_times, self.response_times):
            reg.register(collector.name, collector, device=name)
        reg.register(f"{name}.busy", self.busy, device=name)
        reg.gauge(f"{name}.queue_depth", lambda: len(self.scheduler), device=name)
        reg.gauge(f"{name}.queue_max_depth",
                  lambda: self.scheduler.max_depth, device=name)

        engine.process(self._arm(), name=f"{name}.arm", daemon=True)
        if injector is not None:
            injector.register_disk(self)

    # -- device interface (shared with StripedArray) ------------------------

    @property
    def block_size(self) -> int:
        return self.geometry.block_size

    @property
    def total_blocks(self) -> int:
        return self.geometry.total_blocks

    @property
    def head_cylinder(self) -> int:
        """Current arm position (cylinder index)."""
        return self._head_cylinder

    def submit(self, request: IORequest) -> Event:
        """Queue ``request``; the returned event succeeds with it when
        the transfer completes."""
        if self.failed:
            raise DiskFailedError(f"disk {self.name} is offline")
        lba = request.lba
        end_lba = lba + request.nblocks
        total_blocks = self.geometry.total_blocks
        if end_lba > total_blocks:
            raise DiskError(
                f"request [{lba}, {end_lba}) exceeds disk "
                f"of {total_blocks} blocks"
            )
        request_id = request.request_id
        completions = self._completions
        if request_id in completions:
            raise DiskError(f"request {request_id} already submitted")
        engine = self.engine
        # The clock is read from ``_now``: once per request, no property call.
        request.submitted_at = engine._now
        done = completions[request_id] = engine.event()
        scheduler = self.scheduler
        scheduler.push(request)
        depth = scheduler.note_depth()
        tracer = engine.tracer
        if tracer.enabled:
            tracer.counter(f"{self.name}.queue", "storage", depth)
        wake = self._wakeup
        if wake is not None:
            self._wakeup = None
            wake.succeed()
        return done

    def submit_range(self, lba: int, nblocks: int, is_write: bool = False) -> Event:
        """Convenience: build and submit a request for a block range."""
        return self.submit(IORequest(lba=lba, nblocks=nblocks, is_write=is_write))

    # -- failure lifecycle ---------------------------------------------------

    def fail_disk(self, reason: str = "injected failure") -> None:
        """Take the whole device offline.

        Every queued (and in-service) request fails with
        :class:`~repro.errors.DiskFailedError`; new submissions raise
        synchronously until :meth:`repair` is called.
        """
        if self.failed:
            return
        self.failed = True
        error = DiskFailedError(f"disk {self.name} failed: {reason}")
        # Drain the scheduler so the arm never services stale requests.
        while not self.scheduler.empty:
            self.scheduler.pop(self._head_cylinder)
        for done in list(self._completions.values()):
            # Guard against "failed event nobody waited on": background
            # fetchers may have been abandoned by a timed-out retry.
            done.add_callback(lambda ev: None)
            done.fail(error)
        self._completions.clear()
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.instant("disk.failed", "storage", device=self.name,
                           reason=reason)

    def repair(self) -> None:
        """Bring a failed device back online (empty, ready for rebuild)."""
        if not self.failed:
            return
        self.failed = False
        self._last_end_lba = None
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.instant("disk.repaired", "storage", device=self.name)

    # -- timing model --------------------------------------------------------

    def seek_time(self, from_cyl: int, to_cyl: int) -> float:
        """Arm move cost between two cylinders (0 if already there)."""
        distance = abs(to_cyl - from_cyl)
        if distance == 0:
            return 0.0
        p = self.params
        max_d = max(1, self.geometry.cylinders - 1)
        return p.seek_track_to_track + (
            p.seek_full_stroke - p.seek_track_to_track
        ) * math.sqrt(distance / max_d)

    def rotational_latency(self) -> float:
        """Rotational delay for the next request."""
        p = self.params
        if p.deterministic or self._rng is None:
            return p.avg_rotational_latency
        return float(self._rng.uniform(0.0, p.revolution_time))

    def transfer_time(self, nblocks: int) -> float:
        """Media transfer cost for ``nblocks`` consecutive blocks."""
        return nblocks * self.geometry.block_size / self.params.transfer_rate

    def is_sequential(self, request: IORequest) -> bool:
        """True when ``request`` continues exactly where the previous
        request on this disk ended (the drive keeps streaming without
        repositioning — the firmware's sequential-detection path)."""
        return self._last_end_lba is not None and request.lba == self._last_end_lba

    def service_time(self, request: IORequest) -> float:
        """Positioning + transfer cost from the current head position.

        A sequential continuation pays only controller overhead and
        media transfer; a random request adds seek + rotation.
        """
        if self.is_sequential(request):
            return self.params.controller_overhead + self.transfer_time(request.nblocks)
        target = self.geometry.cylinder_of(request.lba)
        return (
            self.params.controller_overhead
            + self.seek_time(self._head_cylinder, target)
            + self.rotational_latency()
            + self.transfer_time(request.nblocks)
        )

    # -- the arm -------------------------------------------------------------

    def _arm(self):
        # The arm runs once per request: everything it reads that cannot
        # change while the disk lives is bound to a local once.  The
        # head position, the stream end and the injector stay attributes
        # (``fail_disk``/``repair`` and the fault rules act on them).
        engine = self.engine
        scheduler = self.scheduler
        completions = self._completions
        geometry = self.geometry
        cylinder_of = geometry.cylinder_of
        service_time = self.service_time
        block_size = geometry.block_size
        record_busy = self.busy.record
        add_completed = self.requests_completed.add
        add_read = self.bytes_read.add
        add_written = self.bytes_written.add
        record_service = self.service_times.record
        record_response = self.response_times.record
        new_event = engine.event
        sleep = engine.sleep
        while True:
            if len(scheduler) == 0:
                self._wakeup = new_event()
                record_busy(0.0)
                yield self._wakeup
            record_busy(1.0)
            request = scheduler.pop(self._head_cylinder)
            # Clock reads use ``_now``, skipping the property call per request.
            started = request.started_at = engine._now
            service = service_time(request)
            fault = None
            if self._injector is not None:
                fault = self._injector.disk_fault(
                    self.name, request.lba, request.nblocks)
                if fault is not None:
                    kind, spec = fault
                    if kind == "disk.slow":
                        service *= spec.slow_factor
                    elif kind == "disk.stall":
                        service += spec.delay
            yield sleep(service)
            # Head ends at the cylinder holding the request's last block.
            nblocks = request.nblocks
            end_lba = request.lba + nblocks
            self._head_cylinder = cylinder_of(end_lba - 1)
            self._last_end_lba = end_lba
            now = request.completed_at = engine._now  # as started_at above

            # fail_disk() may have claimed the completion mid-service.
            done = completions.pop(request.request_id, None)
            if done is None:
                continue

            if fault is not None and fault[0] == "disk.media_error":
                self.media_errors.add()
                self._last_end_lba = None  # the stream broke; reposition
                tracer = engine.tracer
                if tracer.enabled:
                    tracer.complete(
                        f"disk.{'write' if request.is_write else 'read'}",
                        "storage", started,
                        device=self.name, lba=request.lba,
                        nblocks=nblocks, error="MediaError",
                    )
                done.add_callback(lambda ev: None)
                done.fail(MediaError(
                    f"disk {self.name}: unrecoverable read at lba "
                    f"{request.lba}+{nblocks}"
                ))
                continue

            add_completed()
            if request.is_write:
                add_written(nblocks * block_size)
            else:
                add_read(nblocks * block_size)
            # The same subtractions as IORequest.service_time and
            # response_time, on the timestamps just set.
            record_service(now - started)
            record_response(now - request.submitted_at)
            tracer = engine.tracer
            if tracer.enabled:
                tracer.complete(
                    f"disk.{'write' if request.is_write else 'read'}",
                    "storage", started,
                    device=self.name, lba=request.lba,
                    nblocks=nblocks,
                    wait_ms=round((started - request.submitted_at) * 1e3, 6),
                )
                tracer.counter(f"{self.name}.queue", "storage",
                               len(scheduler))
            done.succeed(request)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Disk {self.name} head@{self._head_cylinder} "
            f"queued={len(self.scheduler)}>"
        )
