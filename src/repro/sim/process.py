"""Processes: generator coroutines driven by the event engine.

A process wraps a Python generator.  Each value the generator yields
must be an :class:`~repro.sim.event.Event`; the process suspends until
that event is processed, then resumes with the event's value (or with
the event's exception thrown into the generator).  The process itself
is an event that triggers when the generator returns (value = the
``StopIteration`` value) or raises.
"""

from __future__ import annotations

from typing import Any, Generator, Optional, TYPE_CHECKING

from repro.errors import SimulationError
from repro.sanitizer import runtime as _sanitizer
from repro.sim.event import Event, PENDING

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine

__all__ = ["Process"]


class _Coroutine:
    """The generator driver shared by :class:`Process` and
    :class:`~repro.sim.taskloop.Task`.

    A subclass provides ``generator`` and ``engine`` and two hooks:
    ``_on_event(event)``, the callback a yielded event wakes, and
    ``_finish(result, error)``, called once when the generator returns
    or raises (or yields something other than an event of its engine).
    """

    __slots__ = ()

    def _step(self, value: Any = None, exc: Optional[BaseException] = None) -> None:
        """Advance the generator until it blocks on an event or finishes."""
        det = _sanitizer.active
        prev = det.enter(self) if det is not None else None
        try:
            try:
                if exc is None:
                    target = self.generator.send(value)
                else:
                    target = self.generator.throw(exc)
            except StopIteration as stop:
                self._finish(stop.value, None)
                return
            except BaseException as error:
                self._finish(None, error)
                return
            if not isinstance(target, Event):
                self._finish(None, SimulationError(
                    f"{self!r} yielded {target!r}; it must yield Event instances"))
                return
            if target.engine is not self.engine:
                self._finish(None, SimulationError(
                    f"{self!r} yielded an event from a different engine"))
                return
            target.add_callback(self._on_event)
        finally:
            if det is not None:
                det.leave(prev)


class Process(_Coroutine, Event):
    """A running simulation process.

    Created via :meth:`Engine.process`; do not instantiate directly
    except in tests.  A wake-up resumes the generator at once; when the
    generator finishes, the process triggers itself with its outcome.
    """

    # ``_san_ctx`` holds the sanitizer's per-process vector-clock
    # context; the slot stays unset unless a detector is active.
    __slots__ = ("generator", "name", "daemon", "_san_ctx")

    def __init__(
        self,
        engine: "Engine",
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
        daemon: bool = False,
    ) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(
                f"Engine.process() needs a generator, got {type(generator).__name__}"
            )
        super().__init__(engine)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        # Daemon processes (e.g. a disk's server loop) may block forever
        # without tripping deadlock detection when the queue drains.
        self.daemon = daemon
        if not daemon:
            engine._live_processes += 1
        if _sanitizer.active is not None:
            _sanitizer.active.on_spawn(self, self.name)
        # Kick off at the current time.
        engine._schedule_call(self._step)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._value is PENDING

    def _on_event(self, event: Event) -> None:
        if _sanitizer.active is not None:
            _sanitizer.active.on_wakeup(self, event)
        # A dispatched event is always triggered, so its fields are read
        # directly rather than through the ``ok``/``value`` properties.
        if event._ok:
            self._step(event._value, None)
        else:
            self._step(None, event._value)

    def _finish(self, result: Any, error: Optional[BaseException]) -> None:
        if not self.daemon:
            self.engine._live_processes -= 1
        if error is None:
            self.succeed(result)
        else:
            self.fail(error)

    def __repr__(self) -> str:
        state = "alive" if self.is_alive else ("ok" if self._ok else "failed")
        return f"<Process {self.name} {state}>"
