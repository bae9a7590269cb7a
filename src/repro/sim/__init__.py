"""Discrete-event simulation kernel.

A small, deterministic, generator-coroutine event engine in the style
of SimPy, purpose-built for this reproduction: simulated CPUs, disks,
network channels and managed threads are all processes scheduled on
one :class:`Engine`.

Quick tour::

    from repro.sim import Engine

    eng = Engine()

    def worker(eng, results):
        yield eng.timeout(1.5)
        results.append(eng.now)

    results = []
    eng.process(worker(eng, results))
    eng.run()
    assert results == [1.5]

Determinism: events scheduled for the same timestamp fire in FIFO
order of scheduling (stable sequence numbers); no wall-clock or
global RNG is consulted anywhere in the kernel.
"""

from repro.sim.event import Event, Timeout, AllOf, AnyOf
from repro.sim.process import Process
from repro.sim.engine import Engine
from repro.sim.resources import Resource, Store, Channel
from repro.sim.stats import Counter, Tally, TimeWeighted, Histogram
from repro.sim.taskloop import Task, TaskLoop

__all__ = [
    "Engine",
    "Event",
    "Timeout",
    "AllOf",
    "AnyOf",
    "Process",
    "Task",
    "TaskLoop",
    "Resource",
    "Store",
    "Channel",
    "Counter",
    "Tally",
    "TimeWeighted",
    "Histogram",
]
