"""The disk path dispatches the same heap entries in the same order.

Every entry the engine pops is hashed as ``(time, seq, kind, label)``.
The label names what the entry wakes: the process or task for a bare
call, and for an event its type plus the process or task behind each
callback.  A callback with no named owner counts only by its type
(``function``, ``method``), so renaming or moving code leaves the
label as it is.  The hashes below pin the whole dispatch sequence of
QCRD on the ``ApplicationExecutor`` -> ``StripedArray`` -> ``Disk``
path and of a small single-disk ``TraceReplayer`` run, which reaches
the disk through the buffer cache and the file system.  A change to
the per-request disk path that keeps what is simulated leaves every
hash as it is; a reordering of two same-time entries, an extra event
or a lost one changes it.
"""

from __future__ import annotations

import hashlib
import heapq
import types
from dataclasses import replace

import pytest

from repro.model import ApplicationExecutor, MachineConfig, build_qcrd
from repro.sim import engine as engine_module
from repro.traces import ReplayConfig, TraceReplayer, generate_dmine, generate_lu
from repro.units import MiB

#: (entries dispatched, sha256 of the sequence) per run.
EXPECTED = {
    "qcrd-disks2": (
        125391, "11e178ef454acb1075909229394dfe26f5e2e16340a9435e30061cb9b54c3d66"),
    "qcrd-disks8": (
        131085, "55c61c29e7a9c22d1f69d5a7586dc671bbd116c18fe5bd19a2cbf4d640ffba2d"),
    "qcrd-cpus4": (
        5370, "12eab916575813c68fa8bc3399adf84e4018bd05952439110eec38d348e0a26f"),
    "replay-1disk": (
        3599, "acf744e513615065c4cb0da68f18ebef5b8192ef3f35fd2a4e74bbeb6b0913af"),
}


def _owner(fn) -> str:
    """Process name or task label behind a callable, else its type."""
    owner = getattr(fn, "__self__", None)
    for attr in ("name", "label"):
        name = getattr(owner, attr, None)
        if isinstance(name, str):
            return name
    return type(fn).__name__


def _label(kind: int, payload) -> str:
    if kind == 1:
        owners = ",".join(_owner(cb) for cb in payload.callbacks or ())
        return f"{type(payload).__name__}[{owners}]"
    return _owner(payload)


class DispatchLog:
    """Hashes every popped heap entry of every engine while active."""

    def __init__(self) -> None:
        self.lines = []

    def heappop(self, queue):
        entry = heapq.heappop(queue)
        when, seq, kind, payload = entry
        self.lines.append(f"{when!r} {seq} {kind} {_label(kind, payload)}")
        return entry

    def result(self):
        text = "\n".join(self.lines) + "\n"
        return len(self.lines), hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture
def dispatch_log(monkeypatch):
    log = DispatchLog()
    monkeypatch.setattr(engine_module, "heapq", types.SimpleNamespace(
        heappop=log.heappop, heappush=heapq.heappush))
    return log


def _qcrd(**machine):
    ApplicationExecutor(build_qcrd(), replace(MachineConfig(), **machine)).run()


def _replay():
    config = ReplayConfig(cache_pages=512)
    for name, (header, records) in (
            ("dmine", generate_dmine(dataset_size=4 * MiB, passes=2)),
            ("lu", generate_lu(extra_panels=2))):
        TraceReplayer(config).replay(header, records, name)


RUNS = {
    "qcrd-disks2": lambda: _qcrd(disks=2),
    "qcrd-disks8": lambda: _qcrd(disks=8),
    "qcrd-cpus4": lambda: _qcrd(cpus=4),
    "replay-1disk": _replay,
}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_dispatch_sequence_is_pinned(run, dispatch_log):
    RUNS[run]()
    assert dispatch_log.result() == EXPECTED[run]
