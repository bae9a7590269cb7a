"""Declarative protocol invariants over the obs JSONL event stream.

The cluster emits point events (``category == "cluster"``) for every
protocol-relevant transition: ``lb.eject`` / ``lb.readmit`` /
``node.up`` (control plane), ``cluster.replica_ack`` /
``cluster.commit`` (write path), ``cluster.serve`` (read path).  Each
invariant here is a small predicate machine fed those events in trace
order; a predicate that goes false yields a :class:`Violation`.

Because one :class:`~repro.obs.Tracer` may observe several engines
(e.g. the six ``ext_cluster`` scenarios), machines are instantiated
per ``pid`` — invariants never correlate events across engines.

The four bundled invariants:

``replicate_before_ack``
    A commit of ``(key, version)`` requires a ``cluster.replica_ack``
    from **every** node admitted at commit time.  This is the write
    path's core promise — the PR 8 write-across-readmit bug is exactly
    a commit whose admitted set outgrew its ack set.

``in_sync_before_serve``
    A read may be served only by a node that is in sync: no serve
    between the node's ``lb.eject`` and its ``node.up``.

``no_acked_write_lost``
    A served read of a committed key must return at least the last
    committed size (sizes are monotonic in version, so fewer bytes ==
    lost acked write).

``eject_readmit_monotonic``
    Per node: ``lb.eject`` only while admitted, ``lb.readmit`` only
    while ejected, ``node.up`` only after a readmit — the health state
    machine never skips or repeats a transition.

Run post-hoc over a trace file::

    python -m repro.sanitizer check trace.jsonl
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import SanitizerError

__all__ = [
    "INVARIANTS",
    "Violation",
    "check_events",
    "check_trace_file",
]


class Violation:
    """One invariant breach at one trace event."""

    __slots__ = ("invariant", "pid", "time", "message")

    def __init__(self, invariant: str, pid: int, time: float,
                 message: str) -> None:
        self.invariant = invariant
        self.pid = pid
        self.time = time
        self.message = message

    def to_dict(self) -> dict:
        return {
            "invariant": self.invariant,
            "pid": self.pid,
            "time": self.time,
            "message": self.message,
        }

    def __str__(self) -> str:
        return (f"[{self.invariant}] pid={self.pid} t={self.time:.6g}: "
                f"{self.message}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Violation {self.invariant} t={self.time:.6g}>"


class _Invariant:
    """Base predicate machine: feed events, collect violations."""

    name = "invariant"

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self.violations: List[Violation] = []

    def _violate(self, time: float, message: str) -> None:
        self.violations.append(Violation(self.name, self.pid, time, message))

    def feed(self, name: str, time: float, attrs: dict) -> None:
        raise NotImplementedError  # pragma: no cover - abstract


def _admitted_set(attrs: dict) -> List[str]:
    admitted = attrs.get("admitted", "")
    return admitted.split(",") if admitted else []


class ReplicateBeforeAck(_Invariant):
    """Every node admitted at commit time acked the committed version."""

    name = "replicate_before_ack"

    def __init__(self, pid: int) -> None:
        super().__init__(pid)
        self._acked: Dict[Tuple[str, int], Set[str]] = {}

    def feed(self, name: str, time: float, attrs: dict) -> None:
        if name == "cluster.replica_ack":
            self._acked.setdefault(
                (attrs["key"], attrs["version"]), set()).add(attrs["node"])
        elif name == "cluster.commit":
            key, version = attrs["key"], attrs["version"]
            acked = self._acked.pop((key, version), set())
            missing = [n for n in _admitted_set(attrs) if n not in acked]
            if missing:
                self._violate(
                    time,
                    f"commit of {key} v{version} without ack from admitted "
                    f"replica(s) {', '.join(missing)} "
                    f"(acked: {', '.join(sorted(acked)) or 'none'})")


class InSyncBeforeServe(_Invariant):
    """Reads are served only by in-sync nodes (eject .. node.up window
    excluded)."""

    name = "in_sync_before_serve"

    def __init__(self, pid: int) -> None:
        super().__init__(pid)
        self._out_of_sync: Set[str] = set()

    def feed(self, name: str, time: float, attrs: dict) -> None:
        if name == "lb.eject":
            self._out_of_sync.add(attrs["node"])
        elif name == "node.up":
            self._out_of_sync.discard(attrs["node"])
        elif name == "cluster.serve" and attrs.get("kind") == "read":
            node = attrs["node"]
            if node in self._out_of_sync:
                self._violate(
                    time,
                    f"read of {attrs['key']} served by {node}, which is "
                    f"not in sync (ejected and not yet rebuilt)")


class NoAckedWriteLost(_Invariant):
    """A served read never returns fewer bytes than the last commit."""

    name = "no_acked_write_lost"

    def __init__(self, pid: int) -> None:
        super().__init__(pid)
        self._committed: Dict[str, Tuple[int, int]] = {}  # key -> (version, size)

    def feed(self, name: str, time: float, attrs: dict) -> None:
        if name == "cluster.commit":
            self._committed[attrs["key"]] = (attrs["version"], attrs["size"])
        elif name == "cluster.serve" and attrs.get("kind") == "read":
            key = attrs["key"]
            entry = self._committed.get(key)
            if entry is not None and attrs["bytes"] < entry[1]:
                self._violate(
                    time,
                    f"read of {key} from {attrs['node']} returned "
                    f"{attrs['bytes']} bytes < committed v{entry[0]} size "
                    f"{entry[1]} — an acked write is not visible")


class EjectReadmitMonotonic(_Invariant):
    """The per-node health machine takes legal transitions only:
    in_sync --eject--> ejected --readmit--> readmitted --up--> in_sync."""

    name = "eject_readmit_monotonic"

    _IN_SYNC, _EJECTED, _READMITTED = "in_sync", "ejected", "readmitted"

    def __init__(self, pid: int) -> None:
        super().__init__(pid)
        self._state: Dict[str, str] = {}

    def feed(self, name: str, time: float, attrs: dict) -> None:
        if name not in ("lb.eject", "lb.readmit", "node.up"):
            return
        node = attrs["node"]
        state = self._state.get(node, self._IN_SYNC)
        if name == "lb.eject":
            if state == self._EJECTED:
                self._violate(time, f"{node} ejected while already ejected")
            self._state[node] = self._EJECTED
        elif name == "lb.readmit":
            if state != self._EJECTED:
                self._violate(
                    time, f"{node} readmitted from state {state!r} "
                    f"(expected 'ejected')")
            self._state[node] = self._READMITTED
        else:  # node.up
            if state != self._READMITTED:
                self._violate(
                    time, f"{node} marked up (rebuilt) from state {state!r} "
                    f"(expected 'readmitted')")
            self._state[node] = self._IN_SYNC


#: name -> machine class, in documentation order.
INVARIANTS = {
    cls.name: cls
    for cls in (ReplicateBeforeAck, InSyncBeforeServe, NoAckedWriteLost,
                EjectReadmitMonotonic)
}


def check_events(events: Iterable, names: Optional[List[str]] = None
                 ) -> List[Violation]:
    """Run the (selected) invariant machines over trace events.

    ``events`` is an iterable of :class:`~repro.obs.TraceEvent` (or any
    object with ``name``/``start``/``pid``/``attrs``), in trace order.
    Machines are instantiated lazily per ``pid``.  Violations come back
    sorted by ``(pid, time, invariant, message)`` — deterministic for a
    deterministic trace.
    """
    selected = list(INVARIANTS) if names is None else names
    for name in selected:
        if name not in INVARIANTS:
            raise SanitizerError(
                f"unknown invariant {name!r}; choices: {sorted(INVARIANTS)}")
    machines: Dict[int, List[_Invariant]] = {}
    for event in events:
        pid = event.pid
        group = machines.get(pid)
        if group is None:
            group = machines[pid] = [INVARIANTS[n](pid) for n in selected]
        for machine in group:
            machine.feed(event.name, event.start, event.attrs)
    violations = [
        v
        for pid in sorted(machines)
        for machine in machines[pid]
        for v in machine.violations
    ]
    violations.sort(key=lambda v: (v.pid, v.time, v.invariant, v.message))
    return violations


def check_trace_file(path: str, names: Optional[List[str]] = None
                     ) -> List[Violation]:
    """Load a JSONL trace and run the invariant machines over it."""
    from repro.obs.export import read_jsonl

    return check_events(read_jsonl(path), names)
