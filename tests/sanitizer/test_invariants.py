"""Protocol-invariant machines over synthetic trace events."""

import pytest

from repro.errors import SanitizerError
from repro.sanitizer.invariants import INVARIANTS, Violation, check_events


class Ev:
    """Minimal stand-in for a TraceEvent: name/start/pid/attrs."""

    def __init__(self, name, start, pid=0, **attrs):
        self.name = name
        self.start = start
        self.pid = pid
        self.attrs = attrs


def names(violations):
    return [v.invariant for v in violations]


# -- replicate_before_ack ---------------------------------------------------

def test_commit_with_all_acks_is_clean():
    events = [
        Ev("cluster.replica_ack", 1.0, key="k", version=1, node="n1"),
        Ev("cluster.replica_ack", 1.1, key="k", version=1, node="n2"),
        Ev("cluster.commit", 1.2, key="k", version=1, size=64,
           admitted="n1,n2"),
    ]
    assert check_events(events, ["replicate_before_ack"]) == []


def test_commit_against_unacked_admitted_replica_violates():
    events = [
        Ev("cluster.replica_ack", 1.0, key="k", version=1, node="n1"),
        Ev("cluster.commit", 1.2, key="k", version=1, size=64,
           admitted="n1,n2"),
    ]
    violations = check_events(events, ["replicate_before_ack"])
    assert names(violations) == ["replicate_before_ack"]
    assert "n2" in violations[0].message
    assert "acked: n1" in violations[0].message


def test_acks_are_per_version():
    # An ack for v1 does not cover a commit of v2.
    events = [
        Ev("cluster.replica_ack", 1.0, key="k", version=1, node="n1"),
        Ev("cluster.commit", 1.1, key="k", version=1, size=64, admitted="n1"),
        Ev("cluster.commit", 1.2, key="k", version=2, size=65, admitted="n1"),
    ]
    violations = check_events(events, ["replicate_before_ack"])
    assert names(violations) == ["replicate_before_ack"]
    assert "v2" in violations[0].message


# -- in_sync_before_serve ---------------------------------------------------

def test_serve_by_ejected_node_violates_until_node_up():
    events = [
        Ev("lb.eject", 1.0, node="n2"),
        Ev("cluster.serve", 1.5, key="k", node="n2", kind="read", bytes=64),
        Ev("lb.readmit", 2.0, node="n2"),
        # Readmitted but not yet rebuilt: still not in sync.
        Ev("cluster.serve", 2.5, key="k", node="n2", kind="read", bytes=64),
        Ev("node.up", 3.0, node="n2"),
        Ev("cluster.serve", 3.5, key="k", node="n2", kind="read", bytes=64),
    ]
    violations = check_events(events, ["in_sync_before_serve"])
    assert names(violations) == ["in_sync_before_serve"] * 2
    assert [v.time for v in violations] == [1.5, 2.5]


def test_serve_by_healthy_node_is_clean():
    events = [
        Ev("lb.eject", 1.0, node="n2"),
        Ev("cluster.serve", 1.5, key="k", node="n1", kind="read", bytes=64),
    ]
    assert check_events(events, ["in_sync_before_serve"]) == []


# -- no_acked_write_lost ----------------------------------------------------

def test_short_read_after_commit_violates():
    events = [
        Ev("cluster.commit", 1.0, key="k", version=3, size=100,
           admitted="n1"),
        Ev("cluster.serve", 1.5, key="k", node="n1", kind="read", bytes=80),
    ]
    violations = check_events(events, ["no_acked_write_lost"])
    assert names(violations) == ["no_acked_write_lost"]
    assert "80 bytes < committed v3 size 100" in violations[0].message


def test_full_size_read_and_uncommitted_key_are_clean():
    events = [
        Ev("cluster.commit", 1.0, key="k", version=3, size=100,
           admitted="n1"),
        Ev("cluster.serve", 1.5, key="k", node="n1", kind="read", bytes=100),
        Ev("cluster.serve", 1.6, key="other", node="n1", kind="read",
           bytes=1),
    ]
    assert check_events(events, ["no_acked_write_lost"]) == []


# -- eject_readmit_monotonic ------------------------------------------------

def test_health_machine_happy_cycle_is_clean():
    events = [
        Ev("lb.eject", 1.0, node="n2"),
        Ev("lb.readmit", 2.0, node="n2"),
        Ev("node.up", 3.0, node="n2"),
        Ev("lb.eject", 4.0, node="n2"),
    ]
    assert check_events(events, ["eject_readmit_monotonic"]) == []


@pytest.mark.parametrize("events,fragment", [
    ([Ev("lb.eject", 1.0, node="n2"), Ev("lb.eject", 1.5, node="n2")],
     "already ejected"),
    ([Ev("lb.readmit", 1.0, node="n2")], "expected 'ejected'"),
    ([Ev("lb.eject", 1.0, node="n2"), Ev("node.up", 1.5, node="n2")],
     "expected 'readmitted'"),
])
def test_health_machine_illegal_transitions(events, fragment):
    violations = check_events(events, ["eject_readmit_monotonic"])
    assert names(violations) == ["eject_readmit_monotonic"]
    assert fragment in violations[0].message


# -- framework behaviour ----------------------------------------------------

def test_machines_are_per_pid():
    # An ack in pid 1 cannot satisfy a commit in pid 2.
    events = [
        Ev("cluster.replica_ack", 1.0, pid=1, key="k", version=1, node="n1"),
        Ev("cluster.commit", 1.1, pid=2, key="k", version=1, size=64,
           admitted="n1"),
    ]
    violations = check_events(events, ["replicate_before_ack"])
    assert names(violations) == ["replicate_before_ack"]
    assert violations[0].pid == 2


def test_violations_sorted_and_selection_enforced():
    events = [
        Ev("cluster.commit", 2.0, pid=1, key="k", version=1, size=64,
           admitted="n1"),
        Ev("lb.readmit", 1.0, pid=0, node="n2"),
    ]
    violations = check_events(events)
    assert [(v.pid, v.invariant) for v in violations] == [
        (0, "eject_readmit_monotonic"), (1, "replicate_before_ack")]
    with pytest.raises(SanitizerError):
        check_events(events, ["not_an_invariant"])


def test_violation_rendering():
    v = Violation("replicate_before_ack", 3, 1.25, "boom")
    assert str(v) == "[replicate_before_ack] pid=3 t=1.25: boom"
    assert v.to_dict() == {"invariant": "replicate_before_ack", "pid": 3,
                           "time": 1.25, "message": "boom"}


def test_bundled_invariant_registry():
    assert sorted(INVARIANTS) == [
        "eject_readmit_monotonic", "in_sync_before_serve",
        "no_acked_write_lost", "replicate_before_ack"]
