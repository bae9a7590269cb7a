"""``engine.sleep``: the one way a process or task waits out a delay.

A sleep resumes the coroutine straight from its heap slot (a kind-3
entry) instead of through a ``Timeout`` and its callback list.  These
tests pin what must not change against ``yield engine.timeout(d)``:
the clock, the resume value, the same-time order and the errors; that
the sanitizer still sees a real ``Timeout``; and that ``src/repro``
and the code the JIT emits have no other way to sleep left.
"""

import ast
from pathlib import Path

import pytest

import repro
from repro.cli import MethodBuilder
from repro.cli.interpreter import InterpreterParams
from repro.cli.jitcompile import native_source
from repro.cli.microbench import KERNELS, build_kernel
from repro.errors import SimulationError
from repro.sanitizer import runtime as _sanitizer, sanitized
from repro.sim import Engine, TaskLoop


def test_sleep_returns_the_delay_as_float():
    eng = Engine()
    assert eng.sleep(2) == 2.0 and type(eng.sleep(2)) is float
    assert type(eng.sleep(0)) is float
    assert eng.sleep(1.5) == 1.5


def test_sleep_resumes_with_none_at_now_plus_delay():
    eng = Engine()
    seen = []

    def proc():
        for delay in (1.5, 0.0, 2):
            value = yield eng.sleep(delay)
            seen.append((eng.now, value))

    eng.process(proc())
    assert eng.run() == 3.5
    assert seen == [(1.5, None), (1.5, None), (3.5, None)]


def test_task_sleeps_like_a_process():
    eng = Engine()
    loop = TaskLoop(eng)
    loop.start()
    seen = []

    def task():
        value = yield eng.sleep(1.0)
        seen.append((eng.now, value))
        return "done"

    t = loop.spawn(task())
    eng.run()
    assert seen == [(1.0, None)]
    assert t.done and t.ok and t.result == "done"


def test_same_time_sleeps_and_timeouts_wake_in_creation_order():
    eng = Engine()
    order = []

    def sleeper(tag):
        yield eng.sleep(1.0)
        order.append(tag)

    def waiter(tag):
        yield eng.timeout(1.0)
        order.append(tag)

    for tag, body in (("a", sleeper), ("b", waiter), ("c", sleeper),
                      ("d", waiter)):
        eng.process(body(tag))
    eng.run()
    assert order == ["a", "b", "c", "d"]


def test_sleep_takes_the_seq_a_timeout_would():
    """Both forms allocate one seq at the yield and queue the same time."""
    entries = []
    for make in (lambda eng: eng.timeout(0.25), lambda eng: eng.sleep(0.25)):
        eng = Engine()

        def proc(eng=eng, make=make):
            yield make(eng)

        eng.process(proc())
        eng.step()  # the process's first step: it yields the delay
        (when, seq, kind, _payload), = eng._queue
        entries.append((when, seq, kind, eng._seq))
    # Under a suite-wide detector (REPRO_SANITIZE=1) a sleep is queued
    # as a Timeout; see test_sanitizer_sees_a_real_timeout.
    direct = 3 if _sanitizer.active is None else 1
    assert entries == [(0.25, 2, 1, 2), (0.25, 2, direct, 2)]


def test_step_dispatches_a_sleep():
    eng = Engine()
    seen = []

    def proc():
        yield eng.sleep(2.0)
        seen.append(eng.now)

    eng.process(proc())
    eng.step()
    eng.step()
    assert seen == [2.0] and eng.now == 2.0


def test_negative_sleep_raises_in_the_callers_frame():
    eng = Engine()
    with pytest.raises(SimulationError, match="negative timeout delay"):
        eng.sleep(-0.5)
    caught = []

    def proc():
        try:
            yield eng.sleep(-1.0)
        except SimulationError as exc:
            caught.append(str(exc))
        yield eng.sleep(1.0)
        return "recovered"

    p = eng.process(proc())
    eng.run()
    assert caught == ["negative timeout delay: -1.0"]
    assert p.ok and p.value == "recovered" and eng.now == 1.0


NON_EVENTS = [42, True, 0, "1.0", None, -1.0, float("nan"), [1.0]]


@pytest.mark.parametrize("value", NON_EVENTS, ids=repr)
def test_yielding_a_non_event_fails_the_process(value):
    eng = Engine()

    def proc():
        yield value

    p = eng.process(proc())
    eng.run()
    assert p.triggered and not p.ok
    assert isinstance(p.value, SimulationError)
    assert "engine.sleep() delay" in str(p.value)
    assert eng.now == 0.0


@pytest.mark.parametrize("value", NON_EVENTS, ids=repr)
def test_yielding_a_non_event_fails_the_task(value):
    eng = Engine()
    loop = TaskLoop(eng, error_handler=lambda t: None)
    loop.start()

    def task():
        yield value

    t = loop.spawn(task())
    eng.run()
    assert t.done and not t.ok
    assert isinstance(t.error, SimulationError)
    assert eng.now == 0.0


def test_sanitizer_sees_a_real_timeout():
    """Under a detector the sleep is queued as a ``Timeout`` (kind 1),
    so the happens-before stamps are those of ``engine.timeout``."""
    with sanitized():
        eng = Engine()
        seen = []

        def proc():
            yield eng.sleep(1.0)
            seen.append(eng.now)

        eng.process(proc())
        eng.step()
        (_when, _seq, kind, payload), = eng._queue
        assert kind == 1 and type(payload).__name__ == "Timeout"
        eng.run()
    assert seen == [1.0]


# -- one way to sleep ---------------------------------------------------------


SRC = Path(repro.__file__).resolve().parent


def _timeout_sleeps(tree):
    """Lines that yield a ``<expr>.timeout(...)`` call, or bind
    ``<expr>.timeout`` to a name (the hoisted form of the same sleep)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Yield) and isinstance(node.value, ast.Call):
            func = node.value.func
            if isinstance(func, ast.Attribute) and func.attr == "timeout":
                yield node.lineno
        elif isinstance(node, ast.Assign):
            value = node.value
            if isinstance(value, ast.Attribute) and value.attr == "timeout":
                yield node.lineno


def test_scan_catches_both_forms():
    tree = ast.parse(
        "def p(engine):\n"
        "    yield engine.timeout(1.0)\n"
        "    t = engine.timeout\n"
        "    yield t(1.0)\n"
        "    yield engine.sleep(1.0)\n"
        "    deadline = engine.timeout(2.0)\n"
        "    yield engine.any_of([deadline])\n")
    assert sorted(_timeout_sleeps(tree)) == [2, 3]


def test_src_has_one_way_to_sleep():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.relative_to(SRC)}:{line}"
                  for line in _timeout_sleeps(tree)]
    assert found == [], "sleep with engine.sleep(d), not engine.timeout(d)"


def _thrower():
    return (
        MethodBuilder("thrower", returns=True)
        .begin_try()
        .ldstr("boom").throw()
        .end_try("h")
        .label("h").pop().ldc(7).ret()
        .build()
    )


@pytest.mark.parametrize("kernel", sorted(KERNELS) + ["thrower"])
def test_jit_emitted_source_has_no_timeout(kernel):
    method = _thrower() if kernel == "thrower" else build_kernel(kernel)[0]
    source = native_source(method, InterpreterParams())
    assert source is not None and "_sleep(" in source
    assert "timeout" not in source
