"""Self-tests of the benchmark.  Run with ``python3 -m pytest perfbench``."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from spec import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402
from tracer import Resumed, SpanRecorder, Tracer, self_times  # noqa: E402


def test_self_times_on_a_synthetic_span_tree():
    # root [0,100]: children [10,30] and [20,50] overlap, [90,120] sticks
    # out of the root; [25,35] is a grandchild under [20,50].
    spans = [(-1, 0, 100), (0, 10, 30), (0, 20, 50), (2, 25, 35), (0, 90, 120)]
    expected = [100 - 40 - 10, 20, 30 - 10, 10, 30]
    parents, starts, ends = (list(c) for c in zip(*spans))
    assert self_times(parents, starts, ends) == expected

    # Input order does not matter.
    order = list(range(len(spans)))
    random.Random(1).shuffle(order)
    where = {old: new for new, old in enumerate(order)}
    shuffled = [(where.get(spans[i][0], -1), spans[i][1], spans[i][2])
                for i in order]
    parents, starts, ends = (list(c) for c in zip(*shuffled))
    assert self_times(parents, starts, ends) == [expected[i] for i in order]


def test_recorder_totals_split_self_time_by_name():
    rec = SpanRecorder()
    outer, inner = rec.sid("a:outer", "model"), rec.sid("b:inner", "storage")
    i = rec.begin(outer)
    j = rec.begin(inner)
    rec.finish(j)
    rec.finish(i)
    totals = rec.totals()
    assert totals["a:outer"]["calls"] == totals["b:inner"]["calls"] == 1
    whole = (rec.end[0] - rec.start[0]) * 1e-9
    assert totals["a:outer"]["self_s"] + totals["b:inner"]["self_s"] == pytest.approx(whole)
    i = rec.begin(outer)
    rec.begin(inner)
    with pytest.raises(RuntimeError):
        rec.finish(i)


def _gen(log):
    got = yield 1
    try:
        yield got * 2
    except ValueError:
        yield "caught"
    finally:
        log.append("finally")
    return "done"


def test_resumed_keeps_generator_semantics():
    rec = SpanRecorder()
    sid = rec.sid("x", "other")
    log = []
    r = Resumed(_gen(log), sid, rec)
    assert r.__name__ == "_gen"
    assert next(r) == 1
    assert r.send(5) == 10
    assert r.throw(ValueError("boom")) == "caught"
    with pytest.raises(StopIteration) as stop:
        next(r)
    assert stop.value.value == "done"
    assert log == ["finally"]
    assert len(rec) == 4 and not rec.stack  # one span per resume

    # close() reaches the wrapped generator.
    log.clear()
    r = Resumed(_gen(log), sid, rec)
    next(r)
    r.send(1)
    r.close()
    assert log == ["finally"]

    # An uncaught exception propagates unchanged.
    r = Resumed(_gen(log), sid, rec)
    next(r)
    with pytest.raises(KeyError):
        r.throw(KeyError("k"))

    # yield-from delegation forwards sends and the return value.
    def outer():
        result = yield from Resumed(_gen([]), sid, rec)
        return result

    o = outer()
    assert next(o) == 1
    assert o.send(3) == 6
    with pytest.raises(StopIteration) as stop:
        o.send(None)
    assert stop.value.value == "done"


def test_resumed_process_matches_bare_process():
    from repro.sim import Engine

    def proc(engine):
        total = 0
        for delay in (1.0, 2.0, 0.5):
            value = yield engine.timeout(delay, value=delay)
            total += value
        return total, engine.now

    rec = SpanRecorder()
    bare, wrapped = Engine(), Engine()
    assert bare.run_process(proc(bare)) == wrapped.run_process(
        Resumed(proc(wrapped), rec.sid("p", "other"), rec))


def test_tracer_uninstall_restores_every_attribute():
    from repro.sim.engine import Engine
    from repro.storage.disk import Disk

    before = (Engine.timeout, Engine.process, Disk.submit)
    tracer = Tracer().install()
    assert Engine.timeout is not before[0]
    tracer.uninstall()
    assert (Engine.timeout, Engine.process, Disk.submit) == before


def _child(mode):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "trace_replay", "3", mode],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=170,
        check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_traced_counts_repeat_and_every_mode_gives_one_digest():
    first, second = _child("traced"), _child("traced")
    plain, timed = _child("untraced"), _child("timed")
    exact = [m.name for m in PER_LAYER if m.kind != "host"
             and m.name in first["layers"]]
    assert exact
    assert {n: first["layers"][n] for n in exact} == \
        {n: second["layers"][n] for n in exact}
    assert first["digest"] == second["digest"] == plain["digest"] \
        == timed["digest"]
    assert first["failed"] == plain["failed"] == timed["failed"] == 0
    assert timed["probe"]["samples"] > 1


def test_changed_digest_is_an_error():
    good = json.loads(run.EXPECTED.read_text())["trace_replay"]
    runs = [{"digest": good}, {"digest": good}]
    assert run.check_digests("trace_replay", run.DEFAULT_SEED, runs) is None
    assert run.check_digests("trace_replay", run.DEFAULT_SEED,
                             [{"digest": "0" * 64}]) is not None
    assert run.check_digests("trace_replay", 7,
                             [{"digest": "a"}, {"digest": "b"}]) is not None


def test_benchmark_json_matches_spec():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS]
    assert doc["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END]
    assert doc["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in PER_LAYER]
