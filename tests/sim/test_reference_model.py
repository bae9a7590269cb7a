"""Reference-model test for the event engine.

A hypothesis state machine applies the same random operations to the
real :class:`~repro.sim.Engine` (with a :class:`~repro.sim.TaskLoop`)
and to :class:`RefEngine`, a naive scheduler written for clarity
rather than speed: a plain list scanned for its ``(time, seq)``
minimum, one dispatch function, and the "only background left" rule
evaluated by scanning the list.  After every operation both sides must
have logged the same ``(time, tag, ...)`` dispatch records, agree on
``now`` and agree on the state of every event.

The operations: schedule a timeout, create an event and later succeed
or fail it, schedule a (possibly self-rescheduling) background call,
spawn a process, spawn a TaskLoop task, build ``AllOf``/``AnyOf`` over
existing events, ``run(until=t)``, ``run()`` and ``step()``.  Process
and task bodies run a random script of timeout waits, direct sleeps
(``engine.sleep``), event waits, conditions and triggers, so wake-ups
also happen inside the drain loop.  The model has no direct sleep: it
sleeps on a timeout event, so the real engine's kind-3 entries must
wake exactly where, and in the order, that timeout would.
"""

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.errors import DeadlockError, SimulationError
from repro.sim import Engine, TaskLoop

_PENDING = object()


class Boom(Exception):
    """The failure every scripted ``fail`` raises, tagged by its source."""


# -- the reference model ---------------------------------------------------------


class RefEvent:
    def __init__(self, engine):
        self.engine = engine
        self.callbacks = []
        self._value = _PENDING
        self.ok = True

    @property
    def triggered(self):
        return self._value is not _PENDING

    @property
    def processed(self):
        return self.callbacks is None

    @property
    def value(self):
        assert self._value is not _PENDING
        return self._value

    def succeed(self, value=None):
        assert not self.triggered
        self._value = value
        self.engine.push(self.engine.now, "event", self)
        return self

    def fail(self, exception):
        assert not self.triggered
        self.ok = False
        self._value = exception
        self.engine.push(self.engine.now, "event", self)
        return self

    def add_callback(self, callback):
        if self.processed:
            self.engine.push(self.engine.now, "call", lambda: callback(self))
        else:
            self.callbacks.append(callback)


class RefCondition(RefEvent):
    def __init__(self, engine, events, need_all):
        super().__init__(engine)
        self.events = list(events)
        self.needed = len(self.events) if need_all else 1
        if not self.events:
            self.succeed({})
        for ev in self.events:
            ev.add_callback(self.check)

    def check(self, event):
        if self.triggered:
            return
        if not event.ok:
            self.fail(event.value)
            return
        self.needed -= 1
        if self.needed == 0:
            self.succeed({ev: ev.value for ev in self.events
                          if ev.triggered and ev.ok})


def _advance(generator, value, exc):
    """Resume ``generator``; returns ``("yield", event)``, ``("return",
    value)`` or ``("raise", error)``."""
    try:
        target = generator.send(value) if exc is None else generator.throw(exc)
    except StopIteration as stop:
        return "return", stop.value
    except BaseException as error:
        return "raise", error
    if not isinstance(target, RefEvent):
        return "raise", SimulationError(f"yielded {target!r}")
    return "yield", target


class RefProcess(RefEvent):
    def __init__(self, engine, generator, daemon):
        super().__init__(engine)
        self.generator = generator
        self.daemon = daemon
        if not daemon:
            engine.live += 1
        engine.push(engine.now, "call", lambda: self.resume(None, None))

    def wake(self, event):
        if event.ok:
            self.resume(event.value, None)
        else:
            self.resume(None, event.value)

    def resume(self, value, exc):
        what, result = _advance(self.generator, value, exc)
        if what == "yield":
            result.add_callback(self.wake)
            return
        if not self.daemon:
            self.engine.live -= 1
        if what == "return":
            self.succeed(result)
        else:
            self.fail(result)


class RefTask:
    def __init__(self, generator):
        self.generator = generator
        self.done = False
        self.ok = True
        self.result = None
        self.error = None
        self.callbacks = []

    def add_done_callback(self, callback):
        if self.done:
            callback(self)
        else:
            self.callbacks.append(callback)


class RefTaskLoop:
    """One daemon process that runs every ready task, then parks on a
    fresh wake-up event."""

    def __init__(self, engine):
        self.engine = engine
        self.ready = []
        self.wake = None

    def start(self):
        self.engine.process(self._run(), daemon=True)

    def spawn(self, generator, label=None):
        task = RefTask(generator)
        self.ready.append((task, None, None))
        self._wake_up()
        return task

    def completion_event(self, task):
        ev = RefEvent(self.engine)
        task.add_done_callback(
            lambda t: ev.succeed(t.result) if t.ok else ev.fail(t.error))
        return ev

    def _wake_up(self):
        if self.wake is not None and not self.wake.triggered:
            self.wake.succeed()

    def _run(self):
        while True:
            while self.ready:
                task, value, exc = self.ready.pop(0)
                self._resume(task, value, exc)
            self.wake = RefEvent(self.engine)
            yield self.wake
            self.wake = None

    def _resume(self, task, value, exc):
        what, result = _advance(task.generator, value, exc)
        if what == "yield":
            result.add_callback(lambda ev: self._ready(task, ev))
            return
        task.done = True
        task.ok = what == "return"
        if task.ok:
            task.result = result
        else:
            task.error = result
            if not task.callbacks:
                RefEvent(self.engine).fail(result)
        for callback in task.callbacks:
            callback(task)

    def _ready(self, task, event):
        if event.ok:
            self.ready.append((task, event.value, None))
        else:
            self.ready.append((task, None, event.value))
        self._wake_up()


class RefEngine:
    """The engine's contract with no optimisation: every queued entry is
    ``(time, seq, kind, payload)`` in an unordered list."""

    def __init__(self):
        self.now = 0.0
        self.entries = []
        self.seq = 0
        self.live = 0
        self.discarded = 0
        self.clamped = 0

    def push(self, when, kind, payload):
        self.seq += 1
        self.entries.append((when, self.seq, kind, payload))

    def _pop_first(self):
        first = min(range(len(self.entries)), key=lambda i: self.entries[i][:2])
        return self.entries.pop(first)

    def _dispatch(self, when, kind, payload):
        self.now = when
        if kind != "event":
            payload()
            return
        callbacks, payload.callbacks = payload.callbacks, None
        if callbacks:
            for callback in callbacks:
                callback(payload)
        elif not payload.ok and not isinstance(payload, RefProcess):
            raise payload.value

    # the Engine API the scripts use

    def event(self):
        return RefEvent(self)

    def timeout(self, delay, value=None):
        ev = RefEvent(self)
        ev._value = value
        self.push(self.now + delay, "event", ev)
        return ev

    def sleep(self, delay):
        return self.timeout(delay)

    def process(self, generator, daemon=False):
        return RefProcess(self, generator, daemon)

    def all_of(self, events):
        return RefCondition(self, events, need_all=True)

    def any_of(self, events):
        return RefCondition(self, events, need_all=False)

    def schedule_background(self, fn, delay=0.0):
        self.push(self.now + delay, "background", fn)

    def step(self):
        if not self.entries:
            raise SimulationError("step() on an empty event queue")
        when, _seq, kind, payload = self._pop_first()
        self._dispatch(when, kind, payload)

    def run(self, until=None):
        while self.entries:
            when = min(self.entries, key=lambda e: e[:2])[0]
            if until is not None and when > until:
                self.now = until
                self.clamped += 1
                return self.now
            when, _seq, kind, payload = self._pop_first()
            if kind == "background" and all(
                    e[2] == "background" for e in self.entries):
                self.discarded += 1
                continue
            self._dispatch(when, kind, payload)
        if self.live:
            raise DeadlockError(f"{self.live} live process(es) blocked forever")
        if until is not None and until > self.now:
            self.now = until
            self.clamped += 1
        return self.now


# -- the state machine ----------------------------------------------------------


def _norm(value):
    """A value both sides can compare: event keys dropped, errors by type."""
    if isinstance(value, dict):
        return tuple(_norm(v) for v in value.values())
    if isinstance(value, Boom):
        return ("Boom",) + value.args
    if isinstance(value, BaseException):
        return (type(value).__name__,)
    return value


class Side:
    """One engine, its task loop, and what the operations built on it."""

    def __init__(self, engine, loop):
        self.engine = engine
        self.loop = loop
        loop.start()
        self.events = []
        self.tasks = []
        self.log = []

    def logger(self, tag):
        return lambda ev: self.log.append(
            (self.engine.now, tag, "fired", ev.ok, _norm(ev.value)))


def _body(side, tag, script, raises):
    """A process or task: runs ``script``, logging every resume."""
    engine = side.engine
    side.log.append((engine.now, tag, "start"))
    for op, arg in script:
        try:
            if op == "sleep":
                value = yield engine.timeout(arg, tag)
            elif op == "nap":
                value = yield engine.sleep(arg)
            elif op == "wait":
                value = yield side.events[arg]
            elif op == "all":
                value = yield engine.all_of([side.events[j] for j in arg])
            elif op == "any":
                value = yield engine.any_of([side.events[j] for j in arg])
            elif side.events[arg].triggered:
                value = "already"
            elif op == "succeed":
                value = side.events[arg].succeed(tag).ok
            else:
                value = side.events[arg].fail(Boom(tag)).ok
        except Boom as exc:
            value = exc
        side.log.append((engine.now, tag, op, _norm(value)))
    if raises:
        raise Boom(tag)
    return tag


DELAYS = st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.5, 2.5])
RAW = st.integers(min_value=0, max_value=63)
TICK_CAP = 500
SCRIPTS = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["sleep", "nap"]), DELAYS),
        st.tuples(st.sampled_from(["wait", "succeed", "fail"]), RAW),
        st.tuples(st.sampled_from(["all", "any"]), st.lists(RAW, max_size=3)),
    ),
    max_size=4,
)


class EngineVsModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        engine, ref = Engine(), RefEngine()
        self.real = Side(engine, TaskLoop(engine))
        self.ref = Side(ref, RefTaskLoop(ref))
        self.sides = (self.real, self.ref)
        self.plain = []  # indices of plain events, the ones scripts trigger
        self.tags = 0

    def _tag(self):
        self.tags += 1
        return self.tags

    def _add(self, make, observed):
        tag = self._tag()
        for side in self.sides:
            ev = make(side, tag)
            if observed:
                ev.add_callback(side.logger(tag))
            side.events.append(ev)

    def _resolve(self, script):
        """Map raw draws onto the events that exist right now."""
        steps = []
        for op, arg in script:
            if op in ("sleep", "nap"):
                steps.append((op, arg))
            elif op in ("all", "any"):
                if self.real.events:
                    steps.append((op, [a % len(self.real.events) for a in arg]))
            elif op == "wait":
                if self.real.events:
                    steps.append((op, arg % len(self.real.events)))
            elif self.plain:
                steps.append((op, self.plain[arg % len(self.plain)]))
        return steps

    def _drive(self, action):
        for side in self.sides:
            try:
                result = action(side.engine)
            except (Boom, SimulationError) as exc:
                result = ("raised", _norm(exc))
            side.log.append((side.engine.now, "caller", result))

    # -- scheduling -------------------------------------------------------

    @rule(delay=DELAYS, observed=st.booleans())
    def timeout(self, delay, observed):
        self._add(lambda side, tag: side.engine.timeout(delay, tag), observed)

    @rule(observed=st.booleans())
    def new_event(self, observed):
        self.plain.append(len(self.real.events))
        self._add(lambda side, tag: side.engine.event(), observed)

    @rule(raw=RAW, ok=st.booleans())
    def trigger(self, raw, ok):
        if not self.plain:
            return
        j = self.plain[raw % len(self.plain)]
        tag = self._tag()
        for side in self.sides:
            ev = side.events[j]
            if not ev.triggered:
                ev.succeed(tag) if ok else ev.fail(Boom(tag))

    @rule(delay=DELAYS, period=st.sampled_from([None, 0.5, 1.0]))
    def background(self, delay, period):
        tag = self._tag()

        def sampler(side):
            # A periodic sampler reschedules itself far past any workload
            # here; the cap turns a broken discard rule into a log
            # mismatch instead of an endless run.
            ticks = iter(range(TICK_CAP))

            def tick():
                side.log.append((side.engine.now, tag, "background"))
                if period is not None and next(ticks, None) is not None:
                    side.engine.schedule_background(tick, period)
            return tick

        for side in self.sides:
            side.engine.schedule_background(sampler(side), delay)

    @rule(script=SCRIPTS, daemon=st.booleans(), raises=st.booleans(),
          observed=st.booleans())
    def spawn_process(self, script, daemon, raises, observed):
        steps = self._resolve(script)
        self._add(lambda side, tag: side.engine.process(
            _body(side, tag, steps, raises), daemon=daemon), observed)

    @rule(script=SCRIPTS, raises=st.booleans(),
          watch=st.sampled_from(["none", "callback", "completion"]))
    def spawn_task(self, script, raises, watch):
        steps = self._resolve(script)
        tag = self._tag()
        for side in self.sides:
            task = side.loop.spawn(_body(side, tag, steps, raises))
            side.tasks.append(task)
            if watch == "callback":
                task.add_done_callback(lambda t, side=side: side.log.append(
                    (side.engine.now, tag, "done", t.ok, _norm(t.result))))
        if watch == "completion":
            self._add(lambda side, _tag: side.loop.completion_event(
                side.tasks[-1]), True)

    @rule(raws=st.lists(RAW, max_size=4), need_all=st.booleans(),
          observed=st.booleans())
    def condition(self, raws, need_all, observed):
        if not self.real.events and raws:
            return
        picks = [r % len(self.real.events) for r in raws]

        def make(side, _tag):
            events = [side.events[j] for j in picks]
            if need_all:
                return side.engine.all_of(events)
            return side.engine.any_of(events)

        self._add(make, observed)

    # -- driving ----------------------------------------------------------

    @rule(dt=st.sampled_from([0.0, 0.25, 1.0, 2.0, 5.0]))
    def run_until(self, dt):
        until = self.real.engine.now + dt
        self._drive(lambda engine: engine.run(until=until))

    @rule()
    def run_all(self):
        self._drive(lambda engine: engine.run())

    @rule()
    def step(self):
        self._drive(lambda engine: engine.step())

    @invariant()
    def agree(self):
        assert self.real.log == self.ref.log
        assert self.real.engine.now == self.ref.engine.now
        assert ([(e.triggered, e.processed) for e in self.real.events]
                == [(e.triggered, e.processed) for e in self.ref.events])
        assert ([(t.done, t.ok) for t in self.real.tasks]
                == [(t.done, t.ok) for t in self.ref.tasks])


EngineVsModel.TestCase.settings = settings(
    max_examples=150, stateful_step_count=30, deadline=None)
TestEngineVsModel = EngineVsModel.TestCase


# -- the two rules a random walk might miss ----------------------------------


def test_background_only_left_is_discarded_like_the_model():
    m = EngineVsModel()
    m.background(delay=0.5, period=1.0)
    m.spawn_process(script=[("sleep", 2.5)], daemon=False, raises=False,
                    observed=True)
    m.run_all()
    m.agree()
    assert m.ref.engine.discarded == 1
    assert m.real.engine.now == 2.5
    # The tick at 2.5 still runs: the process's own completion is queued
    # behind it.  The tick at 3.5 is the one discarded.
    assert [rec[0] for rec in m.real.log if rec[1:] == (1, "background")] == [
        0.5, 1.5, 2.5]


def test_clock_clamps_at_until_like_the_model():
    m = EngineVsModel()
    m.timeout(delay=2.5, observed=True)
    m.run_until(dt=1.0)  # next entry lies past the horizon
    m.agree()
    assert m.real.engine.now == 1.0
    m.run_until(dt=5.0)  # queue drains before the horizon
    m.agree()
    assert m.real.engine.now == 6.0
    assert m.ref.engine.clamped == 2


def test_direct_sleeps_dispatch_like_the_model_in_step_and_run():
    m = EngineVsModel()
    m.spawn_process(script=[("nap", 1.0), ("sleep", 1.0), ("nap", 0.0)],
                    daemon=False, raises=False, observed=True)
    m.spawn_task(script=[("nap", 1.0), ("nap", 0.5)], raises=False,
                 watch="callback")
    for _ in range(6):
        m.step()
        m.agree()
    m.run_all()
    m.agree()
    naps = [rec[0] for rec in m.real.log if rec[2:3] == ("nap",)]
    assert naps == [1.0, 1.0, 1.5, 2.0]
