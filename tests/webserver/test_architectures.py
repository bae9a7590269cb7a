"""The server-architecture layer: thread vs. event loop.

Protocol parity (status codes, shedding, deadlines, resets must be
indistinguishable across architectures), the memory proxy, and the
event loop's headline claim: 10k+ concurrent connections in one
simulated process.
"""

import gc
import weakref

import pytest

from repro.errors import ConnectionReset, ReproError
from repro.faults import FaultPlan, FaultSpec, RetryPolicy
from repro.sim import TaskLoop
from repro.webserver import (
    EventLoopServer,
    HostConfig,
    SERVER_ARCHITECTURES,
    ThreadPerConnectionServer,
    WebServerConfig,
    WebServerHost,
    WorkloadConfig,
    WorkloadGenerator,
)

REQUESTS = [
    ("GET", "/images/photo1.jpg"),
    ("POST", "/upload", 20000),
    ("GET", "/images/photo2.jpg"),
    ("GET", "/missing.jpg"),
    ("GET", "/images/photo3.jpg"),
]


def test_registry_names_both_architectures():
    assert SERVER_ARCHITECTURES == {
        "thread": ThreadPerConnectionServer,
        "eventloop": EventLoopServer,
    }


def test_unknown_architecture_rejected():
    with pytest.raises(ReproError, match="unknown server architecture"):
        HostConfig(architecture="fibers")


def test_sequential_protocol_parity():
    outcomes = {}
    for arch in SERVER_ARCHITECTURES:
        host = WebServerHost(HostConfig(architecture=arch))
        results = host.run_request_sequence(REQUESTS)
        outcomes[arch] = [(r.status, r.body_bytes) for r in results]
        assert host.server.ARCHITECTURE == arch
        assert host.server.connections_accepted.value == len(REQUESTS)
    assert outcomes["thread"] == outcomes["eventloop"]
    assert [s for s, _ in outcomes["thread"]] == [200, 201, 200, 404, 200]


def test_memory_proxy_separates_architectures():
    def fanout(host, n):
        def one_get(c):
            yield from c.get("/images/photo2.jpg")

        def driver():
            procs = [host.engine.process(one_get(host.client()))
                     for _ in range(n)]
            for p in procs:
                yield p

        host.engine.run_process(driver())

    threaded = WebServerHost(HostConfig())
    fanout(threaded, 8)
    # Acceptor + one worker process per concurrent connection.
    assert threaded.server.peak_live_processes > 2

    evented = WebServerHost(HostConfig(architecture="eventloop"))
    fanout(evented, 8)
    assert evented.server.peak_live_processes == 1
    assert evented.server.live_processes == 1
    assert evented.server.peak_tasks >= 2  # acceptor + connections


def test_shedding_parity_under_concurrency_cap():
    statuses = {}
    for arch in SERVER_ARCHITECTURES:
        host = WebServerHost(HostConfig(
            architecture=arch,
            server=WebServerConfig(max_concurrency=1)))
        seen = []

        def one_get(c):
            r = yield from c.get("/images/photo1.jpg")
            seen.append(r.status)

        def fanout():
            procs = [host.engine.process(one_get(host.client()))
                     for _ in range(6)]
            for p in procs:
                yield p

        host.engine.run_process(fanout())
        assert host.server.shed.value > 0
        assert host.metrics.failure_reasons.get("shed") == host.server.shed.value
        statuses[arch] = sorted(seen)
    # Identical shed decisions and status codes on both designs.
    assert statuses["thread"] == statuses["eventloop"]
    assert 503 in statuses["eventloop"]


def test_deadline_downgrade_parity():
    for arch in SERVER_ARCHITECTURES:
        host = WebServerHost(HostConfig(
            architecture=arch,
            server=WebServerConfig(request_deadline=1e-6)))
        results = host.run_request_sequence([("GET", "/images/photo3.jpg")])
        assert results[0].status == 503
        assert host.server.deadline_exceeded.value == 1


def test_accept_backlog_refusal_parity():
    for arch in SERVER_ARCHITECTURES:
        host = WebServerHost(HostConfig(
            architecture=arch,
            server=WebServerConfig(max_concurrency=1, accept_backlog=1)))
        outcomes = []

        def one_get(c):
            try:
                r = yield from c.get("/images/photo1.jpg")
                outcomes.append(r.status)
            except ConnectionReset:
                outcomes.append("refused")

        def fanout():
            procs = [host.engine.process(one_get(host.client()))
                     for _ in range(8)]
            for p in procs:
                yield p

        host.engine.run_process(fanout())
        assert "refused" in outcomes, arch
        assert 200 in outcomes, arch
        assert host.server.listener.refused > 0


def test_architecture_label_on_metrics():
    host = WebServerHost(HostConfig(architecture="eventloop"))
    host.run_request_sequence([("GET", "/images/photo1.jpg")])
    snap = host.engine.metrics.snapshot()
    assert snap["server.connections"]["labels"]["architecture"] == "eventloop"
    assert snap["webserver.errors"]["labels"]["architecture"] == "eventloop"
    assert snap["server.peak_processes"]["value"] == 1
    # The threaded server's defining counter does not exist here.
    assert not hasattr(host.server, "threads_spawned")


def test_eventloop_server_tags_spans_with_architecture():
    from repro.obs import Tracer

    host = WebServerHost(HostConfig(architecture="eventloop",
                                    tracer=Tracer()))
    host.run_request_sequence([("GET", "/images/photo1.jpg")])
    gets = [s for s in host.engine.tracer.spans("webserver")
            if s.name == "http.get"]
    assert gets and all(s.attrs["arch"] == "eventloop" for s in gets)


def test_eventloop_sustains_10k_connections_in_one_process():
    """The headline scaling claim: >=10k concurrent in-flight
    connections with no per-connection server process."""
    n = 10_000
    host = WebServerHost(HostConfig(architecture="eventloop"))
    engine = host.engine
    server = host.server
    statuses = []

    # The client side multiplexes on a TaskLoop too — 10k client
    # processes would drown the measurement in client-side noise.
    client_loop = TaskLoop(engine, name="client.loop")
    client_loop.start()

    def one_get():
        client = host.client()
        result = yield from client.get("/images/photo2.jpg")
        statuses.append(result.status)

    def driver():
        tasks = [client_loop.spawn(one_get(), label=f"get-{i}")
                 for i in range(n)]
        for t in tasks:
            yield client_loop.completion_event(t)

    engine.run_process(driver())
    assert len(statuses) == n
    assert all(s == 200 for s in statuses)
    assert server.connections_accepted.value == n
    # The whole point: massive concurrency, one server process.
    assert server.peak_live_workers >= 1000
    assert server.peak_live_processes == 1
    assert server.peak_tasks >= server.peak_live_workers


def _shadow_workers(host):
    """Keep a test-side list of every worker thread the threaded server
    starts, and check the server's O(1) in-flight count against a scan
    of that list wherever the server reads it (each dispatch and each
    shed decision) and after every engine heap entry — so a count that
    lags the worker's exit by even one entry at the same instant fails.
    Returns ``(shadow, alive_at_each_read)``."""
    server, runtime, engine = host.server, host.runtime, host.engine
    shadow, seen = [], []
    create_thread = runtime.create_thread

    def recording_create_thread(*args, **kwargs):
        thread = create_thread(*args, **kwargs)
        shadow.append(thread)
        return thread

    def check():
        alive = sum(t.is_alive for t in shadow)
        assert server.live_workers == alive, engine.now
        assert server.live_processes == 1 + alive
        return alive

    def checked_run(until=None):
        assert until is None
        while engine._queue:
            engine.step()
            check()
        return engine.now

    runtime.create_thread = recording_create_thread
    engine.run = checked_run
    for hook in ("_note_dispatch", "_should_shed"):
        def checked(original=getattr(server, hook)):
            seen.append(check())
            return original()
        setattr(server, hook, checked)
    return shadow, seen


def test_live_worker_count_is_exact_in_closed_loop():
    host = WebServerHost(HostConfig())
    shadow, seen = _shadow_workers(host)
    outcome = WorkloadGenerator(host, WorkloadConfig(
        num_clients=8, requests_per_client=10, mean_think_time=1e-3,
    )).run()
    assert outcome.error_count == 0
    assert len(shadow) == host.server.connections_accepted.value == 80
    assert max(seen) > 1  # connections really overlapped
    assert host.server.live_workers == 0
    assert host.server.peak_live_processes == 1 + host.server.peak_live_workers


def test_live_worker_count_is_exact_when_shedding():
    host = WebServerHost(HostConfig(
        server=WebServerConfig(max_concurrency=1)))
    shadow, seen = _shadow_workers(host)
    outcomes = []

    def one_get(c):
        r = yield from c.get("/images/photo1.jpg")
        outcomes.append(r.status)

    def fanout():
        procs = [host.engine.process(one_get(host.client()))
                 for _ in range(12)]
        for p in procs:
            yield p

    host.engine.run_process(fanout())
    server = host.server
    assert server.shed.value > 0
    assert outcomes.count(503) == server.shed.value
    assert len(shadow) == server.connections_accepted.value
    assert server.peak_live_workers == 1
    assert server.live_workers == 0
    # One shed decision per arrival, one dispatch check per admission.
    assert len(seen) == 12 + len(shadow)


def test_live_worker_count_is_exact_when_workers_die():
    """Workers unwind through client resets (``net.drop`` faults, with
    clients retrying) and through handlers that raise out of the
    managed code; every exit must be counted out in the step that ends
    the worker."""
    plan = FaultPlan(seed=3, specs=(
        FaultSpec(kind="net.drop", target="server", probability=0.2),
    ))
    host = WebServerHost(HostConfig(fault_plan=plan))
    shadow, seen = _shadow_workers(host)
    do_post = host.runtime.intrinsics["Http.DoPost"]
    raised = []

    def failing_do_post(conn_id):
        if conn_id % 3 == 0:
            conn = host.server.handlers.connections.pop(conn_id)
            yield from conn.socket.close()
            raised.append(conn_id)
            raise RuntimeError(f"handler crash on connection {conn_id}")
        return (yield from do_post(conn_id))

    host.runtime.intrinsics["Http.DoPost"] = failing_do_post
    outcome = WorkloadGenerator(host, WorkloadConfig(
        num_clients=6, requests_per_client=15, get_fraction=0.5,
        mean_think_time=1e-3, retry=RetryPolicy(max_attempts=6),
    )).run()
    server = host.server
    assert raised
    assert outcome.retries > 0
    assert host.metrics.failure_reasons  # resets were accounted
    dead = [t for t in shadow if not t.is_alive and not t._process.ok]
    assert len(dead) == len(raised)
    assert len(shadow) == server.connections_accepted.value
    assert max(seen) > 1
    assert server.live_workers == sum(t.is_alive for t in shadow) == 0


def test_threaded_server_keeps_no_finished_workers():
    """Host-independent complexity check: the in-flight count is O(1)
    because the server holds no history of finished workers — an early
    worker thread is garbage once the run is over."""
    host = WebServerHost(HostConfig())
    runtime = host.runtime
    create_thread = runtime.create_thread
    early = []

    def recording_create_thread(*args, **kwargs):
        thread = create_thread(*args, **kwargs)
        if not early:
            early.append(weakref.ref(thread))
        return thread

    runtime.create_thread = recording_create_thread
    outcome = WorkloadGenerator(host, WorkloadConfig(
        num_clients=16, requests_per_client=125, mean_think_time=1e-3,
    )).run()
    assert host.server.connections_accepted.value == 2000
    assert outcome.error_count == 0
    gc.collect()
    assert early and early[0]() is None
    assert host.server.live_workers == 0


def test_closing_a_blocked_worker_does_not_count_it_out():
    """A worker blocked forever is closed with ``GeneratorExit`` only
    when the garbage collector gets to it; counting it out then would
    make the count depend on collector timing."""
    host = WebServerHost(HostConfig())
    shadow, _ = _shadow_workers(host)

    def silent_client():
        # Connect and never send: the worker blocks in ReceiveRequest.
        return (yield from host.network.connect("localhost", 5050))

    host.engine.run_process(silent_client())
    [worker] = shadow
    assert worker.is_alive and host.server.live_workers == 1
    worker._process.generator.close()
    assert host.server.live_workers == 1
