"""Pins the one layer taxonomy over every name the bench emits.

The cases are every span, instant and counter name the bench
experiments record under ``--trace-jsonl`` (instance suffixes collapsed
the way the trace summary collapses them), and every registry metric
their ``--telemetry-out`` series label, each with the layer it carries.
"""

import pytest

from repro.obs.layers import layer_of

#: (trace-event name, category) → layer.
EVENTS = {
    ("alert.firing", "telemetry"): "telemetry",
    ("alert.resolved", "telemetry"): "telemetry",
    ("cache.fetch", "io"): "cache",
    ("cache.hit_ratio", "io"): "cache",
    ("cache.prefetch", "io"): "cache",
    ("cluster.commit", "cluster"): "cluster",
    ("cluster.replica_ack", "cluster"): "cluster",
    ("cluster.serve", "cluster"): "cluster",
    ("disk.read", "storage"): "disk",
    ("disk.write", "storage"): "disk",
    ("engine.run", "sim"): "sim",
    ("failover", "cluster"): "cluster",
    ("fault.injected", "cluster"): "cluster",
    ("fs.close", "io"): "filesystem",
    ("fs.open", "io"): "filesystem",
    ("fs.read", "io"): "filesystem",
    ("fs.seek", "io"): "filesystem",
    ("fs.write", "io"): "filesystem",
    ("http.get", "webserver"): "webserver",
    ("http.post", "webserver"): "webserver",
    ("jit.compile", "jit"): "jit",
    ("lb.eject", "cluster"): "cluster",
    ("lb.readmit", "cluster"): "cluster",
    ("local-disk.queue", "storage"): "disk",
    ("net.unreachable", "net"): "network",
    ("node-0.disk.queue", "storage"): "disk",
    ("node.down", "cluster"): "cluster",
    ("node.up", "cluster"): "cluster",
    ("process:_setup", "sim"): "sim",
    ("process:cluster.arrivals", "sim"): "sim",
    ("process:cluster.rebuild.node-*", "sim"): "sim",
    ("process:driver", "sim"): "sim",
    ("process:fault.node.crash.node-*", "sim"): "sim",
    ("process:fault.node.partition.node-*", "sim"): "sim",
    ("process:main", "sim"): "sim",
    ("process:prefetch[*]", "sim"): "sim",
    ("process:replay-*", "sim"): "sim",
    ("process:req-*", "sim"): "sim",
    ("process:waiter", "sim"): "sim",
    ("process:worker-*", "sim"): "sim",
    ("process:writeback[*]", "sim"): "sim",
    ("rebalance.move", "cluster"): "cluster",
    ("replay.close", "replay"): "replay",
    ("replay.open", "replay"): "replay",
    ("replay.read", "replay"): "replay",
    ("replay.seek", "replay"): "replay",
    ("replay.write", "replay"): "replay",
    ("server-disk.queue", "storage"): "disk",
    ("stream.open", "io"): "filesystem",
    ("stream.read_to_end", "io"): "filesystem",
    # A retry instant belongs to the layer its Retrier serves.
    ("retry.attempt", "cluster"): "cluster",
    ("retry.attempt", "io"): "filesystem",
    ("retry.attempt", "webserver"): "webserver",
    ("retry.attempt", "replay"): "replay",
    ("unknown.thing", "io"): "filesystem",
    ("unknown.thing", ""): "other",
}

_DISKS = ["local-disk", "m0", "m1", "server-disk"] + [
    f"node-{i}.disk" for i in range(5)]
_DISK_METRICS = ["busy", "bytes_read", "bytes_written", "completed",
                 "media_errors", "queue_depth", "queue_max_depth",
                 "response", "service"]
_SERVER_METRICS = [
    "server.connections", "server.deadline_exceeded", "server.peak_processes",
    "server.read", "server.response", "server.shed", "server.threads",
    "server.write", "webserver.errors", "webserver.failures",
    "webserver.read_ms", "webserver.response_ms", "webserver.write_ms",
]
_SERVER_LABELS = [
    {"architecture": "eventloop", "server": "localhost"},
    {"architecture": "thread", "node": "node-0", "server": "node-0"},
]
_RETRY_METRICS = ["attempts", "exhausted", "recovered", "retries", "timeouts"]
_UNLABELED = {
    "cache": ["cache.resident_pages", "cache.stats"],
    "client": [f"workload.retry.{m}" for m in _RETRY_METRICS],
    "cluster": [
        "cluster.aborted", "cluster.degraded", "cluster.failovers",
        "cluster.node.conn_resets", "cluster.node.crashes",
        "cluster.rebuild.bytes", "cluster.rebuild.keys",
        "cluster.rebuild_progress", "cluster.requests",
        "lb.ejections", "lb.failovers", "lb.served",
    ] + [f"cluster.retry.{m}" for m in _RETRY_METRICS],
    "filesystem": ["fs.close", "fs.files", "fs.open", "fs.ops", "fs.read",
                   "fs.seek", "fs.write", "prefetch.pages_scheduled"],
    "jit": ["jit.methods", "jit.time", "jit.compiles"],
    "resilience": ["faults.injected"]
    + [f"retry.{m}" for m in _RETRY_METRICS],
    "vm": ["heap.used"],
    "other": ["unknown.thing"],
}

#: (metric name, registry labels, layer).
METRICS = (
    [(f"{disk}.{m}", {"device": disk}, "disk")
     for disk in _DISKS for m in _DISK_METRICS]
    + [(f"mirror.{m}", {"device": "mirror"}, "disk")
       for m in ("degraded_reads", "failovers", "rebuild_progress")]
    # Registry labels outrank name prefixes.
    + [("ssd0.service", {"device": "ssd0"}, "disk"),
       ("latency", {"server": "localhost"}, "webserver")]
    + [(name, labels, "webserver")
       for name in _SERVER_METRICS for labels in _SERVER_LABELS]
    + [(name, {}, layer)
       for layer, names in _UNLABELED.items() for name in names]
)


CASES = (
    [pytest.param(n, c, None, layer, id=f"{n}@{c}")
     for (n, c), layer in EVENTS.items()]
    + [pytest.param(n, "", labels, layer,
                    id=n + "".join(f",{k}={v}" for k, v in sorted(labels.items())))
       for n, labels, layer in METRICS]
)


@pytest.mark.parametrize("name, category, labels, layer", CASES)
def test_layer_of(name, category, labels, layer):
    assert layer_of(name, category, labels) == layer
