"""The architectural layer taxonomy shared by traces and telemetry.

Trace analysis attributes spans and instants to a layer (disk / cache /
filesystem / JIT / webserver ...) and the telemetry sampler labels each
registry metric with one, so both views group the same way.  One table
serves both: trace events carry a category to fall back on, registry
metrics carry labels instead.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

__all__ = ["layer_of"]

#: Name prefix → architectural layer.  No prefix is a prefix of
#: another, so the order does not matter.
_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("disk.", "disk"),
    ("cache.", "cache"),
    ("fs.", "filesystem"),
    ("stream.", "filesystem"),
    ("prefetch.", "filesystem"),
    ("heap.", "vm"),
    ("interp.", "vm"),
    ("runtime.", "vm"),
    ("jit.", "jit"),
    ("http.", "webserver"),
    ("server.", "webserver"),
    ("webserver.", "webserver"),
    ("replay.", "replay"),
    ("faults.", "resilience"),
    ("workload.", "client"),
    ("cluster.", "cluster"),
    ("lb.", "cluster"),
    ("node.", "cluster"),
    ("rebalance.", "cluster"),
    ("failover", "cluster"),
    ("process:", "sim"),
    ("engine.", "sim"),
)

#: Trace-event category → layer, for names no prefix claims.
_CATEGORIES = {
    "storage": "disk",
    "io": "filesystem",
    "jit": "jit",
    "webserver": "webserver",
    "replay": "replay",
    "net": "network",
    "cluster": "cluster",
    "sim": "sim",
}


def layer_of(name: str, category: str = "",
             labels: Optional[Dict[str, Any]] = None) -> str:
    """Architectural layer of a trace event or registry metric.

    Registry labels win over name prefixes: anything labeled with a
    ``device`` is the disk layer regardless of the device's name
    (disks register under their instance name, e.g. ``ssd0.service``),
    and a ``server`` label marks the webserver layer.  A trace event no
    prefix claims takes the layer of its category — so a
    ``retry.attempt`` instant belongs to the layer its ``Retrier``
    serves — while an unclaimed retry metric (``retry.*``,
    ``*.retry.*``, ``*.retries``) is resilience.
    """
    if labels:
        if "device" in labels:
            return "disk"
        if "server" in labels:
            return "webserver"
    for prefix, layer in _PREFIXES:
        if name.startswith(prefix):
            return layer
    if category:
        return _CATEGORIES.get(category, category)
    if name.startswith("retry.") or ".retry." in name or name.endswith(".retries"):
        return "resilience"
    return "other"
