#!/usr/bin/env python3
"""Bench regression gate demo: baseline → perturbed run → gate failure.

Snapshots the web-server experiments (Tables 5–6) as a baseline, then
re-runs them on a deliberately slower disk (an injected regression)
and shows ``gate_compare`` catching the slowdown — the same exact
check ``python -m repro.obs gate`` runs in CI against
``BENCH_seed.json``.  Exits 0 when the slowdown is caught.

Usage::

    python examples/regression_gate.py [output-dir]
"""

import sys
import tempfile
from dataclasses import replace
from pathlib import Path

from repro.obs.report import (
    gate_compare,
    load_baseline,
    render_gate_report,
    write_baseline,
)
from repro.bench.experiments.tab5_tab6_webserver import run_tab5, run_tab6
from repro.storage import DiskParams
from repro.webserver import HostConfig


def main(out_dir: Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)

    # 1. Baseline snapshot: the paper configuration.
    base_path = out_dir / "BENCH_base.json"
    write_baseline(str(base_path), [run_tab5(), run_tab6()], label="paper config")
    print(f"baseline  -> {base_path}")

    # 2. Perturbed run: an 8x slower disk (transfer + controller), the
    #    kind of regression a bad storage-layer change would cause.
    slow = replace(
        DiskParams(),
        transfer_rate=DiskParams().transfer_rate / 8,
        controller_overhead=DiskParams().controller_overhead * 8,
    )
    config = HostConfig(disk_params=slow)
    cand_path = out_dir / "BENCH_slow_disk.json"
    write_baseline(
        str(cand_path),
        [run_tab5(config=config), run_tab6(config=config)],
        label="slow disk",
    )
    print(f"candidate -> {cand_path}\n")

    # 3. The gate: identical machinery to `python -m repro.obs gate`.
    findings = gate_compare(
        load_baseline(str(base_path)),
        load_baseline(str(cand_path)),
    )
    print(render_gate_report(findings))
    print(f"\ngate would exit {'1 (difference detected)' if findings else '0'}")
    if not findings:
        print("unexpected: the injected slowdown was not detected")
        return 1
    return 0


if __name__ == "__main__":
    target = (Path(sys.argv[1]) if len(sys.argv) > 1
              else Path(tempfile.mkdtemp(prefix="repro-gate-")))
    raise SystemExit(main(target))
