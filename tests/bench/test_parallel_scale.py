"""Tests for the parallel bench runner and the ext_scale experiment."""

import json
import platform
import subprocess
from pathlib import Path

import pytest

from repro.bench.experiments.scale import run_ext_scale
from repro.bench.parallel import run_experiments_parallel, run_one
from repro.errors import BenchmarkError

#: Small fast experiments used to exercise the cross-process path.
_FAST = ["tab1", "fig2"]


def test_run_one_roundtrip():
    exp_id, payload, elapsed = run_one("tab1")
    assert exp_id == "tab1"
    assert payload["exp_id"] == "tab1"
    assert payload["rows"]
    assert elapsed > 0


def test_parallel_matches_serial():
    """--jobs output must be byte-identical to serial (wall aside)."""
    serial = [run_one(e) for e in _FAST]
    parallel = run_experiments_parallel(_FAST, jobs=2)
    assert len(parallel) == len(serial)
    for (sid, sdump, _), (presult, _) in zip(serial, parallel):
        assert presult.exp_id == sid
        assert json.dumps(presult.to_dict(), sort_keys=True) == \
            json.dumps(sdump, sort_keys=True)


def test_parallel_preserves_request_order():
    ordered = run_experiments_parallel(list(reversed(_FAST)), jobs=2)
    assert [r.exp_id for r, _ in ordered] == list(reversed(_FAST))


def test_parallel_rejects_bad_jobs():
    with pytest.raises(BenchmarkError, match="jobs"):
        run_experiments_parallel(_FAST, jobs=0)


def test_profile_dump_written(tmp_path):
    run_one("tab1", profile_dir=str(tmp_path))
    assert (tmp_path / "tab1.pstats").exists()


def test_bench_main_jobs_byte_identical(tmp_path):
    from repro.bench.__main__ import main

    serial_json = tmp_path / "serial.json"
    par_json = tmp_path / "par.json"
    serial_base = tmp_path / "serial_base.json"
    par_base = tmp_path / "par_base.json"
    assert main(_FAST + ["--json", str(serial_json),
                         "--baseline-out", str(serial_base)]) == 0
    assert main(_FAST + ["--jobs", "4", "--json", str(par_json),
                         "--baseline-out", str(par_base)]) == 0
    assert serial_json.read_bytes() == par_json.read_bytes()
    assert serial_base.read_bytes() == par_base.read_bytes()


def test_bench_main_wallclock_append(tmp_path):
    from repro.bench.__main__ import main

    trajectory = tmp_path / "wall.jsonl"
    assert main(["tab1", "--wallclock-append", str(trajectory)]) == 0
    assert main(["tab1", "--wallclock-append", str(trajectory)]) == 0
    lines = trajectory.read_text().splitlines()
    assert len(lines) == 2
    entry = json.loads(lines[0])
    assert "tab1" in entry["experiments"]
    assert entry["total_wall_seconds"] >= entry["experiments"]["tab1"]
    assert entry["python"] == platform.python_version()
    assert isinstance(entry["cpu"], str) and entry["cpu"]
    try:
        git = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             cwd=Path(main.__code__.co_filename).parent,
                             capture_output=True, text=True)
        commit = git.stdout.strip() if git.returncode == 0 else None
    except OSError:
        commit = None
    assert entry.get("commit") == commit


# ---------------------------------------------------------------------------
# ext_scale
# ---------------------------------------------------------------------------

def _small_scale():
    return run_ext_scale(scale=1, web_clients=2, web_requests=20,
                         kernel_n=40)


def test_ext_scale_smoke():
    result = _small_scale()
    assert result.exp_id == "ext_scale"
    phases = [row[0] for row in result.rows]
    assert phases == ["dmine_replay_x1", "webserver_20req",
                      "cil_kernels_n40"]
    for row in result.rows:
        assert row[1] > 0  # operations
        assert row[2] > 0  # instructions
        assert row[4] > 0  # simulated seconds


def test_ext_scale_deterministic():
    assert _small_scale().rows == _small_scale().rows


def test_ext_scale_rejects_uneven_split():
    with pytest.raises(ValueError, match="divide evenly"):
        run_ext_scale(scale=1, web_clients=3, web_requests=20, kernel_n=40)
