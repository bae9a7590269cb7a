"""Tests for the closed-form model predictions."""

import pytest

from repro.errors import ModelError
from repro.model import (
    Application,
    ApplicationExecutor,
    MachineConfig,
    Program,
    WorkingSet,
    build_qcrd,
    predict_application_time,
    predict_program_time,
    predict_speedup,
    speedup_bound,
)
from repro.model.speedup import PAPER_COUNTS


def simple_program(phi=0.5, gamma=0.0, total=10.0, name="p"):
    return Program(name, [WorkingSet(phi, gamma, 1.0, 1)], total)


def test_predict_program_time_formula():
    p = simple_program(phi=0.4, gamma=0.1, total=10.0)
    # R_CPU=5, R_Disk=4, R_COM=1.
    assert predict_program_time(p, cpus=1, disks=1) == pytest.approx(10.0)
    assert predict_program_time(p, cpus=5, disks=2) == pytest.approx(1 + 2 + 1)
    with pytest.raises(ModelError):
        predict_program_time(p, cpus=0)


def test_predict_application_is_max_over_programs():
    app = Application(
        "a", [simple_program(total=10.0, name="x"), simple_program(total=30.0, name="y")]
    )
    assert predict_application_time(app) == pytest.approx(30.0)


def test_predict_speedup_curve():
    app = Application("a", [simple_program(phi=0.5, total=10.0)])
    s = predict_speedup(app, "cpus", counts=(2, 4))
    assert s[1] == 1.0
    # T(P)=5/P+5 → s(2)=10/7.5, s(4)=10/6.25
    assert s[2] == pytest.approx(10 / 7.5)
    assert s[4] == pytest.approx(10 / 6.25)
    with pytest.raises(ModelError):
        predict_speedup(app, "gpus", counts=(2,))


def test_speedup_bound():
    app = Application("a", [simple_program(phi=0.5, total=10.0)])
    assert speedup_bound(app, "cpus") == pytest.approx(2.0)
    assert speedup_bound(app, "disks") == pytest.approx(2.0)
    pure_cpu = Application("b", [simple_program(phi=0.0, total=10.0)])
    with pytest.raises(ModelError):
        speedup_bound(pure_cpu, "cpus")  # unbounded


def test_qcrd_bounds_match_paper_story():
    app = build_qcrd()
    # Disks barely help; CPUs help until ~2.4.
    assert speedup_bound(app, "disks") < 1.35
    assert 2.0 < speedup_bound(app, "cpus") < 2.6


def test_simulation_tracks_prediction_within_tolerance(
    qcrd_disk_speedups, qcrd_cpu_speedups
):
    """The validation the paper does against the real QCRD: simulated
    speedups within ~10% of the model's closed form, at every count of
    EXPERIMENTS.md "Figure 4" and "Figure 5"."""
    app = build_qcrd()
    for resource, simulated in (
        ("disks", qcrd_disk_speedups),
        ("cpus", qcrd_cpu_speedups),
    ):
        predicted = predict_speedup(app, resource, PAPER_COUNTS)
        for n in PAPER_COUNTS:
            assert simulated[n] == pytest.approx(predicted[n], rel=0.10), (
                resource,
                n,
            )


def test_prediction_monotone_in_resources():
    app = build_qcrd()
    for resource in ("cpus", "disks"):
        s = predict_speedup(app, resource, counts=(2, 4, 8, 16, 32))
        values = [s[n] for n in (1, 2, 4, 8, 16, 32)]
        assert values == sorted(values)
        assert values[-1] <= speedup_bound(app, resource) + 1e-9
