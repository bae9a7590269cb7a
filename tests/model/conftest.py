"""QCRD speedup studies over the paper's full counts, run once per
session and shared by the Figure 4 / Figure 5 tests."""

import pytest

from repro.model import build_qcrd, cpu_speedup_study, disk_speedup_study


@pytest.fixture(scope="session")
def qcrd_disk_speedups():
    """Figure 4's study: ``{disks: speedup}`` over 1, 2, 4, 8, 16, 32."""
    return disk_speedup_study(build_qcrd())


@pytest.fixture(scope="session")
def qcrd_cpu_speedups():
    """Figure 5's study: ``{cpus: speedup}`` over 1, 2, 4, 8, 16, 32."""
    return cpu_speedup_study(build_qcrd())
