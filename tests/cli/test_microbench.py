"""Tests for the CIL microbenchmark kernels."""

import pytest

from repro.cli.microbench import KERNELS, build_kernel, run_kernel, run_suite
from repro.errors import CliError


def test_kernel_registry():
    assert set(KERNELS) == {"arith", "branch", "call", "alloc"}
    with pytest.raises(CliError):
        build_kernel("quantum")
    with pytest.raises(CliError):
        run_kernel("arith", n=0)


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_kernel_results_are_correct(name):
    """Every kernel's CIL result matches the pure-Python oracle."""
    result = run_kernel(name, n=60)
    assert result.correct, (name, result.result, result.expected)
    assert result.instructions > 0
    assert result.first_call_time > result.warm_call_time > 0
    assert result.warmup_ratio > 1.0


def test_arith_kernel_specific_value():
    r = run_kernel("arith", n=10)
    assert r.result == sum(i * i + 3 * i for i in range(10)) == 420


def test_branch_kernel_specific_value():
    r = run_kernel("branch", n=15)
    # multiples of exactly one of {3,5} below 15: 3,5,6,9,10,12 → 6
    assert r.result == 6


def test_alloc_kernel_triggers_gc():
    # 300 arrays of up to 299 elements * 8 B ≈ 360 KB > 256 KB gen-0.
    for n in (300, 400):
        r = run_kernel("alloc", n=n)
        assert r.correct, n
        assert r.gc_collections >= 1, n


def test_call_kernel_costs_more_than_arith():
    arith = run_kernel("arith", n=200)
    call = run_kernel("call", n=200)
    assert call.warm_call_time > arith.warm_call_time


def test_profiles_order_warm_performance():
    slow = run_kernel("arith", n=200, profile="interpreter")
    mid = run_kernel("arith", n=200, profile="sscli")
    fast = run_kernel("arith", n=200, profile="commercial")
    assert fast.warm_call_time < mid.warm_call_time < slow.warm_call_time
    # The interpreter has no compile delay: its cold/warm ratio is ~1.
    assert slow.warmup_ratio < 1.2
    assert fast.warmup_ratio > mid.warmup_ratio


def test_run_suite_covers_grid():
    results = run_suite(n=30, profiles=["sscli", "interpreter"])
    assert len(results) == 2 * len(KERNELS)
    assert all(r.correct for r in results)
    profiles = {r.profile for r in results}
    assert profiles == {"sscli", "interpreter"}
