"""Tests for the statistics collectors."""

import math
import re

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim import Counter, Engine, Histogram, Tally, TimeWeighted


def test_counter_basic():
    c = Counter("reqs")
    c.add()
    c.add(4)
    assert c.value == 5
    with pytest.raises(SimulationError):
        c.add(-1)


@pytest.mark.parametrize("n, expected", [
    (True, 1),          # bool is an Integral: counts as 1
    (np.int64(3), 3),   # NumPy integers are Integral too
    (0, 0),
])
def test_counter_add_accepts_integral(n, expected):
    c = Counter("reqs")
    c.add(n)
    assert c.value == expected
    assert type(c.value) is int


@pytest.mark.parametrize("n, message", [
    (-1, "Counter 'reqs': add of negative -1"),
    (np.int64(-2), "Counter 'reqs': add of negative -2"),
    (1.5, "Counter 'reqs': add() needs an integer, got 1.5"),
    ("3", "Counter 'reqs': add() needs an integer, got '3'"),
    (None, "Counter 'reqs': add() needs an integer, got None"),
])
def test_counter_add_rejects_bad_input(n, message):
    c = Counter("reqs")
    c.add(2)
    with pytest.raises(SimulationError, match=f"^{re.escape(message)}$"):
        c.add(n)
    assert c.value == 2


@pytest.mark.parametrize("value, expected", [
    (2.5, 2.5),
    (math.inf, math.inf),      # infinite is accepted; only NaN is not
    (-math.inf, -math.inf),
    (np.float64(0.25), 0.25),
    (3, 3.0),
    (True, 1.0),
])
def test_tally_record_accepts_real_numbers(value, expected):
    t = Tally("lat")
    t.record(value)
    assert t.values == [expected]
    assert type(t.values[0]) is float


@pytest.mark.parametrize("value, message", [
    (math.nan, "Tally 'lat': NaN observation"),
    (np.float64("nan"), "Tally 'lat': NaN observation"),
    ("x", "Tally 'lat': non-numeric observation 'x'"),
    (None, "Tally 'lat': non-numeric observation None"),
])
def test_tally_record_rejects_bad_input(value, message):
    t = Tally("lat")
    with pytest.raises(SimulationError, match=f"^{re.escape(message)}$"):
        t.record(value)
    assert t.count == 0
    with pytest.raises(SimulationError, match=f"^{re.escape(message)}$"):
        t.extend([1.0, 2.0, value])
    assert t.count == 0  # all or nothing


def test_tally_statistics():
    t = Tally()
    t.extend([1.0, 2.0, 3.0, 4.0])
    assert t.count == 4
    assert t.total == 10.0
    assert t.mean == 2.5
    assert t.minimum == 1.0
    assert t.maximum == 4.0
    assert t.percentile(50) == pytest.approx(2.5)
    assert t.std == pytest.approx(1.1180339887, rel=1e-9)


def test_tally_empty_raises():
    t = Tally()
    for attr in ("mean", "minimum", "maximum", "std"):
        with pytest.raises(SimulationError):
            getattr(t, attr)
    with pytest.raises(SimulationError):
        t.percentile(50)


def test_tally_values_is_copy():
    t = Tally()
    t.record(1.0)
    vals = t.values
    vals.append(99.0)
    assert t.count == 1


def test_time_weighted_mean():
    eng = Engine()
    tw = TimeWeighted(eng, initial=0.0)

    def proc():
        yield eng.timeout(2.0)
        tw.record(1.0)
        yield eng.timeout(2.0)
        tw.record(0.0)
        yield eng.timeout(4.0)

    eng.process(proc())
    eng.run()
    # value 0 for 2s, 1 for 2s, 0 for 4s → mean = 2/8
    assert tw.mean() == pytest.approx(0.25)
    assert tw.maximum == 1.0
    assert tw.current == 0.0


def test_time_weighted_zero_span():
    eng = Engine()
    tw = TimeWeighted(eng, initial=3.0)
    assert tw.mean() == 3.0  # no time elapsed → current value


def test_histogram_binning():
    h = Histogram(0.0, 10.0, bins=10)
    for v in [0.5, 1.5, 1.6, 9.99, -1.0, 10.0, 50.0]:
        h.record(v)
    assert h.count == 7
    assert h.underflow == 1
    assert h.overflow == 2
    assert h.counts[0] == 1
    assert h.counts[1] == 2
    assert h.counts[9] == 1
    assert h.mode_bin() == 1


def test_histogram_edges_and_validation():
    h = Histogram(0.0, 1.0, bins=4)
    edges = h.bin_edges()
    assert len(edges) == 5
    assert edges[0] == 0.0 and edges[-1] == 1.0
    with pytest.raises(SimulationError):
        Histogram(0.0, 1.0, bins=0)
    with pytest.raises(SimulationError):
        Histogram(1.0, 1.0, bins=2)
    with pytest.raises(SimulationError):
        Histogram(0.0, 1.0, bins=3).mode_bin()


def test_histogram_percentile_interpolates_within_bins():
    h = Histogram(0.0, 10.0, bins=10)
    for v in range(10):  # one sample per bin
        h.record(v + 0.5)
    # Mass interpolates linearly: p50 sits at the end of the 5th bin.
    assert h.percentile(50) == pytest.approx(5.0)
    assert h.percentile(90) == pytest.approx(9.0)
    assert 9.0 <= h.percentile(99) <= 10.0
    assert h.percentile(10) == pytest.approx(1.0)


def test_histogram_percentile_empty_raises():
    h = Histogram(0.0, 1.0, bins=4)
    with pytest.raises(SimulationError):
        h.percentile(50)


def test_histogram_percentile_out_of_range_q_raises():
    h = Histogram(0.0, 1.0, bins=4)
    h.record(0.5)
    for bad_q in (-1, -0.001, 100.001, 200):
        with pytest.raises(SimulationError):
            h.percentile(bad_q)


def test_histogram_percentile_q0_and_q100_extremes():
    h = Histogram(0.0, 10.0, bins=10)
    h.record(2.5)  # bin 2
    h.record(7.5)  # bin 7
    assert h.percentile(0) == pytest.approx(2.0)   # left edge of first mass
    assert h.percentile(100) == pytest.approx(8.0)  # right edge of last mass


def test_histogram_percentile_single_sample():
    h = Histogram(0.0, 10.0, bins=10)
    h.record(3.7)  # bin 3 spans [3, 4)
    for q in (0, 25, 50, 75, 100):
        assert 3.0 <= h.percentile(q) <= 4.0


def test_histogram_percentile_with_under_and_overflow():
    h = Histogram(0.0, 10.0, bins=10)
    h.record(-5.0)   # underflow counts as mass at low
    h.record(5.5)
    h.record(99.0)   # overflow counts as mass at high
    assert h.percentile(0) == 0.0
    assert h.percentile(100) == 10.0
    assert 5.0 <= h.percentile(50) <= 6.0


# -- windowed-telemetry contracts -------------------------------------------

def test_tally_values_since():
    t = Tally()
    t.extend([1.0, 2.0, 3.0])
    assert t.values_since(0) == [1.0, 2.0, 3.0]
    cursor = t.count
    assert t.values_since(cursor) == []
    t.extend([4.0, 5.0])
    assert t.values_since(cursor) == [4.0, 5.0]
    assert t.values_since(t.count) == []


def test_tally_values_since_negative_index_raises():
    t = Tally()
    t.record(1.0)
    with pytest.raises(SimulationError):
        t.values_since(-1)


def test_tally_values_since_returns_copy():
    t = Tally()
    t.extend([1.0, 2.0])
    window = t.values_since(0)
    window.append(99.0)
    assert t.count == 2


def test_histogram_merge_equals_concatenated_samples():
    """Merging two windows' histograms must answer quantile queries
    exactly as one histogram over the concatenated samples would —
    the property that makes per-window p50/p90/p99 composable."""
    first = [0.5, 1.2, 2.7, 3.3, 3.4]
    second = [0.1, 4.8, 4.9, 7.5, 9.1, 9.6]
    a = Histogram(0.0, 10.0, bins=20, name="w0")
    b = Histogram(0.0, 10.0, bins=20, name="w1")
    both = Histogram(0.0, 10.0, bins=20)
    for v in first:
        a.record(v)
        both.record(v)
    for v in second:
        b.record(v)
        both.record(v)
    merged = a.merge(b)
    assert merged.count == both.count == len(first) + len(second)
    assert list(merged.counts) == list(both.counts)
    for q in (50, 90, 99):
        assert merged.percentile(q) == pytest.approx(both.percentile(q))
    assert merged.name == "w0+w1"
    # Merge does not mutate its operands.
    assert a.count == len(first) and b.count == len(second)


def test_histogram_merge_combines_under_and_overflow():
    a = Histogram(0.0, 1.0, bins=4)
    b = Histogram(0.0, 1.0, bins=4)
    a.record(-1.0)
    b.record(2.0)
    b.record(3.0)
    merged = a.merge(b)
    assert merged.underflow == 1
    assert merged.overflow == 2
    assert merged.count == 3


def test_histogram_merge_rejects_mismatched_geometry():
    base = Histogram(0.0, 10.0, bins=10)
    for other in (Histogram(0.0, 10.0, bins=20),
                  Histogram(0.0, 5.0, bins=10),
                  Histogram(1.0, 10.0, bins=10)):
        with pytest.raises(SimulationError):
            base.merge(other)


def test_time_weighted_integral():
    eng = Engine()
    tw = TimeWeighted(eng, initial=2.0)

    def proc():
        yield eng.timeout(3.0)
        tw.record(4.0)
        yield eng.timeout(2.0)

    eng.process(proc())
    eng.run()
    # 2.0 for 3s, then 4.0 for 2s.
    assert tw.integral() == pytest.approx(14.0)
    assert tw.integral(4.0) == pytest.approx(10.0)  # one second into 4.0
    # Window mean from integral differences: [3, 5] averages 4.0.
    assert (tw.integral(5.0) - tw.integral(3.0)) / 2.0 == pytest.approx(4.0)


def test_time_weighted_integral_before_last_change_raises():
    eng = Engine()
    tw = TimeWeighted(eng, initial=0.0)

    def proc():
        yield eng.timeout(2.0)
        tw.record(1.0)

    eng.process(proc())
    eng.run()
    with pytest.raises(SimulationError):
        tw.integral(1.0)
