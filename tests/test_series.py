"""Tests for the FailureSeries container and its validation rules."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from srgrowth import FailureSeries


def test_basic_construction():
    s = FailureSeries(times=np.array([1.0, 2.0, 5.0]), horizon=10.0, label="demo")
    assert s.n == 3
    assert s.horizon == 10.0
    assert s.label == "demo"
    assert s.counts is None


def test_cumulative_defaults_to_one_through_n():
    s = FailureSeries(times=np.array([0.5, 1.5, 2.5, 4.0]), horizon=4.0)
    assert_allclose(s.cumulative, [1.0, 2.0, 3.0, 4.0])


def test_explicit_counts_round_trip():
    t = np.array([1.0, 2.0, 3.0])
    c = np.array([2.0, 7.0, 9.0])
    s = FailureSeries(times=t, horizon=3.0, counts=c)
    assert_allclose(s.cumulative, c)


def test_times_coerced_to_float_array():
    s = FailureSeries(times=[1, 2, 3], horizon=5)
    assert all(type(v) is float for v in s.times)
    assert isinstance(s.horizon, float)


def test_rejects_empty_times():
    with pytest.raises(ValueError):
        FailureSeries(times=np.array([]), horizon=1.0)


def test_rejects_two_dimensional_times():
    with pytest.raises(ValueError):
        FailureSeries(times=np.array([[1.0, 2.0]]), horizon=3.0)


def test_rejects_nonpositive_times():
    with pytest.raises(ValueError):
        FailureSeries(times=np.array([0.0, 1.0]), horizon=2.0)
    with pytest.raises(ValueError):
        FailureSeries(times=np.array([-1.0, 1.0]), horizon=2.0)


def test_rejects_decreasing_times():
    with pytest.raises(ValueError):
        FailureSeries(times=np.array([2.0, 1.0]), horizon=3.0)


def test_ties_are_allowed():
    s = FailureSeries(times=np.array([1.0, 1.0, 2.0]), horizon=2.0)
    assert s.n == 3


def test_rejects_nonfinite_times():
    with pytest.raises(ValueError):
        FailureSeries(times=np.array([1.0, np.nan]), horizon=2.0)
    with pytest.raises(ValueError):
        FailureSeries(times=np.array([1.0, np.inf]), horizon=2.0)


def test_rejects_horizon_before_last_failure():
    with pytest.raises(ValueError):
        FailureSeries(times=np.array([1.0, 4.0]), horizon=3.0)


def test_rejects_nonfinite_horizon():
    with pytest.raises(ValueError):
        FailureSeries(times=np.array([1.0]), horizon=np.inf)


def test_rejects_counts_length_mismatch():
    with pytest.raises(ValueError):
        FailureSeries(times=np.array([1.0, 2.0]), horizon=2.0, counts=np.array([1.0]))


def test_rejects_nonfinite_counts():
    with pytest.raises(ValueError):
        FailureSeries(
            times=np.array([1.0, 2.0]), horizon=2.0, counts=np.array([1.0, np.nan])
        )


def test_horizon_equal_to_last_failure_is_valid():
    s = FailureSeries(times=np.array([1.0, 2.0]), horizon=2.0)
    assert s.horizon == 2.0
