# Chi-square tail probabilities (srgrowth.stats.chi2_sf), checked against
# closed forms written out independently and against other implementations.
#
# Independent oracles:
#   - chi-square survival closed forms: S(x, 2) = e^(-x/2) and, for even
#     df = 2m, S(x, 2m) = e^(-x/2) * sum_{j<m} (x/2)^j / j! (Poisson sum);
#     for df = 1, S(x, 1) = erfc(sqrt(x/2)) with math.erfc;
#   - scipy.stats.chi2.sf, when scipy is installed;
#   - mpmath's regularized upper incomplete gamma at 40 digits, when mpmath
#     is installed.

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from srgrowth.stats import chi2_sf


def chi2_sf_even_df(x, df):
    m = df // 2
    total = sum((x / 2.0) ** j / math.factorial(j) for j in range(m))
    return math.exp(-x / 2.0) * total


def test_chi2_sf_df1_matches_erfc_oracle():
    for x in (0.5, 1.0, 2.0, 3.841, 6.0, 10.0):
        assert_allclose(chi2_sf(x, 1), math.erfc(math.sqrt(x / 2.0)),
                        rtol=1e-11, atol=1e-300)


def test_chi2_sf_even_df_matches_poisson_sum():
    for df in (2, 4, 6, 10):
        for x in (0.5, 1.0, 3.0, 7.5, 15.0, 30.0):
            assert_allclose(chi2_sf(x, df), chi2_sf_even_df(x, df),
                            rtol=1e-11, atol=1e-300)


def test_chi2_sf_critical_value():
    """S(3.841, 1) = 0.05 to four decimals (3.841 is the rounded 5%
    critical value of chi-square with one degree of freedom)."""
    assert abs(chi2_sf(3.841, 1) - 0.05) < 1e-4


def test_chi2_sf_monotone_in_x():
    xs = np.linspace(0.01, 40.0, 100)
    vals = [chi2_sf(float(x), 5) for x in xs]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_chi2_sf_domain():
    assert chi2_sf(0.0, 3) == 1.0
    # below the support the survival probability is the whole mass
    assert chi2_sf(-1.0, 2) == 1.0
    with pytest.raises(ValueError):
        chi2_sf(1.0, 0)


def test_chi2_sf_matches_scipy():
    stats = pytest.importorskip("scipy.stats")
    for df in (1, 2, 3, 4, 5, 8, 13, 30, 100):
        for x in (1e-3, 0.1, 0.5, 1.0, 2.0, 3.841, 7.5, 15.0, 30.0, 60.0, 150.0, 400.0):
            assert_allclose(chi2_sf(x, df), stats.chi2.sf(x, df), rtol=1e-10, atol=1e-300)


def test_chi2_sf_matches_mpmath():
    """df = k - 1 for up to nine models, so df 1..8, over x from 1e-6 to 1400;
    then df 5..100 over x up to 3000, past x = 1416.79 where e^(-x/2) stops
    being a normal float, wherever the tail itself is above 1e-300."""
    mpmath = pytest.importorskip("mpmath")

    def expected(x, df):
        return float(mpmath.gammainc(df / 2, x / 2, mpmath.inf, regularized=True))

    with mpmath.workdps(40):
        for df in range(1, 9):
            for x in np.geomspace(1e-6, 1400.0, 120):
                x = float(x)
                assert_allclose(chi2_sf(x, df), expected(x, df), rtol=1e-13, atol=0)
        for df in (5, 6, 7, 8, 9, 16, 25, 40, 63, 64, 99, 100):
            for x in np.linspace(1000.0, 3000.0, 101):
                x = float(x)
                tail = expected(x, df)
                if tail > 1e-300:
                    assert_allclose(chi2_sf(x, df), tail, rtol=1e-12, atol=0)


# e^(-x/2) stays a normal float up to x = 1416.79; near 0 the sum can round
# above 1
xs = st.one_of(
    st.floats(min_value=0.0, max_value=1e-3),
    st.floats(min_value=0.0, max_value=1400.0),
)


@settings(max_examples=300, deadline=None)
@given(df=st.integers(min_value=1, max_value=30), x=xs, y=xs)
def test_chi2_sf_is_a_probability_and_does_not_increase(df, x, y):
    lo, hi = sorted((x, y))
    p_lo, p_hi = chi2_sf(lo, df), chi2_sf(hi, df)
    assert 0.0 <= p_hi <= 1.0 and 0.0 <= p_lo <= 1.0
    # The closed form adds rising terms to a falling one, each addition
    # rounding once, so where the tail is within a few ulps of 1 two nearby
    # x can come out a few ulps the wrong way round; beyond that rounding
    # it never rises.
    assert p_hi <= p_lo * (1.0 + df * sys.float_info.epsilon)


@given(df=st.one_of(
    st.floats(min_value=-5.0, max_value=40.0, allow_nan=False).filter(
        lambda v: not v.is_integer()),
    st.integers(max_value=0),
))
def test_chi2_sf_rejects_non_integer_and_nonpositive_df(df):
    with pytest.raises(ValueError):
        chi2_sf(1.0, df)
