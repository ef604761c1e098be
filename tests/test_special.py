# Regularized incomplete gamma and chi-square tails, checked against
# closed forms and independent implementations.
#
# Independent oracles:
#   - chi-square survival closed forms: S(x, 2) = e^(-x/2) and, for even
#     df = 2m, S(x, 2m) = e^(-x/2) * sum_{j<m} (x/2)^j / j! (Poisson sum);
#     for df = 1, S(x, 1) = erfc(sqrt(x/2)) with math.erfc;
#   - scipy.stats.chi2.sf, when scipy is installed.

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from srgrowth.special import chi2_sf, reg_lower_gamma, reg_upper_gamma


def chi2_sf_even_df(x, df):
    m = df // 2
    total = sum((x / 2.0) ** j / math.factorial(j) for j in range(m))
    return math.exp(-x / 2.0) * total


def test_gamma_complementarity():
    rng = np.random.default_rng(7)
    for _ in range(200):
        a = float(rng.uniform(0.1, 30.0))
        x = float(rng.uniform(0.0, 60.0))
        p = reg_lower_gamma(a, x)
        q = reg_upper_gamma(a, x)
        assert 0.0 <= p <= 1.0
        assert 0.0 <= q <= 1.0
        assert_allclose(p + q, 1.0, rtol=0, atol=1e-12)


def test_gamma_boundaries():
    assert reg_lower_gamma(2.5, 0.0) == 0.0
    assert reg_upper_gamma(2.5, 0.0) == 1.0
    assert_allclose(reg_lower_gamma(1.0, 50.0), 1.0, rtol=0, atol=1e-15)


def test_gamma_exponential_special_case():
    """P(1, x) = 1 - e^(-x) exactly for the unit-shape case."""
    for x in (0.1, 0.5, 1.0, 2.0, 5.0):
        assert_allclose(reg_lower_gamma(1.0, x), 1.0 - math.exp(-x), rtol=1e-13)


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
