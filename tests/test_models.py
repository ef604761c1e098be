# Tests for the mean value functions of the nine growth models.
#
# Frozen expected values are derived by hand from the closed-form
# definitions; each docstring shows the arithmetic.

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from srgrowth.errors import ParameterDomainError
from srgrowth.models import (
    MODEL_ORDER,
    ModelId,
    ShapeClass,
    classify,
    descriptor,
    gradient,
    mean_value,
    search_bounds,
    validate_params,
)

# Generic in-domain parameters used for property checks (monotonicity,
# vectorization, m(0) = 0).  Chosen so every model produces visible growth
# on t in [0, 100].
GENERIC_PARAMS = {
    ModelId.GO: (120.0, 0.03),
    ModelId.GOS: (120.0, 0.05),
    ModelId.HD: (120.0, 0.04, 2.0),
    ModelId.MO: (40.0, 0.2),
    ModelId.DU: (3.0, 0.8),
    ModelId.WE: (120.0, 0.01, 1.2),
    ModelId.YE: (120.0, 2.0, 0.05),
    ModelId.YR: (120.0, 2.0, 0.001),
    ModelId.LL: (120.0, 0.03, 2.5),
}


def test_model_inventory():
    assert len(MODEL_ORDER) == 9
    assert [m.value for m in MODEL_ORDER] == [
        "GO", "GOS", "HD", "MO", "DU", "WE", "YE", "YR", "LL",
    ]


def test_parameter_counts():
    expected = {
        ModelId.GO: 2, ModelId.GOS: 2, ModelId.HD: 3,
        ModelId.MO: 2, ModelId.DU: 2, ModelId.WE: 3,
        ModelId.YE: 3, ModelId.YR: 3, ModelId.LL: 3,
    }
    for model, k in expected.items():
        assert descriptor(model).k == k
        assert len(descriptor(model).param_names) == k


def test_shape_classes():
    concave = {ModelId.GO, ModelId.HD, ModelId.WE, ModelId.YE}
    s_shaped = {ModelId.GOS, ModelId.YR, ModelId.LL}
    infinite = {ModelId.MO, ModelId.DU}
    for model in MODEL_ORDER:
        shape = classify(model)
        if model in concave:
            assert shape is ShapeClass.CONCAVE
        elif model in s_shaped:
            assert shape is ShapeClass.S_SHAPED
        else:
            assert model in infinite
            assert shape is ShapeClass.INFINITE


def test_mean_value_at_zero_is_zero():
    for model, params in GENERIC_PARAMS.items():
        assert mean_value(model, params, 0.0) == 0.0


def test_go_half_life():
    """m(t) = a(1 - e^(-bt)): with b = 0.693147 (ln 2 to six digits)
    and t = 1, e^(-bt) = 0.5000000903, so m = 49.99999097 for a = 100."""
    m = mean_value(ModelId.GO, (100.0, 0.693147), 1.0)
    assert abs(m - 50.0) < 1e-4
    assert m != 50.0  # truncated rate constant, not exactly ln 2


def test_go_exact_half_life():
    m = mean_value(ModelId.GO, (100.0, math.log(2.0)), 1.0)
    assert_allclose(m, 50.0, rtol=0, atol=1e-12)


def test_delayed_s_shape_value():
    """m(t) = a(1 - (1 + bt)e^(-bt)): a=100, b=1, t=1 gives
    100(1 - 2/e) = 26.4241117657..."""
    m = mean_value(ModelId.GOS, (100.0, 1.0), 1.0)
    assert_allclose(m, 100.0 * (1.0 - 2.0 / math.e), rtol=0, atol=1e-12)


def test_hossain_dahiya_reduces_to_go_at_c_zero():
    t = np.linspace(0.0, 50.0, 21)
    hd = mean_value(ModelId.HD, (80.0, 0.1, 0.0), t)
    go = mean_value(ModelId.GO, (80.0, 0.1), t)
    assert_allclose(hd, go, rtol=0, atol=1e-12)


def test_musa_okumoto_log_identity():
    """m(t) = alpha ln(beta t + 1): alpha=10, beta=(e-1)/5, t=5 gives
    10 ln(e) = 10 exactly (up to rounding of (e-1)/5)."""
    m = mean_value(ModelId.MO, (10.0, (math.e - 1.0) / 5.0), 5.0)
    assert_allclose(m, 10.0, rtol=1e-15)


def test_duane_power_law():
    """m(t) = alpha t^beta: alpha=2, beta=1, t=3 gives 6.  The power is
    evaluated as exp(beta ln t) so the result carries one ulp of rounding."""
    assert_allclose(mean_value(ModelId.DU, (2.0, 1.0), 3.0), 6.0, rtol=1e-15)
    # beta=0.5 gives alpha * sqrt(t)
    assert_allclose(mean_value(ModelId.DU, (3.0, 0.5), 16.0), 12.0, rtol=1e-15)


def test_weibull_reduces_to_go_at_c_one():
    t = np.linspace(0.0, 50.0, 21)
    we = mean_value(ModelId.WE, (80.0, 0.1, 1.0), t)
    go = mean_value(ModelId.GO, (80.0, 0.1), t)
    assert_allclose(we, go, rtol=0, atol=1e-12)


def test_yamada_exponential_inner_coupling():
    """m(t) = a(1 - e^(-c(1 - e^(-beta t)))).  At beta t -> inf the inner
    bracket tends to 1, so m -> a(1 - e^(-c))."""
    a, c, beta = 90.0, 2.0, 0.5
    m = mean_value(ModelId.YE, (a, c, beta), 1e6)
    assert_allclose(m, a * (1.0 - math.exp(-c)), rtol=1e-12)


def test_yamada_rayleigh_matches_exponential_on_transformed_time():
    """The Rayleigh variant replaces beta t with beta t^2 / 2, so at a
    single point the two variants agree when the exponents match."""
    a, c = 90.0, 2.0
    t = 7.0
    beta_r = 0.01
    beta_e = beta_r * t / 2.0  # beta_e * t == beta_r * t^2 / 2
    ye = mean_value(ModelId.YE, (a, c, beta_e), t)
    yr = mean_value(ModelId.YR, (a, c, beta_r), t)
    assert_allclose(yr, ye, rtol=0, atol=1e-12)


def test_log_logistic_midpoint():
    """m(t) = a (lambda t)^kappa / (1 + (lambda t)^kappa): at t = 1/lambda
    the ratio is 1/2 regardless of kappa."""
    for kappa in (0.5, 1.0, 2.2, 6.0):
        m = mean_value(ModelId.LL, (200.0, 0.02, kappa), 50.0)
        assert_allclose(m, 100.0, rtol=0, atol=1e-10)


def test_log_logistic_known_point():
    """a=100, lambda=0.5, kappa=2, t=4: (lambda t)^kappa = 4, so
    m = 100 * 4/5 = 80."""
    m = mean_value(ModelId.LL, (100.0, 0.5, 2.0), 4.0)
    assert_allclose(m, 80.0, rtol=1e-14)


def test_mean_values_nondecreasing():
    t = np.linspace(0.0, 100.0, 400)
    for model, params in GENERIC_PARAMS.items():
        m = mean_value(model, params, t)
        assert np.all(np.diff(m) >= -1e-9), f"{model} decreased"


@st.composite
def models_in_their_search_box(draw):
    """A model, parameters anywhere in its ``search_bounds`` box for some
    series size, and sorted times from 0 up to 1e5."""
    model = draw(st.sampled_from(MODEL_ORDER))
    lo, hi = search_bounds(model, draw(st.integers(1, 10_000)))
    params = [draw(st.floats(float(low), float(high))) for low, high in zip(lo, hi)]
    times = draw(st.lists(st.floats(0.0, 1e5), max_size=50))
    return model, params, np.sort([0.0, *times])


@settings(max_examples=500, deadline=None)
@given(case=models_in_their_search_box())
def test_mean_value_starts_at_zero_and_never_falls(case):
    model, params, t = case
    with np.errstate(over="raise", invalid="raise"):
        m = mean_value(model, params, t)
    assert m[0] == 0.0
    assert np.all(np.isfinite(m))
    # Up to one rounding of the scale: GOS's 1 - (1 + bt)e^(-bt) rounds
    # within eps of 0 at tiny bt, and steps down by a*eps/2 there (found at
    # a = 3, b = 1e-9).
    tolerance = sys.float_info.epsilon * max(params[0], float(m.max()))
    assert np.all(np.diff(m) >= -tolerance), f"{model} decreased"


def test_vectorized_matches_scalar():
    t = np.array([0.5, 1.0, 3.7, 12.0, 55.0])
    for model, params in GENERIC_PARAMS.items():
        vec = mean_value(model, params, t)
        scalars = np.array([mean_value(model, params, ti) for ti in t])
        assert_allclose(vec, scalars, rtol=0, atol=0)


def test_scalar_input_returns_python_float():
    m = mean_value(ModelId.GO, (100.0, 0.1), 1.0)
    assert isinstance(m, float)


def test_validate_rejects_wrong_arity():
    with pytest.raises(ParameterDomainError):
        validate_params(ModelId.GO, (100.0, 0.1, 0.5))
    with pytest.raises(ParameterDomainError):
        validate_params(ModelId.HD, (100.0, 0.1))


def test_validate_rejects_nonpositive():
    with pytest.raises(ParameterDomainError):
        validate_params(ModelId.GO, (-1.0, 0.1))
    with pytest.raises(ParameterDomainError):
        validate_params(ModelId.GO, (100.0, 0.0))
    with pytest.raises(ParameterDomainError):
        validate_params(ModelId.DU, (0.0, 1.0))


def test_validate_rejects_nonfinite():
    with pytest.raises(ParameterDomainError):
        validate_params(ModelId.MO, (float("nan"), 0.1))
    with pytest.raises(ParameterDomainError):
        validate_params(ModelId.MO, (10.0, float("inf")))


def test_validate_allows_zero_c_for_hossain_dahiya_only():
    validate_params(ModelId.HD, (100.0, 0.1, 0.0))  # must not raise
    with pytest.raises(ParameterDomainError):
        validate_params(ModelId.WE, (100.0, 0.1, 0.0))


def test_mean_value_rejects_bad_params_too():
    with pytest.raises(ParameterDomainError):
        mean_value(ModelId.GO, (100.0, -0.5), 1.0)


def test_search_bounds_scale_with_series_size():
    """Every model's scale, its first parameter, is capped at 100 per point
    and at least 1e3; only the asymptote of a bounded model is floored at
    1e-6."""
    for model in MODEL_ORDER:
        for n, cap in ((3, 1e3), (10, 1e3), (1000, 1e5)):
            lo, hi = search_bounds(model, n)
            floor = 1e-9 if classify(model) is ShapeClass.INFINITE else 1e-6
            assert (lo[0], hi[0]) == (floor, cap)
            assert np.all(lo[1:] == 1e-9) and np.all(hi[1:] == 1e3)


def test_search_bounds_arity_matches_model():
    for model in MODEL_ORDER:
        lo, hi = search_bounds(model, 50)
        assert lo.shape == hi.shape == (descriptor(model).k,)


def test_extreme_arguments_do_not_overflow():
    # Exponent clamping keeps very large bt finite instead of warning.
    with np.errstate(over="raise"):
        m = mean_value(ModelId.GO, (100.0, 900.0), 10.0)
    assert m == 100.0
    with np.errstate(over="raise"):
        m = mean_value(ModelId.YR, (100.0, 2.0, 500.0), 1e6)
    assert math.isfinite(m)


def test_model_id_accepts_string_names():
    assert mean_value("GO", (100.0, 0.1), 2.0) == mean_value(
        ModelId.GO, (100.0, 0.1), 2.0
    )
    with pytest.raises((KeyError, ValueError)):
        mean_value("NOPE", (1.0, 1.0), 1.0)
