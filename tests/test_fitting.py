# Tests for the two-stage fitting engine: seeded random search plus
# damped least-squares refinement.

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from srgrowth import fitting
from srgrowth.errors import InsufficientDataError, NumericError
from srgrowth.fitting import (
    FitConfig,
    FitResult,
    fit_all,
    initial_search,
    refine,
)
from srgrowth.models import (
    _KERNELS,
    MODEL_ORDER,
    RATE_LOWER,
    RATE_UPPER,
    ModelId,
    descriptor,
    mean_value,
    search_bounds,
)
from srgrowth.series import FailureSeries


def synthetic_series(model, params, n=120, horizon=150.0, label="synthetic"):
    """Noiseless counts generated straight from the mean value function."""
    t = np.linspace(horizon / n, horizon, n)
    counts = np.asarray(mean_value(model, params, t), dtype=float)
    return FailureSeries(times=t, horizon=horizon, label=label, counts=counts)


def noisy_series(model, params, seed, n=120, horizon=150.0, sigma=2.0):
    """The mean value curve on an even grid plus seeded Gaussian noise."""
    t = np.linspace(horizon / n, horizon, n)
    noise = np.random.default_rng(seed).normal(0.0, sigma, n)
    counts = np.asarray(mean_value(model, params, t), dtype=float) + noise
    return FailureSeries(times=t, horizon=horizon, counts=counts)


def rss_of(model, params, series):
    fitted = mean_value(model, params, series.times)
    return float(np.sum((series.cumulative - fitted) ** 2))


def test_config_validation():
    with pytest.raises(ValueError):
        FitConfig(search_budget=0)


def test_initial_search_is_deterministic():
    series = synthetic_series(ModelId.GO, (300.0, 0.04))
    cfg = FitConfig(search_budget=5000, rng_seed=99)
    p1 = initial_search(ModelId.GO, series, cfg)
    p2 = initial_search(ModelId.GO, series, cfg)
    assert_allclose(p1, p2, rtol=0, atol=0)


def test_initial_search_seed_changes_result():
    series = synthetic_series(ModelId.GO, (300.0, 0.04))
    p1 = initial_search(ModelId.GO, series, FitConfig(search_budget=64, rng_seed=1))
    p2 = initial_search(ModelId.GO, series, FitConfig(search_budget=64, rng_seed=2))
    assert not np.array_equal(p1, p2)


def test_initial_search_respects_bounds():
    series = synthetic_series(ModelId.WE, (200.0, 0.02, 1.3))
    lo, hi = search_bounds(ModelId.WE, series.n)
    for seed in (0, 1, 2, 3):
        p = initial_search(ModelId.WE, series, FitConfig(search_budget=32, rng_seed=seed))
        assert np.all(p > lo) and np.all(p <= hi)


def test_initial_search_budget_one_works():
    series = synthetic_series(ModelId.MO, (80.0, 0.3))
    p = initial_search(ModelId.MO, series, FitConfig(search_budget=1, rng_seed=5))
    assert p.shape == (2,)
    assert math.isfinite(rss_of(ModelId.MO, p, series))


def test_initial_search_beats_random_probes():
    """The search minimum over its own candidate set must be at least as
    good as any handful of independent draws from the same bounds."""
    series = synthetic_series(ModelId.GOS, (250.0, 0.07))
    cfg = FitConfig(search_budget=20000, rng_seed=11)
    best = initial_search(ModelId.GOS, series, cfg)
    best_rss = rss_of(ModelId.GOS, best, series)
    lo, hi = search_bounds(ModelId.GOS, series.n)
    probe_rng = np.random.default_rng(987)
    for _ in range(50):
        probe = np.exp(probe_rng.uniform(np.log(lo), np.log(hi)))
        assert best_rss <= rss_of(ModelId.GOS, probe, series) + 1e-9


def profiled_points(series):
    """The series at the at most 256 evenly spread points, rounded, that
    the search scores its draws on."""
    idx = np.unique(np.round(np.linspace(0, series.n - 1, 256))).astype(int)
    counts = np.array(series.cumulative)[idx]
    return FailureSeries(times=np.array(series.times)[idx], horizon=series.horizon, counts=counts)


def shape_draws(model, series, cfg):
    """The search's ``cfg.search_budget`` draws, one a row, with a scale of 1."""
    lo, hi = search_bounds(model, series.n)
    rng = np.random.default_rng([cfg.rng_seed, MODEL_ORDER.index(ModelId(model))])
    log_lo, log_hi = np.log(lo[1:]), np.log(hi[1:])
    draws = np.ones((cfg.search_budget, lo.size))
    draws[:, 1:] = np.exp(log_lo + rng.random((cfg.search_budget, lo.size - 1)) * (log_hi - log_lo))
    return draws


def brute_search(model, series, cfg):
    """Reference search: every draw in one batch, each given its clipped
    least-squares scale and scored on the points of ``profiled_points`` as
    ``initial_search`` scores it, keeping the first minimum; None when no
    draw has a finite RSS."""
    lo, hi = search_bounds(model, series.n)
    candidates = shape_draws(model, series, cfg)
    points = profiled_points(series)
    t, y = np.array(points.times), np.array(points.cumulative)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        shapes = _KERNELS[ModelId(model)](candidates, t)
        candidates[:, 0] = np.clip((shapes @ y) / np.einsum("ij,ij->i", shapes, shapes), lo[0], hi[0])
        r = candidates[:, :1] * shapes - y
        rss = np.einsum("ij,ij->i", r, r)
    rss = np.where(np.isfinite(rss), rss, math.inf)
    idx = int(np.argmin(rss))
    return candidates[idx] if math.isfinite(rss[idx]) else None


def tied_case():
    """417 failures at one time."""
    series = FailureSeries(times=[math.exp(0.5)] * 417, horizon=math.exp(0.5))
    return series, FitConfig(search_budget=50, rng_seed=1952)


@st.composite
def search_cases(draw):
    """Short series at budgets around the chunk size, or long ones, on which
    the search scores a subset of the points, at budgets of a few hundred."""
    long = draw(st.booleans())
    n = draw(st.integers(257, 3000) if long else st.integers(2, 400))
    low = draw(st.floats(-4.0, 2.0))
    high = low + draw(st.floats(0.0, 6.0))
    log_t = np.sort(np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(low, high, n))
    times = np.exp(log_t)
    counts = None
    if draw(st.booleans()):
        scale = draw(st.floats(0.01, 100.0))
        counts = scale * np.cumsum(np.exp(log_t - log_t.mean()))
    series = FailureSeries(times=times, horizon=float(times[-1]), counts=counts)
    budgets = st.integers(50, 600) if long else st.sampled_from([1, 2, 50, 4096, 4097, 5000])
    return series, FitConfig(search_budget=draw(budgets), rng_seed=draw(st.integers(0, 2**32 - 1)))


def geometric_case(n):
    """n points, geometrically spaced, and two chunks of draws."""
    times = np.geomspace(0.5, 40.0, n)
    return FailureSeries(times=times, horizon=40.0), FitConfig(search_budget=5000, rng_seed=n)


def zigzag_case():
    """Early counts alternate between 0 and 100, which no model follows,
    and the last count is 30."""
    times = np.geomspace(0.5, 40.0, 60)
    counts = np.where(np.arange(60) % 2 == 0, 0.0, 100.0)
    counts[-1] = 30.0
    return (
        FailureSeries(times=times, horizon=40.0, counts=counts),
        FitConfig(search_budget=9000, rng_seed=6),
    )


def step_case():
    """Counts of 0 up to a last count of 10, which the best draws owe most
    of their RSS to."""
    times = np.geomspace(0.5, 40.0, 60)
    counts = np.zeros(60)
    counts[-1] = 10.0
    return (
        FailureSeries(times=times, horizon=40.0, counts=counts),
        FitConfig(search_budget=9000, rng_seed=5),
    )


def concave_case(n=8000):
    """A concave series of n failures at the times GO with a = 1.25 n and
    b = 0.01 predicts them, searched at budget 500."""
    i = np.arange(1, n + 1)
    times = -np.log1p(-i / (1.25 * n)) / 0.01
    return FailureSeries(times=times, horizon=float(times[-1])), FitConfig(search_budget=500)


def overflow_case():
    """Three points up to t = 100 and one draw, on which DU's shape
    t^β is large."""
    series = FailureSeries(times=[1.0, 50.0, 100.0], horizon=100.0)
    return series, FitConfig(search_budget=1, rng_seed=21)


@pytest.mark.parametrize("model", MODEL_ORDER)
@settings(max_examples=25, deadline=None)
@given(case=search_cases())
@example(case=geometric_case(2))
@example(case=geometric_case(3))
@example(case=geometric_case(8))
@example(case=geometric_case(9))
@example(case=geometric_case(400))
@example(case=zigzag_case())
@example(case=step_case())
@example(case=overflow_case())
@example(case=tied_case())
@example(case=concave_case())
def test_initial_search_equals_brute_force(model, case):
    """Scoring the draws chunk by chunk never changes the chosen draw, nor
    whether there is one."""
    series, cfg = case
    if series.n < descriptor(model).k + 1:
        with pytest.raises(InsufficientDataError):
            initial_search(model, series, cfg)
        return
    expected = brute_search(model, series, cfg)
    if expected is None:  # no draw has a finite RSS
        with pytest.raises(NumericError):
            initial_search(model, series, cfg)
    else:
        assert np.array_equal(initial_search(model, series, cfg), expected)


def brute_profiled_draws(model, series, cfg):
    """Reference profiled search: the search's draws, each given its clipped
    least-squares scale and scored one at a time by the model's mean value
    on the points of ``profiled_points``.  Returns the draws with their
    scales and their RSS, NaN where not finite."""
    lo, hi = search_bounds(model, series.n)
    kernel = _KERNELS[ModelId(model)]
    points = profiled_points(series)
    t, y = np.array(points.times), np.array(points.cumulative)
    params, rss = [], []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for p in shape_draws(model, series, cfg):
            g = kernel(p, t)
            p[0] = np.clip(np.dot(g, y) / np.dot(g, g), lo[0], hi[0])
            r = kernel(p, t) - y
            params.append(p)
            rss.append(float(np.dot(r, r)))
    rss = np.array(rss)
    return np.array(params), np.where(np.isfinite(rss), rss, np.nan)


@pytest.mark.parametrize("model", MODEL_ORDER)
@settings(max_examples=25, deadline=None)
@given(case=search_cases())
@example(case=geometric_case(3))
@example(case=geometric_case(9))
@example(case=zigzag_case())
@example(case=step_case())
@example(case=overflow_case())
@example(case=concave_case())
def test_profiled_search_equals_brute_force(model, case):
    """``initial_search`` at 256 and 500 draws keeps one of its draws with
    that draw's clipped least-squares scale, and no draw scores lower on
    the searched points, nor an earlier one as low, beyond the rounding of
    a sum."""
    series, cfg = case
    if series.n < descriptor(model).k + 1:
        return
    for budget in (256, 500):
        cfg = FitConfig(search_budget=budget, rng_seed=cfg.rng_seed)
        params, rss = brute_profiled_draws(model, series, cfg)
        if np.isnan(rss).all():
            with pytest.raises(NumericError):
                initial_search(model, series, cfg)
            continue
        found = initial_search(model, series, cfg)
        chosen = int(np.flatnonzero((params[:, 1:] == found[1:]).all(axis=1))[0])
        assert_allclose(found[0], params[chosen, 0], rtol=1e-12)
        found_rss = rss_of(model, found, profiled_points(series))
        assert found_rss <= np.nanmin(rss) * (1.0 + 1e-12)
        assert not np.any(rss[:chosen] < found_rss * (1.0 - 1e-12))


def scaled_kernel(monkeypatch, model, scale):
    """Patch ``model``'s kernel so that it returns its mean values times
    ``scale``, and record the shapes of its calls."""
    kernel = _KERNELS[model]
    calls = []

    def patched(p, times, jac=False):
        calls.append((np.shape(p), times.size))
        return kernel(p, times, jac=jac) * scale

    monkeypatch.setitem(fitting._KERNELS, model, patched)
    return calls


def test_fit_all_writes_a_placeholder_when_no_draw_has_a_finite_rss(monkeypatch):
    """A DU kernel that is NaN everywhere gives no draw a finite RSS, so the
    fit is a placeholder."""
    series, cfg = overflow_case()
    scaled_kernel(monkeypatch, ModelId.DU, math.nan)
    (result,) = fit_all(series, models=("DU",), cfg=cfg)
    assert result.model is ModelId.DU
    assert math.isnan(result.rss) and all(math.isnan(p) for p in result.params)
    assert not result.converged and result.iterations_used == 0


@pytest.mark.parametrize("models", [("GO", "YE"), ("YE",)])
def test_a_go_placeholder_gives_a_ye_placeholder(monkeypatch, models):
    """YE's starts come from the batch's GO fit, so when GO's kernel is NaN
    everywhere YE is a placeholder too, whether GO is requested or not."""
    series = synthetic_series(ModelId.GO, (300.0, 0.05), n=30, horizon=100.0)
    scaled_kernel(monkeypatch, ModelId.GO, math.nan)
    fits = fit_all(series, models, FitConfig(search_budget=50))
    assert [fit.model for fit in fits] == [ModelId(m) for m in models]
    assert all(math.isnan(fit.rss) and fit.iterations_used == 0 for fit in fits)


def test_fit_from_an_overflowing_draw_warns_nothing(monkeypatch):
    """DU's draw gives the overflow case a finite fit; with a kernel whose
    squared values overflow for every draw it gets the placeholder.
    Neither way warns."""
    series, cfg = overflow_case()
    with warnings.catch_warnings(), np.errstate(over="warn", invalid="warn"):
        warnings.simplefilter("error")
        (fit,) = fit_all(series, models=("DU",), cfg=cfg)
        scaled_kernel(monkeypatch, ModelId.DU, 1e300)
        (placeholder,) = fit_all(series, models=("DU",), cfg=cfg)
    assert math.isfinite(fit.rss) and fit.iterations_used > 0
    assert math.isnan(placeholder.rss) and placeholder.iterations_used == 0


def test_search_chunks_stay_under_the_element_cap(monkeypatch):
    """5000 draws on a 20 000-point series: the search scores them 4096 at
    a time on 256 points, so no kernel call exceeds 2^20 draw-points, and
    picks the draw that scoring all of them at once picks."""
    t = np.linspace(0.05, 1000.0, 20_000)
    series = FailureSeries(times=t, horizon=1000.0, label="long")
    cfg = FitConfig(search_budget=5000, rng_seed=4)
    expected = brute_search(ModelId.WE, series, cfg)
    calls = scaled_kernel(monkeypatch, ModelId.WE, 1.0)
    start = initial_search(ModelId.WE, series, cfg)
    assert calls == [((4096, 3), 256), ((904, 3), 256)]
    assert np.array_equal(start, expected)


def test_search_scores_no_draw_in_full_twice(monkeypatch):
    """Each search evaluates the kernel once, on every draw at once at no
    more than 256 points, and scores each draw from those shapes."""
    series, cfg = concave_case()
    for model in MODEL_ORDER:
        calls = scaled_kernel(monkeypatch, model, 1.0)
        initial_search(model, series, cfg)
        assert calls == [((cfg.search_budget, descriptor(model).k), 256)]


@pytest.mark.parametrize("case", [overflow_case(), concave_case()], ids=["overflow", "concave"])
def test_initial_search_warns_nothing(case):
    """No warning, also where the search finds no finite RSS and raises
    instead."""
    series, cfg = case
    models = [m for m in MODEL_ORDER if series.n > descriptor(m).k]
    found = {m: brute_search(m, series, cfg) is not None for m in models}
    with warnings.catch_warnings(), np.errstate(over="warn", invalid="warn"):
        warnings.simplefilter("error")
        for model in models:
            if found[model]:
                initial_search(model, series, cfg)
            else:
                with pytest.raises(NumericError):
                    initial_search(model, series, cfg)


def test_refine_refuses_a_start_whose_rss_overflows():
    series = FailureSeries(times=[1.0, 50.0, 100.0], horizon=100.0)
    with pytest.raises(NumericError):
        refine(ModelId.DU, series, (1e3, 1e3))


def test_refine_at_optimum_stays_put():
    truth = (300.0, 0.05)
    series = synthetic_series(ModelId.GO, truth)
    result = refine(ModelId.GO, series, np.array(truth))
    assert result.converged
    assert result.iterations_used <= 2
    assert_allclose(result.params, truth, rtol=1e-9)
    assert result.rss < 1e-16


def test_refine_never_worsens_the_start(monkeypatch):
    monkeypatch.setattr(fitting, "REFINE_MAX_ITERATIONS", 60)
    rng = np.random.default_rng(31)
    series = synthetic_series(ModelId.WE, (220.0, 0.015, 1.4))
    lo, hi = search_bounds(ModelId.WE, series.n)
    for _ in range(20):
        start = np.exp(rng.uniform(np.log(lo), np.log(hi)))
        start_rss = rss_of(ModelId.WE, start, series)
        result = refine(ModelId.WE, series, start)
        assert result.rss <= start_rss + 1e-9


def test_refine_holds_hd_shape_on_its_floor():
    """On GO data whose best HD fit wants c < 0, c stays on its floor and
    HD matches GO instead of crawling along the bound."""
    series = noisy_series(ModelId.GO, (300.0, 0.04), seed=4)
    go = refine(ModelId.GO, series, (300.0, 0.04))
    hd = refine(ModelId.HD, series, (240.0, 0.052, 0.0))
    assert hd.converged and hd.iterations_used <= 50
    assert hd.params[2] == np.nextafter(RATE_LOWER, 1.0)
    assert hd.rss <= go.rss * (1.0 + 1e-9)


def test_refine_holds_mo_scale_on_its_cap():
    """MO data whose scale lies above the cap of 100·n: α stays on it."""
    series = noisy_series(ModelId.MO, (50_000.0, 0.01), seed=4)
    hi = search_bounds(ModelId.MO, series.n)[1]
    result = refine(ModelId.MO, series, (hi[0], 0.05))
    assert result.converged and result.iterations_used <= 50
    assert result.params[0] == hi[0] == 100.0 * series.n


def test_refine_stops_at_once_when_every_parameter_is_held(monkeypatch):
    """Counts far above MO's curve at both upper bounds: both parameters
    would leave the box, so the start is a bound-constrained stationary
    point and no trial step is evaluated."""
    t = np.linspace(0.01, 1.0, 20)
    series = FailureSeries(times=t, horizon=1.0, counts=1e6 * (1.0 + t))
    start = (search_bounds(ModelId.MO, series.n)[1][0], RATE_UPPER)
    kernel = fitting._KERNELS[ModelId.MO]
    calls = []

    def recording(p, times, jac=False):
        calls.append("jac" if jac else "mean")
        return kernel(p, times, jac=jac)

    monkeypatch.setitem(fitting._KERNELS, ModelId.MO, recording)
    result = refine(ModelId.MO, series, start)
    assert result.converged and result.iterations_used == 1
    assert result.params == start == (2000.0, RATE_UPPER)
    # the start, one Jacobian, and the final scores
    assert calls == ["mean", "jac", "mean"]


def test_refine_stops_at_the_iteration_cap(monkeypatch):
    monkeypatch.setattr(fitting, "REFINE_MAX_ITERATIONS", 3)
    series = synthetic_series(ModelId.WE, (220.0, 0.015, 1.4))
    start = (10.0, 1.0, 0.1)  # uncapped, 61 iterations reach the optimum
    result = refine(ModelId.WE, series, start)
    assert not result.converged
    assert result.iterations_used == 3
    assert result.rss < rss_of(ModelId.WE, start, series)


# GO's a starts above its cap of 100·n, so the start is clipped
CLIPPED_GO_START = (1e5, 0.04)


def assert_stopped_at_the_clipped_start(result, series):
    """``result`` took no step: its parameters and RSS are the clipped start's."""
    lo, hi = search_bounds(ModelId.GO, series.n)
    p = np.clip(CLIPPED_GO_START, np.nextafter(lo, np.inf), hi)
    r = np.array(series.cumulative) - _KERNELS[ModelId.GO](p, np.array(series.times))
    assert not result.converged
    assert result.iterations_used == 1
    assert result.params == tuple(p) == (100.0 * series.n, 0.04)
    assert result.rss == float(r @ r)


def test_refine_stops_when_damping_is_exhausted(monkeypatch):
    """Damping past ``_LAMBDA_MAX`` before any trial step: the first
    iteration rejects and the start is returned."""
    monkeypatch.setattr(fitting, "_LAMBDA_MAX", fitting._LAMBDA_INIT / 2.0)
    series = noisy_series(ModelId.GO, (300.0, 0.04), seed=4)
    assert_stopped_at_the_clipped_start(refine(ModelId.GO, series, CLIPPED_GO_START), series)


@pytest.mark.parametrize("failure", ["raises", "nan"])
def test_refine_rejects_every_failed_solve_until_damping_is_exhausted(monkeypatch, failure):
    """A singular system and a non-finite step are rejected as a step that
    raises the RSS is, so damping runs out and the start is returned."""
    solves = []

    def failing(a, b):
        solves.append(a)
        if failure == "raises":
            raise np.linalg.LinAlgError("singular matrix")
        return np.full_like(b, np.nan)

    monkeypatch.setattr(np.linalg, "solve", failing)
    series = noisy_series(ModelId.GO, (300.0, 0.04), seed=4)
    assert_stopped_at_the_clipped_start(refine(ModelId.GO, series, CLIPPED_GO_START), series)
    assert len(solves) > 1


def test_refine_stops_on_a_non_finite_jacobian(monkeypatch):
    series = noisy_series(ModelId.GO, (300.0, 0.04), seed=4)
    kernel = fitting._KERNELS[ModelId.GO]
    calls = []

    def nan_jacobian(p, times, jac=False):
        calls.append("jac" if jac else "mean")
        out = kernel(p, times, jac=jac)
        return np.full_like(out, np.nan) if jac else out

    monkeypatch.setitem(fitting._KERNELS, ModelId.GO, nan_jacobian)
    result = refine(ModelId.GO, series, (250.0, 0.05))
    assert not result.converged and result.iterations_used == 1
    assert result.params == (250.0, 0.05)
    # the start, one Jacobian, and the final scores
    assert calls == ["mean", "jac", "mean"]


def test_refine_converges_on_the_step_rule_alone(monkeypatch):
    """With the RSS rule off, a start at a noise-free optimum takes a step
    shorter than ``REFINE_STEP_TOL``."""
    monkeypatch.setattr(fitting, "REFINE_RSS_REL_TOL", 0.0)
    truth = (300.0, 0.05)
    result = refine(ModelId.GO, synthetic_series(ModelId.GO, truth), truth)
    assert result.converged and result.iterations_used == 1
    assert result.params == truth


def test_refine_converges_on_the_rss_rule_alone(monkeypatch):
    monkeypatch.setattr(fitting, "REFINE_STEP_TOL", 0.0)
    series = noisy_series(ModelId.GO, (300.0, 0.04), seed=4)
    result = refine(ModelId.GO, series, (250.0, 0.05))
    assert result.converged and result.iterations_used <= 50


# (model, generating parameters, start): each start puts one or two
# parameters on a bound.  HD fits GO data, so its best c lies below the
# floor it starts on; MO starts with β on its floor and α inside the box,
# below the generating scale.  Starts with an asymptote on its floor are
# left out: from m ~ 0 both solvers can end on the plateau of a saturated
# rate, and refine on a worse one.
ORACLE_CASES = [
    (ModelId.GO, (300.0, 0.04), (240.0, RATE_LOWER)),
    (ModelId.GOS, (250.0, 0.07), (12_000.0, 0.091)),  # a on its cap, 100·n
    (ModelId.HD, (300.0, 0.04, 0.0), (240.0, RATE_LOWER, RATE_LOWER)),
    (ModelId.MO, (5000.0, 0.01), (RATE_UPPER, RATE_LOWER)),
    (ModelId.DU, (5.0, 0.9), (4.0, RATE_LOWER)),
    (ModelId.WE, (220.0, 0.015, 1.4), (176.0, 0.0195, RATE_LOWER)),
    (ModelId.YE, (300.0, 2.0, 0.02), (240.0, 2.6, RATE_LOWER)),
    (ModelId.YR, (300.0, 3.0, 0.001), (240.0, 3.9, RATE_LOWER)),
    (ModelId.LL, (300.0, 0.03, 2.5), (240.0, RATE_LOWER, 2.75)),
]


@pytest.mark.parametrize("seed", [4, 5, 6])
@pytest.mark.parametrize("model, truth, start", ORACLE_CASES, ids=[c[0].value for c in ORACLE_CASES])
def test_refine_matches_scipy_trf_from_a_bound(model, truth, start, seed):
    """scipy's reflective trust region, from the same start in the same
    box, finds no lower RSS than refine."""
    optimize = pytest.importorskip("scipy.optimize")
    series = noisy_series(model, truth, seed)
    t, y = np.array(series.times), np.array(series.cumulative)
    lo, hi = search_bounds(model, series.n)
    kernel = _KERNELS[model]
    floor = np.nextafter(lo, np.inf)
    trf = optimize.least_squares(
        lambda p: kernel(p, t) - y,
        np.clip(start, floor, hi),
        jac=lambda p: kernel(p, t, jac=True),
        bounds=(floor, hi),
        method="trf",
    )
    assert trf.success
    result = refine(model, series, start)
    assert result.rss <= float(trf.fun @ trf.fun) * (1.0 + 1e-6)


def test_refine_result_fields_are_consistent():
    series = synthetic_series(ModelId.MO, (90.0, 0.25))
    result = fit_all(series, [ModelId.MO], FitConfig(search_budget=2000))[0]
    assert result.model is ModelId.MO
    assert len(result.params) == 2
    # the stored rss matches a recomputation from the stored params
    assert_allclose(result.rss, rss_of(ModelId.MO, result.params, series), rtol=1e-12)
    # and the stored scores match the residual recomputation
    assert math.isfinite(result.gof.r2)
    assert math.isfinite(result.gof.aic)


def test_quick_parameter_recovery_two_parameter_models():
    """Small-budget recovery sanity for the cheap models; the full
    nine-model sweep at the production budget lives in the acceptance
    suite."""
    cases = {
        ModelId.GO: (500.0, 0.05),
        ModelId.MO: (150.0, 0.12),
        ModelId.DU: (5.0, 0.9),
    }
    cfg = FitConfig(search_budget=2000, rng_seed=42)
    for model, truth in cases.items():
        series = synthetic_series(model, truth, n=200, horizon=200.0)
        result = fit_all(series, [model], cfg)[0]
        assert result.converged, model
        rel = np.abs(np.array(result.params) - np.array(truth)) / np.array(truth)
        assert np.max(rel) < 1e-3, f"{model}: {result.params} vs {truth}"
        assert result.gof.r2 > 0.9999


def test_fit_all_equals_search_plus_refine():
    series = synthetic_series(ModelId.GOS, (250.0, 0.07))
    cfg = FitConfig(search_budget=3000, rng_seed=17)
    combined = fit_all(series, [ModelId.GOS], cfg)[0]
    start = initial_search(ModelId.GOS, series, cfg)
    split = refine(ModelId.GOS, series, start)
    assert combined.params == split.params
    assert combined.rss == split.rss
    assert combined.iterations_used == split.iterations_used


def test_fit_all_canonical_order_and_subset():
    series = synthetic_series(ModelId.GO, (300.0, 0.05), n=60, horizon=100.0)
    cfg = FitConfig(search_budget=500, rng_seed=3)
    results = fit_all(series, models=("LL", "GO", "MO"), cfg=cfg)
    assert [r.model for r in results] == [ModelId.GO, ModelId.MO, ModelId.LL]


@pytest.mark.parametrize("model", MODEL_ORDER, ids=[m.value for m in MODEL_ORDER])
def test_fit_all_single_model_matches_its_batch_row(model):
    """Per-model seeding makes a model's fit identical whether it runs
    alone or inside a batch; YE alone still refines the limits of the GO
    fit that the batch holds."""
    series = synthetic_series(ModelId.GO, (300.0, 0.05), n=80, horizon=120.0)
    cfg = FitConfig(search_budget=1500, rng_seed=7)
    (solo,) = fit_all(series, [model], cfg)
    batch_row = next(r for r in fit_all(series, cfg=cfg) if r.model is model)
    assert solo == batch_row


def test_fit_all_short_series_yields_placeholder_not_crash():
    # 3 points: enough for the 2-parameter models, not for 3-parameter ones.
    t = np.array([1.0, 2.0, 3.0])
    series = FailureSeries(times=t, horizon=3.0, label="tiny")
    results = fit_all(series, cfg=FitConfig(search_budget=100, rng_seed=0))
    by_model = {r.model: r for r in results}
    assert len(results) == len(MODEL_ORDER)
    for model, result in by_model.items():
        if descriptor(model).k == 3:
            assert not result.converged
            assert math.isnan(result.gof.r2)
            assert all(math.isnan(p) for p in result.params)
        else:
            assert math.isfinite(result.rss)


def test_failure_placeholder_shape():
    t = np.array([1.0, 2.0, 3.0])
    series = FailureSeries(times=t, horizon=3.0, label="tiny")
    results = fit_all(series, models=("HD",), cfg=FitConfig(search_budget=10))
    (res,) = results
    assert isinstance(res, FitResult)
    assert res.model is ModelId.HD
    assert len(res.params) == 3
    assert not res.converged
    assert math.isnan(res.rss)


def test_ye_fit_refines_its_two_go_limits_and_searches_only_for_go(monkeypatch):
    """YE on GO data: fit_all runs GO's search and GO's refine once, then
    refines YE from (A, c_max, B/c_max) and (a_max, A/a_max, B) for GO's
    fit (A, B), and keeps the lower RSS, whether GO is requested or not."""
    series = noisy_series(ModelId.GO, (300.0, 0.04), seed=1, n=30)
    cfg = FitConfig(rng_seed=0)
    (go,) = fit_all(series, [ModelId.GO], cfg)
    a, b = go.params
    hi = search_bounds(ModelId.YE, series.n)[1]
    limits = [refine(ModelId.YE, series, start) for start in ((a, hi[1], b / hi[1]), (hi[0], a / hi[0], b))]
    calls = []
    for name in ("initial_search", "refine"):
        original = getattr(fitting, name)

        def counting(model, *args, name=name, original=original):
            calls.append((name, ModelId(model)))
            return original(model, *args)

        monkeypatch.setattr(fitting, name, counting)
    ye = min(limits, key=lambda f: f.rss)
    for models in (("GO", "YE"), ("YE",)):
        calls.clear()
        fits = fit_all(series, models, cfg)
        assert calls == [
            ("initial_search", ModelId.GO),
            ("refine", ModelId.GO),
            ("refine", ModelId.YE),
            ("refine", ModelId.YE),
        ], models
        assert fits == ([go, ye] if "GO" in models else [ye])


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 20_000))
def test_spread_is_numpys_rounded_linspace(n):
    """_spread picks the indices np.round(np.linspace(...)) does over its
    256 points, every one of them when n <= 256, from the first to the
    last."""
    spread = fitting._spread(n)
    assert np.array_equal(spread, np.unique(np.round(np.linspace(0, n - 1, 256))).astype(int))
    if n <= 256:
        assert np.array_equal(spread, np.arange(n))
    assert spread[0] == 0 and spread[-1] == n - 1
