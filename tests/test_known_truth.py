# Known-truth oracle: least squares over a box reaches an RSS no larger
# than at any point of the box, the parameters that generated the data
# among them.  Each case samples event times from a model's own mean value
# function and fits that model to them.

import numpy as np
import pytest

from srgrowth.fitting import FitConfig, fit_all, refine
from srgrowth.models import ModelId, mean_value, search_bounds
from srgrowth.series import FailureSeries

HORIZON = 1000.0
GRID = np.linspace(0.0, HORIZON, 200_001)
SAMPLING_SEED = 1

# (model, shape parameters): the scale follows from the series size
SHAPES = [
    *((ModelId.MO, (beta,)) for beta in (1e-2, 1e-3, 3e-4, 1e-4)),
    *((ModelId.DU, (beta,)) for beta in (0.2, 0.5, 1.5)),
    (ModelId.GO, (0.003,)),
    (ModelId.GOS, (0.01,)),
    (ModelId.HD, (0.004, 2.0)),
    (ModelId.WE, (0.002, 1.3)),
    (ModelId.YE, (3.0, 0.002)),
    (ModelId.YR, (2.0, 1e-5)),
    (ModelId.LL, (0.005, 2.0)),
]


def sample_known_truth(model, shape, n, seed):
    """The truth and n event times on (0, HORIZON] drawn from it.

    The truth's scale is conditioned on n (a·n/m(T), so m(T) = n), and the
    times are n sorted uniform draws of m(t)/m(T) mapped back through m,
    which is inverted by interpolation on ``GRID``.
    """
    g = mean_value(model, (1.0, *shape), GRID)
    truth = np.array([n / g[-1], *shape])
    u = np.sort(np.random.default_rng(seed).random(n)) * g[-1]
    return truth, FailureSeries(times=np.interp(u, g, GRID), horizon=HORIZON)


@pytest.mark.parametrize("n", [50, 300, 1500])
@pytest.mark.parametrize(
    "model, shape", SHAPES, ids=[f"{m.value}-{','.join(map(str, s))}" for m, s in SHAPES]
)
def test_fit_is_no_worse_than_the_truth(model, shape, n):
    truth, series = sample_known_truth(model, shape, n, SAMPLING_SEED)
    lo, hi = search_bounds(model, series.n)
    assert np.all((lo < truth) & (truth <= hi))
    y = np.array(series.cumulative)
    truth_rss = float(np.sum((y - mean_value(model, truth, series.times)) ** 2))
    (fit,) = fit_all(series, [model], FitConfig())
    assert fit.rss <= truth_rss * (1.0 + 1e-9)


# (truth model, shape, n, seed): long series on which WE, refined from a
# search of every parameter alone, once ended at 30 to 2e4 times GO's RSS
NESTED_CASES = [
    (ModelId.GO, (0.003,), 4000, 1),
    (ModelId.WE, (0.002, 1.3), 8000, 1),
    (ModelId.GOS, (0.01,), 2000, 2),
    (ModelId.YE, (3.0, 0.002), 4000, 2),
    (ModelId.LL, (0.005, 2.0), 4000, 2),
]


@pytest.mark.parametrize(
    "model, shape, n, seed",
    NESTED_CASES,
    ids=[f"{m.value}-{','.join(map(str, s))}-n{n}-seed{seed}" for m, s, n, seed in NESTED_CASES],
)
def test_we_is_no_worse_than_the_go_it_nests(model, shape, n, seed):
    """WE at shape c = 1 is GO, so its least-squares fit is never worse,
    also on long series at a small search budget."""
    _, series = sample_known_truth(model, shape, n, seed)
    cfg = FitConfig(search_budget=500)
    go, we = fit_all(series, (ModelId.GO, ModelId.WE), cfg)
    assert we.rss <= go.rss * (1.0 + 1e-9)


# (truth model, shape): YE nests GO in two limits, so on data that GO or
# WE generated its fit should reach the better of them
YE_LIMIT_CASES = [(ModelId.GO, (0.003,)), (ModelId.WE, (0.002, 1.3))]


@pytest.mark.parametrize("n", [300, 1500, 4000])
@pytest.mark.parametrize(
    "model, shape", YE_LIMIT_CASES, ids=[f"{m.value}-{','.join(map(str, s))}" for m, s in YE_LIMIT_CASES]
)
def test_ye_is_no_worse_than_its_go_limits(model, shape, n):
    """YE is GO(A, B) as β → 0 with c·β = B and as c → 0 with a·c = A, so
    its fit is no worse than refine from either limit of GO's fit, each
    with a parameter on its upper bound."""
    _, series = sample_known_truth(model, shape, n, SAMPLING_SEED)
    cfg = FitConfig()
    a, b = fit_all(series, [ModelId.GO], cfg)[0].params
    hi = search_bounds(ModelId.YE, series.n)[1]
    limits = [(a, hi[1], b / hi[1]), (hi[0], a / hi[0], b)]
    best = min(refine(ModelId.YE, series, start).rss for start in limits)
    assert fit_all(series, [ModelId.YE], cfg)[0].rss <= best * (1.0 + 1e-9)
