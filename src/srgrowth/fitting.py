"""Model fitting: a profiled random search plus damped Gauss-Newton refinement.

The estimation pipeline mirrors common reliability-growth practice: a
seeded random search over log-uniform parameter draws picks the best starting
point, then a Levenberg-Marquardt loop with the analytic Jacobian polishes it
to a least-squares optimum within the parameter bounds.  The loop is
active-set: a parameter that sits on a bound while the descent direction
points out of the box is held fixed for that iteration, the damped step is
solved over the others and projected back into the box.  Non-convergence
is recorded on the result, never raised.

Every model is linear in its first parameter, the scale: m(t) = a·g(t; θ),
and the kernel called with a = 1 returns the shape g.  ``initial_search``
draws ``search_budget`` shapes θ, gives each the least-squares scale
<g, y>/<g, g> clipped to the scale's bounds (variable projection, Golub &
Pereyra 1973), scores all of them on at most 256 evenly spread points and
keeps the first of least RSS.  ``fit_all``, the one fit driver, refines
that start for every model but YE.  YE reaches GO in two limits on
different bounds, so it runs no search of its own; it refines both limits
of the batch's GO fit and keeps the lower RSS.

Goodness of fit is summarised four ways per fit:

* ``r_squared``   1 - SS_res / SS_tot
* ``aic``         n * ln(max(rss, 1e-12) / n) + 2 * (k + 1)
* ``bic``         n * ln(max(rss, 1e-12) / n) + (k + 1) * ln(n)
* ``rse``         sqrt(rss / (n - k))

The information criteria use the Gaussian concentrated log-likelihood with
the error variance counted as one extra estimated parameter, hence k + 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateDataError,
    InsufficientDataError,
    NumericError,
    SrgrowthError,
)
from .models import _KERNELS, descriptor, search_bounds, validate_params
from .records import MODEL_ORDER, FitResult, GofScores, ModelId
from .reporting import RSS_FLOOR
from .series import FailureSeries

# refine's stopping rules; see its docstring
REFINE_MAX_ITERATIONS = 1000
REFINE_RSS_REL_TOL = 1e-10
REFINE_STEP_TOL = 1e-12

_PROFILE_POINTS = 256
_PROFILE_CHUNK = 4096  # draws scored at once, at most 2^20 draw-points
_LAMBDA_INIT = 1e-3
_LAMBDA_MAX = 1e12


@dataclass(frozen=True)
class FitConfig:
    """Shape draws per model in the initial search and the seed of their stream.

    Refinement has no settings here; its stopping rules are the module's
    ``REFINE_*`` constants.
    """

    search_budget: int = 256
    rng_seed: int = 0

    def __post_init__(self):
        if self.search_budget < 1:
            raise ValueError("search_budget must be at least 1")


# ---------------------------------------------------------------------------
# goodness of fit
# ---------------------------------------------------------------------------


def r_squared(observed, fitted) -> float:
    """Coefficient of determination of ``fitted`` against ``observed``."""
    o = np.asarray(observed, dtype=float)
    f = np.asarray(fitted, dtype=float)
    if o.shape != f.shape or o.ndim != 1:
        raise ValueError("observed and fitted must be 1-D arrays of equal length")
    if o.size < 2:
        raise InsufficientDataError("r_squared needs at least 2 observations")
    ss_tot = float(np.sum((o - o.mean()) ** 2))
    if ss_tot == 0.0:
        raise DegenerateDataError("observed values are all equal; R^2 undefined")
    ss_res = float(np.sum((o - f) ** 2))
    return 1.0 - ss_res / ss_tot


def _check_rss_n_k(rss: float, n: int, k: int) -> None:
    if k < 1:
        raise ValueError("k must be at least 1")
    if n <= k:
        raise InsufficientDataError(f"need n > k, got n={n}, k={k}")
    if not (rss >= 0.0):
        raise ValueError(f"rss must be nonnegative, got {rss}")


def aic(rss: float, n: int, k: int) -> float:
    _check_rss_n_k(rss, n, k)
    return n * math.log(max(rss, RSS_FLOOR) / n) + 2.0 * (k + 1)


def bic(rss: float, n: int, k: int) -> float:
    _check_rss_n_k(rss, n, k)
    return n * math.log(max(rss, RSS_FLOOR) / n) + (k + 1) * math.log(n)


def rse(rss: float, n: int, k: int) -> float:
    _check_rss_n_k(rss, n, k)
    return math.sqrt(rss / (n - k))


# ---------------------------------------------------------------------------
# stage 1: random search
# ---------------------------------------------------------------------------


def _require_enough_points(model: ModelId, series: FailureSeries) -> None:
    k = descriptor(model).k
    if series.n < k + 1:
        raise InsufficientDataError(
            f"{model} has {k} parameters and needs at least {k + 1} points, "
            f"series {series.label!r} has {series.n}"
        )


def _model_rng(cfg: FitConfig, model: ModelId) -> np.random.Generator:
    # Stream is keyed by (seed, model position) so each model sees the same
    # draws whether it is fitted alone or in a batch.
    seed = cfg.rng_seed & 0xFFFFFFFFFFFFFFFF
    return np.random.default_rng([seed, MODEL_ORDER.index(model)])


def _spread(n: int) -> np.ndarray:
    """``_PROFILE_POINTS`` evenly spread indices into n points, rounded,
    without repeats: the first and the last always, and every index when
    n <= ``_PROFILE_POINTS``.  Index i is i·last/gaps rounded:
    ``_PROFILE_POINTS`` is even, so gaps is odd, no quotient ends in a half,
    and rounding half up picks what np.round would.  A set dedupes them, as
    np.unique would load numpy.ma."""
    last, gaps = n - 1, _PROFILE_POINTS - 1
    return np.array(sorted({(2 * i * last + gaps) // (2 * gaps) for i in range(_PROFILE_POINTS)}))


def _log_uniform(rng: np.random.Generator, lo, hi, count: int) -> np.ndarray:
    """``count`` draws, one a row, each coordinate log-uniform between ``lo``
    and ``hi``."""
    log_lo = np.log(lo)
    return np.exp(log_lo + rng.random((count, lo.size)) * (np.log(hi) - log_lo))


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def initial_search(model: ModelId | str, series: FailureSeries, cfg: FitConfig) -> np.ndarray:
    """The first of ``cfg.search_budget`` log-uniform shape draws, each with
    its least-squares scale clipped to the scale's bounds, of least RSS on
    the ``_PROFILE_POINTS`` points ``_spread`` picks; ``NumericError`` when
    no draw has a finite RSS there.

    Each draw's RSS is that of a·g from the shape g already computed for its
    scale.  The draws come ``_PROFILE_CHUNK`` at a time from one stream, so
    the chunking never changes the result.  An overflow or a shape of all
    zeros makes the scale, and so the RSS, non-finite.
    """
    mid = ModelId(model)
    _require_enough_points(mid, series)
    lo, hi = search_bounds(mid, series.n)
    points = _spread(series.n)
    cumulative = series.cumulative
    t = np.array([series.times[i] for i in points])
    y = np.array([cumulative[i] for i in points])
    kernel = _KERNELS[mid]
    rng = _model_rng(cfg, mid)
    best, best_rss = None, math.inf
    for first in range(0, cfg.search_budget, _PROFILE_CHUNK):
        count = min(_PROFILE_CHUNK, cfg.search_budget - first)
        candidates = np.ones((count, lo.size))
        candidates[:, 1:] = _log_uniform(rng, lo[1:], hi[1:], count)
        shapes = kernel(candidates, t)
        candidates[:, 0] = np.clip((shapes @ y) / np.einsum("ij,ij->i", shapes, shapes), lo[0], hi[0])
        r = candidates[:, :1] * shapes - y
        rss = np.einsum("ij,ij->i", r, r)
        idx = int(np.argmin(np.where(np.isfinite(rss), rss, math.inf)))
        if rss[idx] < best_rss:  # False for NaN
            best, best_rss = candidates[idx].copy(), float(rss[idx])
    if best is None:
        raise NumericError(f"no {mid} draw has a finite RSS")
    return best


# ---------------------------------------------------------------------------
# stage 2: damped Gauss-Newton refinement
# ---------------------------------------------------------------------------


# A start whose r·r overflows is refused, but a trial step can still
# overflow r·r, Jᵀr or JᵀJ to inf; every check below handles inf, so numpy
# need not warn about it.
@np.errstate(over="ignore")
def refine(model: ModelId | str, series: FailureSeries, init) -> FitResult:
    """Polish ``init`` by damped Gauss-Newton on the residual sum of squares.

    Each iteration holds every parameter that sits on its lower bound (the
    first float above it) with ``J^T r < 0``, or on its upper bound with
    ``J^T r > 0``, and solves the damped system over the free ones; the
    gain ratio and the step norm are taken over the free components.
    Accepted steps never increase the RSS; a start whose RSS is not finite
    raises ``NumericError``.

    ``converged`` is True when the loop stops because every parameter is
    held (a bound-constrained stationary point), because a step's norm
    falls below ``REFINE_STEP_TOL`` (1e-12), or because the relative RSS
    drop of a step that needed no extra damping falls below
    ``REFINE_RSS_REL_TOL`` (1e-10).  It is False when the loop stops after
    ``REFINE_MAX_ITERATIONS`` (1000) iterations, when the damping passes
    ``_LAMBDA_MAX`` (1e12) before a step is accepted, or on a non-finite
    Jacobian.
    """
    mid = ModelId(model)
    _require_enough_points(mid, series)
    p = validate_params(mid, init)
    lo, hi = search_bounds(mid, series.n)
    # keep strictly above the lower bound so log/ratio terms stay defined
    floor = np.nextafter(lo, np.inf)
    p = np.clip(p, floor, hi)
    t = np.array(series.times)
    y = np.array(series.cumulative)
    kernel = _KERNELS[mid]

    residuals = y - kernel(p, t)
    rss = float(residuals @ residuals)
    if not math.isfinite(rss):
        raise NumericError(f"{mid} has no finite RSS at {p.tolist()}")

    lam = _LAMBDA_INIT
    nu = 2.0
    converged = False
    for iterations in range(1, REFINE_MAX_ITERATIONS + 1):
        jac = kernel(p, t, jac=True)
        if not np.all(np.isfinite(jac)):
            break  # hopeless curvature information: report non-convergence
        # Hold every parameter that sits on a bound while the descent
        # direction jtr points out of the box; a clipped step would only
        # drag the free ones along in damped micro-steps.
        jtr = jac.T @ residuals
        held = ((p <= floor) & (jtr < 0.0)) | ((p >= hi) & (jtr > 0.0))
        if held.all():
            converged = True  # a bound-constrained stationary point
            break
        free = ~held
        jac = jac[:, free]
        jtr = jtr[free]
        jtj = jac.T @ jac
        damp = np.maximum(np.diag(jtj), 1e-12)

        # A singular system, a non-finite step and a step that raises the RSS
        # are all rejected alike: damp harder and solve again.
        rejections = 0
        while lam <= _LAMBDA_MAX:
            try:
                step = np.linalg.solve(jtj + lam * np.diag(damp), jtr)
            except np.linalg.LinAlgError:
                step = None
            if step is not None and np.all(np.isfinite(step)):
                full = np.zeros_like(p)
                full[free] = step
                p_new = np.clip(p + full, floor, hi)
                residuals_new = y - kernel(p_new, t)
                rss_new = float(residuals_new @ residuals_new)
                # NaN and inf fail this test, since rss is finite
                if rss_new <= rss:
                    break
            lam *= nu
            nu *= 2.0
            rejections += 1
        else:
            break  # damping exhausted; report non-convergence

        # Nielsen gain ratio: shrink the damping according to how well the
        # quadratic model predicted the actual RSS reduction.
        moved = (p_new - p)[free]
        predicted = float(moved @ (lam * damp * moved + jtr))
        rho = (rss - rss_new) / predicted if predicted > 0.0 else 0.0
        lam = max(lam * max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3), 1e-12)
        nu = 2.0

        rel_drop = (rss - rss_new) / max(rss, RSS_FLOOR)
        p, residuals, rss = p_new, residuals_new, rss_new
        if float(np.linalg.norm(moved)) < REFINE_STEP_TOL:
            converged = True
            break
        # Trust the RSS stop only for steps accepted without escalation;
        # heavily damped micro-steps say nothing about being at an optimum.
        if rejections == 0 and rel_drop < REFINE_RSS_REL_TOL:
            converged = True
            break

    n = series.n
    k = p.size
    fitted = kernel(p, t)
    scores = GofScores(
        r2=r_squared(y, fitted),
        aic=aic(rss, n, k),
        bic=bic(rss, n, k),
        rse=rse(rss, n, k),
    )
    return FitResult(
        model=mid,
        params=tuple(float(v) for v in p),
        rss=rss,
        converged=converged,
        iterations_used=iterations,
        gof=scores,
    )


# ---------------------------------------------------------------------------
# batch driver
# ---------------------------------------------------------------------------


def _failure_result(model: ModelId) -> FitResult:
    nan = float("nan")
    return FitResult(
        model=model,
        params=(nan,) * descriptor(model).k,
        rss=nan,
        converged=False,
        iterations_used=0,
        gof=GofScores._make([nan] * len(GofScores._fields)),
    )


def fit_all(
    series: FailureSeries,
    models=MODEL_ORDER,
    cfg: FitConfig = FitConfig(),
) -> list[FitResult]:
    """Fit every requested model to one series, each once.

    Results come back in the canonical model order.  Every model but YE is
    refined from ``initial_search``'s start.  YE is GO(A, B) as β → 0 with
    c·β = B, and as c → 0 with a·c = A, so from the batch's GO fit (A, B)
    it refines (A, c_max, B/c_max) and (a_max, A/a_max, B), with c or a on
    its upper bound, and keeps the lower RSS, the first on a tie; GO, which
    comes first in that order, is fitted whenever YE is requested.

    A model whose fit fails outright (for example too few points for its
    parameter count, or YE after a GO placeholder, whose NaN start
    ``refine`` refuses) yields a placeholder result with
    ``converged=False`` and NaN scores; the batch itself never aborts.
    """
    requested = {ModelId(m) for m in models}
    if not requested:
        raise ValueError("no models requested")
    needed = requested | {ModelId.GO} if ModelId.YE in requested else requested
    fits = {}
    for mid in MODEL_ORDER:
        if mid not in needed:
            continue
        try:
            if mid is ModelId.YE:
                a, b = fits[ModelId.GO].params
                hi = search_bounds(mid, series.n)[1]
                limits = ((a, hi[1], b / hi[1]), (hi[0], a / hi[0], b))
                fits[mid] = min((refine(mid, series, start) for start in limits), key=lambda fit: fit.rss)
            else:
                fits[mid] = refine(mid, series, initial_search(mid, series, cfg))
        except SrgrowthError:
            fits[mid] = _failure_result(mid)
    return [fits[m] for m in MODEL_ORDER if m in requested]
