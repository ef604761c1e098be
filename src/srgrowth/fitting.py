"""Model fitting: random initial search plus damped Gauss-Newton refinement.

The estimation pipeline mirrors common reliability-growth practice: a large
seeded random search over log-uniform parameter draws picks the best starting
point, then a Levenberg-Marquardt loop with the analytic Jacobian polishes it
to a least-squares optimum within the parameter bounds.  The loop is
active-set: a parameter that sits on a bound while the descent direction
points out of the box is held fixed for that iteration, the damped step is
solved over the others and projected back into the box.  Non-convergence
is recorded on the result, never raised.

The search screens each chunk of draws in two stages.  Once an earlier
chunk has set a finite best RSS, it drops every draw whose squared residual
at the last observation exceeds that RSS.  It evaluates the rest at no more
than 8 fixed observations, the first and the last among them, and scores
in full only the draws whose lower bound from those points does not exceed
the best full RSS seen so far.  The bound sums the squared residuals at
the 8 points and, for each point between two of them, the square of the
distance from the range of m at those two points to the range of the
counts between them: m(t) is nondecreasing and the times are sorted, so
the point's residual is at least that distance.  A screened-out draw's
full RSS is therefore larger than that of a draw already scored, and the
search returns exactly the draw an exhaustive scoring would.

Until a chunk has set a finite best RSS there is nothing to screen
against, so every draw of the first chunk is evaluated at the 8 points
and bounded.  The first chunk therefore holds only 512 draws, and each
later one twice as many as the one before, up to 4096 draws and 2^20
candidate-points.  The generator's stream does not depend on how it is
chunked, so neither does the chosen draw.

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
from typing import NamedTuple

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

_SEARCH_FIRST_CHUNK = 512
_SEARCH_CHUNK = 4096
_SEARCH_ELEMENTS = 1 << 20  # cap on candidates x points per chunk
_SCREEN_POINTS = 8
_LAMBDA_INIT = 1e-3
_LAMBDA_MAX = 1e12


@dataclass(frozen=True)
class FitConfig:
    """Draws per model in the initial search and the seed of their stream.

    Refinement has no settings here; its stopping rules are the module's
    ``REFINE_*`` constants.
    """

    search_budget: int = 100_000
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


def _rss(kernel, candidates, t, y) -> np.ndarray:
    r = kernel(candidates, t) - y
    return np.einsum("ij,ij->i", r, r)


class _Screen(NamedTuple):
    """A series' screen points and the points between each pair of them."""

    t: np.ndarray  # times of the screen points
    y: np.ndarray  # counts at the screen points
    count: np.ndarray  # points strictly between screen points j and j + 1
    y_lo: np.ndarray  # least count among them, -inf when there are none
    y_hi: np.ndarray  # greatest count among them, +inf when there are none
    slack: float  # relative rounding an n-point RSS may carry


def _screen_points(t, y) -> _Screen:
    # The first and the last index are always screen points, and with
    # n <= 8 points every point is one, so no point lies between them.
    sel = np.unique(np.round(np.linspace(0, t.size - 1, _SCREEN_POINTS)).astype(np.intp))
    between = [y[i + 1 : j] for i, j in zip(sel[:-1], sel[1:])]
    return _Screen(
        t=t[sel],
        y=y[sel],
        count=np.array([b.size for b in between], dtype=float),
        y_lo=np.array([b.min() if b.size else -math.inf for b in between]),
        y_hi=np.array([b.max() if b.size else math.inf for b in between]),
        slack=1.0 + 4.0 * t.size * np.finfo(float).eps,
    )


# Every model's m(t) is nondecreasing in t up to a rounding of
# eps·(p[..., 0] + m), where p[..., 0] is the scale a or α: GOS falls by up
# to 1.5 times that at tiny b·t and the other kernels never fall
# (tests/test_models.py checks eps·max(a, m)).  The envelope widens each
# interval by this many times that rounding.
_MONOTONE_ULPS = 16.0


@np.errstate(over="ignore", invalid="ignore")
def _envelope(candidates, m, screen: _Screen) -> np.ndarray:
    """What the points between the screen points add to each candidate's RSS
    at least, given its mean values ``m`` at the screen points.

    A point strictly between screen points j and j + 1 has m(t) within
    [m_j, m_j+1], because m is nondecreasing and the times are sorted, so
    its residual is at least the distance from that range to the range of
    the counts there.  An overflow makes the sum infinite.
    """
    m_lo, m_hi = m[:, :-1], m[:, 1:]
    tol = _MONOTONE_ULPS * np.finfo(float).eps * (candidates[:, :1] + np.abs(m_hi))
    gap = np.maximum(np.maximum(screen.y_lo - m_hi, m_lo - screen.y_hi) - tol, 0.0)
    return np.square(gap) @ screen.count


def _screen(kernel, candidates, t, y, screen: _Screen, best_rss) -> tuple[np.ndarray, np.ndarray]:
    """The candidates that may score no worse than ``best_rss``, and their
    full RSS, infinite where it is not finite."""
    # The screen bound lies below each candidate's full RSS (up to
    # summation rounding, which ``screen.slack`` covers), so a candidate
    # whose bound already exceeds the best full RSS in sight cannot be the
    # first minimum.  A non-finite bound comes with a non-finite full RSS,
    # which never wins either.
    none = candidates[:0], np.empty(0)
    if math.isfinite(best_rss):
        # The last point carries the largest count, so most draws miss it by
        # more than the best RSS of the earlier chunks; the comparison also
        # drops a NaN or infinite one-point RSS.
        one_point = _rss(kernel, candidates, t[-1:], y[-1:])
        candidates = candidates[one_point <= best_rss * screen.slack]
        if candidates.shape[0] == 0:
            return none
    m = kernel(candidates, screen.t)
    r = m - screen.y
    partial = np.einsum("ij,ij->i", r, r)
    # The partial RSS over the screen points alone is a bound as well, and a
    # cheaper one; the envelope is added only for the draws it keeps.
    keep = partial <= best_rss * screen.slack
    candidates = candidates[keep]
    if candidates.shape[0] == 0:
        return none
    with np.errstate(over="ignore"):  # an overflow makes the bound infinite
        bound = partial[keep] + _envelope(candidates, m[keep], screen)
    finite = np.isfinite(bound)
    lead = int(np.argmin(np.where(finite, bound, math.inf)))
    if not (finite[lead] and bound[lead] <= best_rss * screen.slack):
        return none  # the least finite bound, so every one, is out of reach
    # The lead's full RSS may tighten the cut, and it is kept for the lead's
    # entry in the result, so that no draw is scored in full twice.
    lead_rss = _rss(kernel, candidates[lead : lead + 1], t, y)
    if math.isfinite(lead_rss[0]):
        best_rss = min(best_rss, float(lead_rss[0]))
    survive = finite & (bound <= best_rss * screen.slack)
    rss = np.empty(candidates.shape[0])
    rss[lead] = lead_rss[0]
    rest = survive.copy()
    rest[lead] = False
    if rest.any():
        rss[rest] = _rss(kernel, candidates[rest], t, y)
    rss = rss[survive]
    return candidates[survive], np.where(np.isfinite(rss), rss, math.inf)


def _draws(mid: ModelId, series: FailureSeries, cfg: FitConfig):
    """The search's log-uniform draws, chunk by chunk, from a fresh stream:
    ``_SEARCH_FIRST_CHUNK`` draws, then twice as many as the chunk before,
    up to ``_SEARCH_CHUNK`` draws and ``_SEARCH_ELEMENTS`` candidate-points."""
    lo, hi = search_bounds(mid, series.n)
    log_lo = np.log(lo)
    log_span = np.log(hi) - log_lo
    rng = _model_rng(cfg, mid)
    cap = max(1, min(_SEARCH_CHUNK, _SEARCH_ELEMENTS // series.n))
    chunk = min(_SEARCH_FIRST_CHUNK, cap)
    remaining = cfg.search_budget
    while remaining > 0:
        batch = min(chunk, remaining)
        remaining -= batch
        chunk = min(2 * chunk, cap)
        u = rng.random((batch, lo.size))
        # One parameter at a time, each a contiguous row: on the (batch, k)
        # array the k-long bounds would broadcast, and numpy's inner loop
        # would run once per draw.  The values are the same.
        columns = np.empty((lo.size, batch))
        for j, column in enumerate(columns):
            np.multiply(u[:, j], log_span[j], out=column)
            column += log_lo[j]
            np.exp(column, out=column)
        yield columns.T


def initial_search(model: ModelId | str, series: FailureSeries, cfg: FitConfig) -> np.ndarray:
    """Best of ``cfg.search_budget`` log-uniform parameter draws by RSS;
    ``NumericError`` when no draw has a finite RSS."""
    mid = ModelId(model)
    _require_enough_points(mid, series)
    t = np.array(series.times)
    y = np.array(series.cumulative)
    kernel = _KERNELS[mid]
    screen = _screen_points(t, y)

    best_rss = math.inf
    best: np.ndarray | None = None
    for candidates in _draws(mid, series, cfg):
        candidates, rss = _screen(kernel, candidates, t, y, screen, best_rss)
        if candidates.shape[0] == 0:
            continue
        idx = int(np.argmin(rss))
        if rss[idx] < best_rss:
            best_rss = float(rss[idx])
            best = candidates[idx].copy()
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

    Stops, counting as convergence, when every parameter is held (a
    bound-constrained stationary point), when the relative RSS drop falls
    below ``REFINE_RSS_REL_TOL`` or when the step norm falls below
    ``REFINE_STEP_TOL``; stops with ``converged=False`` after
    ``REFINE_MAX_ITERATIONS`` iterations, on damping exhaustion or on a
    non-finite Jacobian.
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
    iterations = 0
    for _ in range(REFINE_MAX_ITERATIONS):
        iterations += 1
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

        accepted = False
        rejections = 0
        while lam <= _LAMBDA_MAX:
            try:
                step = np.linalg.solve(jtj + lam * np.diag(damp), jtr)
            except np.linalg.LinAlgError:
                step = None
            if step is None or not np.all(np.isfinite(step)):
                lam *= nu
                nu *= 2.0
                rejections += 1
                continue
            full = np.zeros_like(p)
            full[free] = step
            p_new = np.clip(p + full, floor, hi)
            residuals_new = y - kernel(p_new, t)
            rss_new = float(residuals_new @ residuals_new)
            # NaN and inf fail this test, since rss is finite
            if rss_new <= rss:
                accepted = True
                break
            lam *= nu
            nu *= 2.0
            rejections += 1
        if not accepted:
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
        gof=GofScores(nan, nan, nan, nan),
    )


def fit_one(model: ModelId | str, series: FailureSeries, cfg: FitConfig) -> FitResult:
    """Initial search followed by refinement, as one call."""
    start = initial_search(model, series, cfg)
    return refine(model, series, start)


def fit_all(
    series: FailureSeries,
    models=MODEL_ORDER,
    cfg: FitConfig = FitConfig(),
) -> list[FitResult]:
    """Fit every requested model to one series.

    Results come back in the canonical model order.  A model whose fit
    fails outright (for example too few points for its parameter count)
    yields a placeholder result with ``converged=False`` and NaN scores;
    the batch itself never aborts.
    """
    requested = {ModelId(m) for m in models}
    if not requested:
        raise ValueError("no models requested")
    ordered = [m for m in MODEL_ORDER if m in requested]

    def one(mid: ModelId) -> FitResult:
        try:
            return fit_one(mid, series, cfg)
        except SrgrowthError:
            return _failure_result(mid)

    return [one(m) for m in ordered]
