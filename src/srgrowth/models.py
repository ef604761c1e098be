"""Mean value functions of nine software reliability growth models.

Each model predicts the expected cumulative number of defects ``m(t)`` at
time ``t``.  The zoo covers the classic concave, S-shaped and unbounded
("infinite failure") families:

====  =========================  =========================================
id    name                       m(t)
====  =========================  =========================================
GO    Goel-Okumoto               a * (1 - exp(-b*t))
GOS   Goel-Okumoto S-shaped      a * (1 - (1 + b*t) * exp(-b*t))
HD    Hossain-Dahiya             a * (1 - exp(-b*t)) / (1 + c*exp(-b*t))
MO    Musa-Okumoto               alpha * ln(beta*t + 1)
DU    Duane                      alpha * t**beta
WE    Weibull                    a * (1 - exp(-b * t**c))
YE    Yamada exponential         a * (1 - exp(-c * (1 - exp(-beta*t))))
YR    Yamada Rayleigh            a * (1 - exp(-c * (1 - exp(-beta*t*t/2))))
LL    Log-logistic               a * (l*t)**k / (1 + (l*t)**k)
====  =========================  =========================================

Every model is linear in its first parameter, its scale: the asymptote
of a bounded model, a defect-count factor for MO and DU.  The static model
table (``descriptor``, ``classify``) lives in the numpy-free ``records``
module; this module re-exports it.

The Yamada models are fitted with the product of their test-effort rate and
scale as a single combined parameter (reported as ``r·α``); the two factors
only ever appear multiplied, so they cannot be identified separately from
failure data.

All functions evaluate in float64 with exponent arguments clamped to
[-700, 700] so extreme parameter draws saturate instead of overflowing.
Evaluation is vectorised over both time grids and batches of candidate
parameter vectors.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterDomainError
from .records import MODEL_ORDER, ModelId, ShapeClass, classify, descriptor  # noqa: F401

EXP_CLAMP = 700.0

# Default fitting bounds.  Every model's first parameter is its scale, the
# asymptote of a bounded model and the defect-count factor of MO and DU; it
# grows with the data (100x the number of observed points, and at least
# RATE_UPPER).  A bounded model's scale is floored at ASYMPTOTE_LOWER, an
# infinite-failure model's at RATE_LOWER.  Every rate and shape parameter
# shares one generous positive range.
ASYMPTOTE_LOWER = 1e-6
RATE_LOWER = 1e-9
RATE_UPPER = 1e3
SCALE_PER_POINT = 100.0


# ---------------------------------------------------------------------------
# evaluation kernels
#
# One kernel per model: ``kernel(p, t)`` returns m(t) and
# ``kernel(p, t, jac=True)`` returns dm/dp, from shared intermediates.  ``p``
# holds the parameters on its last axis (shape (k,) for one vector, (B, k)
# for a batch) and ``t`` is a 1-D time array; m broadcasts to (n,)
# respectively (B, n), and dm/dp adds a trailing axis of length k.
# ---------------------------------------------------------------------------


def _exp(x: np.ndarray) -> np.ndarray:
    return np.exp(np.clip(x, -EXP_CLAMP, EXP_CLAMP))


def _safe_log_t(t: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(np.where(t > 0.0, t, 1.0))


def _col(p: np.ndarray, i: int) -> np.ndarray:
    return p[..., i : i + 1]


def _stack(*columns) -> np.ndarray:
    return np.stack(np.broadcast_arrays(*columns), axis=-1)


def _go(p, t, jac=False):
    a, b = _col(p, 0), _col(p, 1)
    e = _exp(-b * t)
    if jac:
        return _stack(1.0 - e, a * t * e)
    return a * (1.0 - e)


def _gos(p, t, jac=False):
    a, b = _col(p, 0), _col(p, 1)
    bt = b * t
    e = _exp(-bt)
    if jac:
        return _stack(1.0 - (1.0 + bt) * e, a * b * t * t * e)
    return a * (1.0 - (1.0 + bt) * e)


def _hd(p, t, jac=False):
    a, b, c = _col(p, 0), _col(p, 1), _col(p, 2)
    e = _exp(-b * t)
    d = 1.0 + c * e
    if not jac:
        return a * (1.0 - e) / d
    da = (1.0 - e) / d
    db = a * (1.0 + c) * t * e / (d * d)
    dc = -a * e * (1.0 - e) / (d * d)
    return _stack(da, db, dc)


def _mo(p, t, jac=False):
    alpha, beta = _col(p, 0), _col(p, 1)
    if jac:
        return _stack(np.log(beta * t + 1.0), alpha * t / (beta * t + 1.0))
    return alpha * np.log(beta * t + 1.0)


def _du(p, t, jac=False):
    alpha, beta = _col(p, 0), _col(p, 1)
    logt = _safe_log_t(t)
    # One exponential of ln(alpha) + beta ln(t) so the clamp bounds the
    # whole product; alpha * t^beta can overflow even when each factor
    # is representable.
    m = np.where(t > 0.0, _exp(np.log(alpha) + beta * logt), 0.0)
    if not jac:
        return m
    tb = np.where(t > 0.0, _exp(beta * logt), 0.0)
    return _stack(tb, m * logt)


def _we(p, t, jac=False):
    a, b, c = _col(p, 0), _col(p, 1), _col(p, 2)
    logt = _safe_log_t(t)
    tc = np.where(t > 0.0, _exp(c * logt), 0.0)
    e = _exp(-b * tc)
    if not jac:
        return a * (1.0 - e)
    # Group the rate derivatives around x e^(-x) with x = b t^c, which is
    # bounded by 1/e; the naive a*b*tc*e product overflows long before the
    # underflowing exponential can pull it back to zero.
    xe = (b * tc) * e
    return _stack(1.0 - e, a * xe / b, np.where(t > 0.0, a * logt * xe, 0.0))


def _ye(p, t, jac=False):
    a, c, beta = _col(p, 0), _col(p, 1), _col(p, 2)
    ebt = _exp(-beta * t)
    g = 1.0 - ebt
    e = _exp(-c * g)
    if jac:
        return _stack(1.0 - e, a * g * e, a * c * t * ebt * e)
    return a * (1.0 - e)


def _yr(p, t, jac=False):
    a, c, beta = _col(p, 0), _col(p, 1), _col(p, 2)
    if not jac:
        # -beta*t*t/2 rounds differently from -beta*(t*t/2) below.
        g = 1.0 - _exp(-beta * t * t / 2.0)
        return a * (1.0 - _exp(-c * g))
    half_t2 = t * t / 2.0
    eb = _exp(-beta * half_t2)
    g = 1.0 - eb
    e = _exp(-c * g)
    return _stack(1.0 - e, a * g * e, a * c * half_t2 * eb * e)


def _ll(p, t, jac=False):
    a, lam, kappa = _col(p, 0), _col(p, 1), _col(p, 2)
    # (l*t)^k / (1 + (l*t)^k) is the logistic function of k*log(l*t)
    logx = np.log(lam) + _safe_log_t(t)
    s = 1.0 / (1.0 + _exp(-kappa * logx))
    if not jac:
        return np.where(t > 0.0, a * s, 0.0)
    s1s = s * (1.0 - s)
    da = np.where(t > 0.0, s, 0.0)
    dlam = np.where(t > 0.0, a * s1s * kappa / lam, 0.0)
    dkappa = np.where(t > 0.0, a * s1s * logx, 0.0)
    return _stack(da, dlam, dkappa)


# Do not regroup the kernels' floating-point expressions (say HD's
# a*(1-e)/d as a*((1-e)/d)): a change in rounding moves the end point of HD
# fits whose c sits on its lower bound, and their RSS by up to 6e-6
# relative.
_KERNELS = {
    ModelId.GO: _go,
    ModelId.GOS: _gos,
    ModelId.HD: _hd,
    ModelId.MO: _mo,
    ModelId.DU: _du,
    ModelId.WE: _we,
    ModelId.YE: _ye,
    ModelId.YR: _yr,
    ModelId.LL: _ll,
}


# ---------------------------------------------------------------------------
# public surface
# ---------------------------------------------------------------------------


def validate_params(model: ModelId | str, params) -> np.ndarray:
    """Check arity and domain; return the vector as a float64 array.

    Raises ``ParameterDomainError`` on the wrong number of parameters, on
    non-finite values, and on values outside the model's domain (all
    parameters strictly positive, except HD's c which may be zero).
    """
    desc = descriptor(model)
    arr = np.asarray(params, dtype=float)
    if arr.shape != (desc.k,):
        raise ParameterDomainError(
            f"{desc.id} expects {desc.k} parameters {desc.param_names}, "
            f"got shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise ParameterDomainError(f"{desc.id} parameters must be finite: {arr}")
    for name, value, zero_ok in zip(desc.param_names, arr, desc.zero_ok):
        if value < 0.0 or (value == 0.0 and not zero_ok):
            raise ParameterDomainError(
                f"{desc.id} parameter {name} must be "
                f"{'nonnegative' if zero_ok else 'strictly positive'}, got {value}"
            )
    return arr


def _validate_times(t) -> tuple[np.ndarray, bool]:
    arr = np.asarray(t, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
        raise ParameterDomainError(f"times must be finite and nonnegative: {t!r}")
    return arr, scalar


def mean_value(model: ModelId | str, params, t):
    """Expected cumulative defect count m(t).

    ``t`` may be a scalar or a 1-D array of nonnegative times; the return
    mirrors that shape.  m(0) = 0 and m is nondecreasing for every model,
    up to a rounding of eps times the scale ``a`` (GOS at tiny ``b*t``).
    """
    mid = ModelId(model)
    p = validate_params(mid, params)
    times, scalar = _validate_times(t)
    values = _KERNELS[mid](p, times)
    return float(values[0]) if scalar else values


def gradient(model: ModelId | str, params, t):
    """Partial derivatives of m(t) with respect to each parameter.

    Returns a vector of length k for scalar ``t``, else an (n, k) array.
    """
    mid = ModelId(model)
    p = validate_params(mid, params)
    times, scalar = _validate_times(t)
    values = _KERNELS[mid](p, times, jac=True)
    return values[0] if scalar else values


def search_bounds(model: ModelId | str, n_obs: int) -> tuple[np.ndarray, np.ndarray]:
    """Default fitting bounds (lower, upper) for an ``n_obs``-point series.

    The scale (the first parameter) lives in (1e-6, max(100 * n_obs, 1e3)],
    or in (1e-9, max(100 * n_obs, 1e3)] for MO and DU, whose scale is no
    asymptote; rate and shape parameters live in (1e-9, 1e3].
    """
    desc = descriptor(model)
    if n_obs < 1:
        raise ValueError("n_obs must be at least 1")
    lo = np.full(desc.k, RATE_LOWER)
    hi = np.full(desc.k, RATE_UPPER)
    if desc.shape is not ShapeClass.INFINITE:
        lo[0] = ASYMPTOTE_LOWER
    hi[0] = max(SCALE_PER_POINT * n_obs, RATE_UPPER)
    return lo, hi
