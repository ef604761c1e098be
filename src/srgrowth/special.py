"""Scalar special functions backing the statistical tests.

The chi-square survival function reduces to the regularized incomplete
gamma function, which is computed here with the classic pair of
algorithms: a power series for the lower function when ``x < a + 1`` and a
Lentz-style continued fraction for the upper function otherwise.  Both
iterate to machine precision, comfortably below the 1e-10 accuracy the
statistics require, and need nothing beyond ``math``.
"""

from __future__ import annotations

import math

_MACHEP = 1.11022302462515654042e-16
_BIG = 4.503599627370496e15
_BIGINV = 2.22044604925031308085e-16
_MAXITER = 2000


def reg_lower_gamma(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x)."""
    if a <= 0.0 or x < 0.0 or not (math.isfinite(a) and math.isfinite(x)):
        raise ValueError(f"reg_lower_gamma domain: a={a}, x={x}")
    if x == 0.0:
        return 0.0
    if x > 1.0 and x > a:
        return 1.0 - reg_upper_gamma(a, x)

    # power series: P(a,x) = x^a e^-x / Gamma(a) * sum x^n / (a+1)...(a+n)
    ax = a * math.log(x) - x - math.lgamma(a)
    if ax < -709.0:
        return 0.0
    ax = math.exp(ax)
    r = a
    c = 1.0
    ans = 1.0
    for _ in range(_MAXITER):
        r += 1.0
        c *= x / r
        ans += c
        if c / ans <= _MACHEP:
            break
    return ans * ax / a


def reg_upper_gamma(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) = 1 - P(a, x)."""
    if a <= 0.0 or x < 0.0 or not (math.isfinite(a) and math.isfinite(x)):
        raise ValueError(f"reg_upper_gamma domain: a={a}, x={x}")
    if x == 0.0:
        return 1.0
    if x <= 1.0 or x <= a:
        return 1.0 - reg_lower_gamma(a, x)

    ax = a * math.log(x) - x - math.lgamma(a)
    if ax < -709.0:
        return 0.0
    ax = math.exp(ax)

    # continued fraction
    y = 1.0 - a
    z = x + y + 1.0
    c = 0.0
    pkm2 = 1.0
    qkm2 = x
    pkm1 = x + 1.0
    qkm1 = z * x
    ans = pkm1 / qkm1
    for _ in range(_MAXITER):
        c += 1.0
        y += 1.0
        z += 2.0
        yc = y * c
        pk = pkm1 * z - pkm2 * yc
        qk = qkm1 * z - qkm2 * yc
        if qk != 0.0:
            r = pk / qk
            t = abs((ans - r) / r)
            ans = r
        else:
            t = 1.0
        pkm2, pkm1 = pkm1, pk
        qkm2, qkm1 = qkm1, qk
        if abs(pk) > _BIG:
            pkm2 *= _BIGINV
            pkm1 *= _BIGINV
            qkm2 *= _BIGINV
            qkm1 *= _BIGINV
        if t <= _MACHEP:
            break
    return ans * ax


def chi2_sf(x: float, df: float) -> float:
    """Chi-square survival function P(X > x) with ``df`` degrees of freedom."""
    if df <= 0.0:
        raise ValueError(f"chi2_sf needs df > 0, got {df}")
    if x <= 0.0:
        return 1.0
    return reg_upper_gamma(df / 2.0, x / 2.0)
