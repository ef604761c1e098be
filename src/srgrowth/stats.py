"""Trend detection, nonparametric model comparison, and rank agreement.

The module answers three questions about fitted results:

* is there reliability growth at all (Laplace trend test),
* do the models differ in goodness of fit (Kruskal-Wallis with Dunn's
  pairwise follow-up, Bonferroni adjusted, plus an eta-squared effect size),
* do different project segments agree on the model ranking (a
  total-agreement percentage over rank ties across segments).

Everything here is plain Python over small samples, so the verbs that
only test and compare load no numpy.  Chi-square tail probabilities come
from the closed form for integer degrees of freedom (Abramowitz & Stegun
26.4.4-26.4.5), normal tails from ``math.erfc``.  ``mean`` and
``sample_sd`` add in numpy's pairwise order, so they round exactly as
``np.mean`` and ``np.std(ddof=1)`` do.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from functools import reduce
from operator import add
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .errors import InsufficientDataError, SegmentCoverageError
from .records import MODEL_ORDER, FitResult, ModelId
from .reporting import EFFECT_LABELS, EFFECT_THRESHOLDS, GOF_METRICS, LAPLACE_CRITICAL

if TYPE_CHECKING:
    from .series import FailureSeries

# past this h, e^-h is no longer a normal float
_H_SUBNORMAL = -math.log(sys.float_info.min)


@dataclass(frozen=True)
class TrendResult:
    """Laplace factor of a failure series."""

    u: float
    n: int
    horizon: float
    growth_significant: bool


@dataclass(frozen=True)
class EffectSize:
    value: float
    label: str


@dataclass(frozen=True, eq=False)
class GroupComparison:
    group_labels: tuple[str, ...]
    group_values: tuple[tuple[float, ...], ...]
    H: float
    df: int
    p_value: float
    eta_squared: EffectSize
    dunn: tuple[tuple[float, ...], ...]


@dataclass(frozen=True)
class RankingTable:
    """Per-segment ranks of each model (1 = best mean metric).

    ``ranks[segment][model]`` is an integer rank; every row is a
    permutation of 1..len(models).  ``ira_percent`` is filled when the
    table has at least two segments.
    """

    segments: tuple[str, ...]
    models: tuple[ModelId, ...]
    metric: str
    ranks: dict[str, dict[ModelId, int]]
    ira_percent: float | None


# ---------------------------------------------------------------------------
# sums in numpy's order
# ---------------------------------------------------------------------------


def _pairwise_sum(values: Sequence[float], lo: int, hi: int) -> float:
    """values[lo:hi] summed as numpy's pairwise summation does: fewer than
    8 values one by one; up to 128 values in 8 running sums of every 8th
    value, combined as a tree, plus the leftover tail one by one; beyond
    that the two halves, split at a multiple of 8, each summed this way."""
    n = hi - lo
    if n < 8:
        total = 0.0
        for i in range(lo, hi):
            total += values[i]
        return total
    if n <= 128:
        end = hi - n % 8
        r = [reduce(add, values[j:end:8]) for j in range(lo, lo + 8)]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for i in range(end, hi):
            total += values[i]
        return total
    half = n // 2
    half -= half % 8
    return _pairwise_sum(values, lo, lo + half) + _pairwise_sum(values, lo + half, hi)


def mean(values: Sequence[float]) -> float:
    """The arithmetic mean, rounded exactly as ``np.mean`` rounds it."""
    # numpy adds the pairwise sum to its identity 0.0, which turns -0.0 into 0.0
    return (0.0 + _pairwise_sum(values, 0, len(values))) / len(values)


def sample_sd(values: Sequence[float]) -> float:
    """The standard deviation with n - 1 degrees of freedom, rounded exactly
    as ``np.std(values, ddof=1)`` rounds it."""
    centre = mean(values)
    squares = [(v - centre) * (v - centre) for v in values]
    return math.sqrt((0.0 + _pairwise_sum(squares, 0, len(squares))) / (len(values) - 1))


def laplace_factor(series: FailureSeries) -> TrendResult:
    """Laplace trend factor u of a failure series.

    Negative u means the failure times concentrate early in the window,
    so the inter-failure gaps grow: reliability growth.  Growth counts as
    significant below the two-sided 5% point, u < -1.96.
    """
    t = series.times
    n = series.n
    horizon = series.horizon
    if n < 2:
        raise InsufficientDataError(f"Laplace factor needs n >= 2, got {n}")
    u = (mean(t) - horizon / 2.0) / (horizon * math.sqrt(1.0 / (12.0 * n)))
    return TrendResult(u=u, n=n, horizon=horizon, growth_significant=u < -LAPLACE_CRITICAL)


def chi2_sf(x: float, df: int) -> float:
    """Chi-square survival function P(X > x) for an integer ``df`` >= 1.

    With h = x/2 the tail is a finite sum (Abramowitz & Stegun 26.4.4-5):
    e^-h * sum_{i<df/2} h^i/i! for even df, and for odd df
    erfc(sqrt h) + e^-h * sum_{i=1}^{(df-1)/2} h^(i-1/2)/Gamma(i+1/2).
    Each term is the previous one times h/(i+...), starting from e^-h, so
    nothing overflows.  Past x = 1416.79, where e^-h is no longer a normal
    float, each term is formed from its logarithm instead, -h + i ln h -
    ln i! (even df) or -h + (i-1/2) ln h - ln Gamma(i+1/2) (odd df), and the
    terms are summed relative to the largest, so the tail keeps its
    relative accuracy for as long as it is a normal float.
    """
    if not (df >= 1 and float(df).is_integer()):
        raise ValueError(f"chi2_sf needs an integer df >= 1, got {df}")
    if x <= 0.0:
        return 1.0
    if not math.isfinite(x):
        raise ValueError(f"chi2_sf needs a finite x, got {x}")
    h, df = x / 2.0, int(df)
    if h > _H_SUBNORMAL:
        log_h = math.log(h)
        if df % 2 == 0:
            total = 0.0
            logs = [i * log_h - math.lgamma(i + 1.0) for i in range(df // 2)]
        else:
            total = math.erfc(math.sqrt(h))
            logs = [(i - 0.5) * log_h - math.lgamma(i + 0.5) for i in range(1, df // 2 + 1)]
        top = max(logs, default=0.0)
        return total + math.exp(top - h) * sum(math.exp(v - top) for v in logs)
    if df % 2 == 0:
        term = total = math.exp(-h)
        for i in range(1, df // 2):
            term *= h / i
            total += term
    else:
        total = math.erfc(math.sqrt(h))
        term = 2.0 * math.exp(-h) * math.sqrt(h / math.pi)
        for i in range(1, df // 2 + 1):
            total += term
            term *= h / (i + 0.5)
    return min(total, 1.0)


# ---------------------------------------------------------------------------
# rank machinery shared by Kruskal-Wallis and Dunn
# ---------------------------------------------------------------------------


def _pooled_ranks(groups: Sequence[Sequence[float]]) -> tuple[list[float], float]:
    """Average ranks of the pooled sample and the tie parameter sum(t^3 - t)."""
    pooled = [v for g in groups for v in g]
    order = sorted(range(len(pooled)), key=pooled.__getitem__)  # stable
    ranks = [0.0] * len(pooled)
    tie_sum = 0.0
    start = 0
    for end in range(1, len(order) + 1):
        if end < len(order) and pooled[order[end]] == pooled[order[start]]:
            continue
        # the run of equal values at sorted positions start..end-1 shares
        # the average of the 1-based ranks start+1..end
        run = end - start
        rank = start + (run + 1) / 2.0
        for i in order[start:end]:
            ranks[i] = rank
        tie_sum += float(run) ** 3 - run
        start = end
    return ranks, tie_sum


def _validate_groups(groups) -> list[tuple[float, ...]]:
    samples = []
    for g in groups:
        try:
            # an ndarray of more than one axis has an ndim to say so
            sample = tuple(map(float, g)) if getattr(g, "ndim", 1) == 1 else ()
        except TypeError:  # a scalar, or a group of sequences
            sample = ()
        if not sample:
            raise InsufficientDataError("every group must be a nonempty 1-D sample")
        if not all(map(math.isfinite, sample)):
            raise ValueError("group values must be finite")
        samples.append(sample)
    if len(samples) < 2:
        raise InsufficientDataError("need at least 2 groups")
    if sum(map(len, samples)) < 3:
        raise InsufficientDataError("need at least 3 observations in total")
    return samples


def kruskal_wallis(groups: Sequence[Iterable[float]]) -> tuple[float, float]:
    """Kruskal-Wallis H and its chi-square p-value (df = k - 1).

    H = 12/(N(N+1)) * sum n_i (mean rank_i - (N+1)/2)^2 over average ranks,
    divided by the standard tie correction (Kruskal & Wallis, JASA 47(260),
    1952).  A sum of squares, it is never negative and is exactly 0 when
    every group's mean rank is the pooled one.  When all pooled values are
    identical the statistic degenerates to H = 0, p = 1.
    """
    samples = _validate_groups(groups)
    ranks, tie_sum = _pooled_ranks(samples)
    n_total = len(ranks)
    correction = 1.0 - tie_sum / (n_total**3 - n_total)
    if correction == 0.0:
        return 0.0, 1.0
    centre = (n_total + 1.0) / 2.0
    spread = 0.0
    offset = 0
    # rank sums are sums of half-integers, exact in any order
    for g in samples:
        mean_rank = sum(ranks[offset : offset + len(g)]) / len(g)
        spread += len(g) * (mean_rank - centre) ** 2
        offset += len(g)
    h = 12.0 / (n_total * (n_total + 1.0)) * spread / correction
    return h, chi2_sf(h, len(samples) - 1)


def dunn_posthoc(groups: Sequence[Iterable[float]]) -> tuple[tuple[float, ...], ...]:
    """Dunn's pairwise z-tests on mean ranks, Bonferroni adjusted.

    Returns a symmetric k x k matrix, as a tuple of rows, of adjusted
    two-sided p-values (diagonal 1).  The adjustment multiplies each raw p
    by the number of pairs k*(k-1)/2 and caps at 1.
    """
    samples = _validate_groups(groups)
    k = len(samples)
    ranks, tie_sum = _pooled_ranks(samples)
    n_total = len(ranks)
    tie_term = tie_sum / (12.0 * (n_total - 1.0))
    base_var = n_total * (n_total + 1.0) / 12.0 - tie_term

    mean_ranks = []
    offset = 0
    for g in samples:
        mean_ranks.append(sum(ranks[offset : offset + len(g)]) / len(g))
        offset += len(g)

    n_pairs = k * (k - 1) / 2.0
    out = [[1.0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            variance = base_var * (1.0 / len(samples[i]) + 1.0 / len(samples[j]))
            if variance <= 0.0:
                p_adj = 1.0
            else:
                z = (mean_ranks[i] - mean_ranks[j]) / math.sqrt(variance)
                p_adj = min(1.0, math.erfc(abs(z) / math.sqrt(2.0)) * n_pairs)
            out[i][j] = out[j][i] = p_adj
    return tuple(map(tuple, out))


def eta_squared(h: float, k: int, n: int) -> EffectSize:
    """Eta-squared effect size of a Kruskal-Wallis result.

    eta^2 = (H - k + 1) / (n - k), labeled by the usual rule of thumb:
    small from 0.01, moderate from 0.06, large from 0.14 (values below
    0.01 are reported as negligible).
    """
    if k < 2:
        raise ValueError(f"eta_squared needs k >= 2 groups, got {k}")
    if n <= k:
        raise InsufficientDataError(f"eta_squared needs n > k, got n={n}, k={k}")
    value = (h - k + 1.0) / (n - k)
    label = EFFECT_LABELS[0]
    for threshold, name in zip(EFFECT_THRESHOLDS, EFFECT_LABELS[1:]):
        if value >= threshold:
            label = name
    return EffectSize(value=value, label=label)


def compare_groups(labels: Sequence[str], groups: Sequence[Iterable[float]]) -> GroupComparison:
    """Kruskal-Wallis plus Dunn's follow-up over named groups."""
    samples = _validate_groups(groups)
    if len(labels) != len(samples):
        raise ValueError("labels and groups must align")
    h, p = kruskal_wallis(samples)
    k = len(samples)
    n = sum(map(len, samples))
    return GroupComparison(
        group_labels=tuple(str(x) for x in labels),
        group_values=tuple(samples),
        H=h,
        df=k - 1,
        p_value=p,
        eta_squared=eta_squared(h, k, n),
        dunn=dunn_posthoc(samples),
    )


# ---------------------------------------------------------------------------
# rankings across segments
# ---------------------------------------------------------------------------


def pool_scores(results: Iterable[FitResult]) -> dict[ModelId, dict[str, list[float]]]:
    """The finite values of every score in ``GOF_METRICS``, per model, in the
    order read.  A model whose values of a score are all non-finite still
    appears, with an empty list for that score."""
    scores: dict[ModelId, dict[str, list[float]]] = {}
    for result in results:
        pooled = scores.setdefault(result.model, {name: [] for name in GOF_METRICS})
        for name in GOF_METRICS:
            value = getattr(result.gof, name)
            if math.isfinite(value):
                pooled[name].append(value)
    return scores


def rank_models(
    results: Mapping[str, Sequence[FitResult]], metric: str = "r2"
) -> RankingTable:
    """Rank models within each segment by their mean metric value.

    Rank 1 is the best mean (highest for r2, lowest for aic/bic/rse).
    Ties break by model id, alphabetically.  Every segment must contribute
    at least one finite value for every ranked model; a gap raises
    ``SegmentCoverageError`` naming the model and segment.
    """
    metric = metric.lower()
    if metric not in GOF_METRICS:
        raise ValueError(f"metric must be one of {tuple(GOF_METRICS)}, got {metric!r}")
    if not results:
        raise InsufficientDataError("no segments to rank")

    segments = tuple(results.keys())
    pooled = {segment: pool_scores(results[segment]) for segment in segments}
    models = tuple(m for m in MODEL_ORDER if any(m in scores for scores in pooled.values()))
    if not models:
        raise InsufficientDataError("no fit results to rank")

    means: dict[str, dict[ModelId, float]] = {}
    for segment in segments:
        seg_means: dict[ModelId, float] = {}
        for model in models:
            values = pooled[segment].get(model, {}).get(metric)
            if not values:
                raise SegmentCoverageError(
                    f"model {model} has no finite {metric} values in segment {segment!r}"
                )
            seg_means[model] = mean(values)
        means[segment] = seg_means

    sign = -1.0 if GOF_METRICS[metric] else 1.0
    ranks: dict[str, dict[ModelId, int]] = {}
    for segment in segments:
        ordered = sorted(models, key=lambda m: (sign * means[segment][m], m.value))
        ranks[segment] = {model: i + 1 for i, model in enumerate(ordered)}

    table = RankingTable(
        segments=segments, models=models, metric=metric, ranks=ranks, ira_percent=None
    )
    if len(segments) >= 2:
        table = replace(table, ira_percent=inter_rater_agreement(table))
    return table


def inter_rater_agreement(table: RankingTable) -> float:
    """Percentage of total agreement between segment rankings.

    Treats each segment as a rater.  For every model and every unordered
    pair of segments, the cell agrees when both segments assign the model
    the same rank.  The result is agreeing cells over all such cells,
    / (models * segment pairs), as a percentage.
    """
    r = len(table.segments)
    if r < 2:
        raise InsufficientDataError("agreement needs at least two segments")
    n_pairs = r * (r - 1) // 2
    agreements = 0
    for model in table.models:
        for i in range(r):
            for j in range(i + 1, r):
                a = table.ranks[table.segments[i]][model]
                b = table.ranks[table.segments[j]][model]
                if a == b:
                    agreements += 1
    return 100.0 * agreements / (len(table.models) * n_pairs)
