# Trend, comparison and ranking statistics against hand-derived oracles.

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from srgrowth.errors import InsufficientDataError, SegmentCoverageError
from srgrowth.fitting import FitResult, GofScores
from srgrowth.models import MODEL_ORDER, ModelId
from srgrowth.reporting import GOF_METRICS
from srgrowth.series import FailureSeries
from srgrowth.stats import (
    RankingTable,
    _pooled_ranks,
    compare_groups,
    dunn_posthoc,
    eta_squared,
    inter_rater_agreement,
    kruskal_wallis,
    laplace_factor,
    mean,
    pool_scores,
    rank_models,
    sample_sd,
)


def series_of(times, horizon):
    return FailureSeries(times=np.asarray(times, dtype=float), horizon=horizon)


# ---------------------------------------------------------------------------
# correctly rounded sums
# ---------------------------------------------------------------------------


def exact_sums(values, centre):
    """The exact sum of ``values`` and of their squared deviations from
    ``centre``, as fractions: every float is an integer over a power of two,
    so over the largest denominator d both are integer sums."""
    ratios = [v.as_integer_ratio() for v in [*values, centre]]
    d = max(den for _, den in ratios)
    scaled = [num * (d // den) for num, den in ratios]
    c = scaled.pop()
    return Fraction(sum(scaled), d), Fraction(sum((s - c) ** 2 for s in scaled), d * d)


@settings(max_examples=300, deadline=None)
@given(
    # a few values, exactly 8, around 128, and up to 5000
    n=st.one_of(st.integers(1, 7), st.just(8), st.integers(127, 129), st.integers(1, 5000)),
    seed=st.integers(0, 2**32 - 1),
    offset=st.sampled_from([0.0, 1.0, -3.5, 1e6]),
    spread=st.floats(0.0, 8.0),
)
def test_mean_and_sample_sd_are_near_exact_and_order_free(n, seed, offset, spread):
    """Against exact sums, on values whose magnitudes span up to 16 decades:
    the mean within 1 ulp of the float nearest the exact mean, the standard
    deviation about that mean within 2 ulps of the float nearest the exact
    one, and both bit for bit the same for the values shuffled."""
    rng = np.random.default_rng(seed)
    x = offset + rng.standard_normal(n) * 10.0 ** rng.uniform(-spread, spread, n)
    values = x.tolist()
    shuffled = rng.permutation(x).tolist()
    centre = mean(values)
    total, squares = exact_sums(values, centre)
    oracle = float(total / n)
    assert abs(centre - oracle) <= math.ulp(oracle)
    assert mean(shuffled).hex() == centre.hex()
    if n >= 2:
        sd = sample_sd(values)
        oracle = math.sqrt(float(squares / (n - 1)))
        assert abs(sd - oracle) <= 2 * math.ulp(oracle)
        assert sample_sd(shuffled).hex() == sd.hex()


# ---------------------------------------------------------------------------
# Laplace trend factor
# ---------------------------------------------------------------------------


def test_laplace_symmetric_case_is_zero():
    """{1,2,3} with T=4: mean is exactly T/2, so u = 0."""
    res = laplace_factor(series_of([1.0, 2.0, 3.0], 4.0))
    assert res.u == 0.0
    assert not res.growth_significant


def test_laplace_early_cluster_hand_value():
    """{0.5, 1.0, 1.5} with T=4: mean 1.0, so the numerator is -1.0 and
    the denominator 4 sqrt(1/36) = 2/3, giving u = -1.5."""
    res = laplace_factor(series_of([0.5, 1.0, 1.5], 4.0))
    assert_allclose(res.u, -1.5, rtol=0, atol=1e-15)
    assert not res.growth_significant  # -1.5 is above the -1.96 cutoff


def test_laplace_late_cluster_mirror_value():
    """Mirroring the early cluster about T/2 flips the sign: {2.5,3,3.5}."""
    res = laplace_factor(series_of([2.5, 3.0, 3.5], 4.0))
    assert_allclose(res.u, 1.5, rtol=0, atol=1e-15)


def test_laplace_significance_threshold():
    # u scales with sqrt(n) at fixed shape; a strongly front-loaded large
    # series crosses the -1.96 line.
    times = np.linspace(0.01, 1.0, 40) ** 3 * 100.0
    res = laplace_factor(series_of(times, 100.0))
    assert res.u < -1.96
    assert res.growth_significant


def test_laplace_antisymmetry_under_time_reversal():
    rng = np.random.default_rng(77)
    for _ in range(50):
        n = int(rng.integers(2, 60))
        horizon = float(rng.uniform(10.0, 500.0))
        times = np.sort(rng.uniform(0.001, horizon, size=n))
        u = laplace_factor(series_of(times, horizon)).u
        u_rev = laplace_factor(series_of(np.sort(horizon - times), horizon)).u
        assert abs(u + u_rev) < 1e-12


def test_laplace_needs_two_points():
    with pytest.raises(InsufficientDataError):
        laplace_factor(series_of([1.0], 4.0))


# ---------------------------------------------------------------------------
# Kruskal-Wallis
# ---------------------------------------------------------------------------


def test_kruskal_wallis_separated_groups():
    """{1,2,3} vs {4,5,6}: rank sums 6 and 15, so
    H = 12/(6*7) * (36/3 + 225/3) - 3*7 = 174/7 - 21 = 27/7."""
    h, p = kruskal_wallis([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    assert_allclose(h, 27.0 / 7.0, rtol=0, atol=1e-12)
    assert abs(p - 0.0495) < 5e-4


def test_kruskal_wallis_tied_case_hand_value():
    """[1,1,2] vs [2,3,3]: average ranks give rank sums 6.5 and 14.5 and
    an uncorrected H of 64/21.  Three tied pairs give the correction
    1 - 18/210 = 32/35, so H = (64/21)/(32/35) = 10/3."""
    h, p = kruskal_wallis([[1.0, 1.0, 2.0], [2.0, 3.0, 3.0]])
    assert_allclose(h, 10.0 / 3.0, rtol=0, atol=1e-12)
    assert 0.0 < p < 1.0


def test_kruskal_wallis_identical_groups_degenerate():
    h, p = kruskal_wallis([[5.0, 5.0], [5.0, 5.0, 5.0]])
    assert h == 0.0
    assert p == 1.0
    # every rank is tied, so no pair has a rank variance to test on
    assert np.array_equal(dunn_posthoc([[5.0, 5.0], [5.0, 5.0, 5.0]]), np.ones((2, 2)))


def test_kruskal_wallis_brute_force_oracle():
    """Independent reimplementation: explicit average ranks, the direct
    12/(N(N+1)) sum formula and the same tie correction, on random
    integer-valued samples (integers force ties)."""
    rng = np.random.default_rng(2023)
    for _ in range(30):
        k = int(rng.integers(2, 5))
        groups = [rng.integers(0, 8, size=int(rng.integers(3, 9))).astype(float)
                  for _ in range(k)]
        pooled = np.concatenate(groups)
        n = pooled.size
        # average ranks by explicit comparison counting
        ranks = np.array([
            np.sum(pooled < v) + 1 + (np.sum(pooled == v) - 1) / 2.0
            for v in pooled
        ])
        h_unc = 12.0 / (n * (n + 1)) * sum(
            np.sum(ranks[start:start + g.size]) ** 2 / g.size
            for start, g in zip(np.cumsum([0] + [g.size for g in groups])[:-1], groups)
        ) - 3.0 * (n + 1)
        _, counts = np.unique(pooled, return_counts=True)
        correction = 1.0 - np.sum(counts**3 - counts) / (n**3 - n)
        expected = 0.0 if correction == 0.0 else h_unc / correction
        h, _ = kruskal_wallis(groups)
        assert_allclose(h, expected, rtol=1e-10, atol=1e-10)


def test_kruskal_wallis_guards():
    with pytest.raises(InsufficientDataError):
        kruskal_wallis([[1.0, 2.0]])
    with pytest.raises(InsufficientDataError):
        kruskal_wallis([[1.0, 2.0], []])
    with pytest.raises(InsufficientDataError):
        kruskal_wallis([[1.0], [2.0]])
    with pytest.raises(ValueError):
        kruskal_wallis([[1.0, float("nan")], [2.0, 3.0]])


def loop_pooled_ranks(groups):
    """The run-by-run loop that computed the average ranks and tie sum
    before they were vectorised."""
    pooled = np.concatenate(groups)
    order = np.argsort(pooled, kind="mergesort")
    ranks = np.empty(pooled.size, dtype=float)
    sorted_vals = pooled[order]
    tie_sum = 0.0
    i = 0
    while i < pooled.size:
        j = i
        while j + 1 < pooled.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        run = j - i + 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        if run > 1:
            tie_sum += run**3 - run
        i = j + 1
    return ranks, tie_sum


# few distinct values, so most samples carry long tie runs
tied_groups = st.lists(
    st.lists(st.sampled_from([0.0, -0.0, 0.5, 1.0, 3.0, 1e300]), min_size=1, max_size=40),
    min_size=2,
    max_size=9,
)


@settings(max_examples=300, deadline=None)
@given(groups=tied_groups)
def test_pooled_ranks_equal_the_loop_bitwise(groups):
    arrays = [np.asarray(g, dtype=float) for g in groups]
    ranks, tie_sum = _pooled_ranks(arrays)
    expected_ranks, expected_tie_sum = loop_pooled_ranks(arrays)
    assert np.array(ranks, dtype=float).tobytes() == expected_ranks.tobytes()
    assert type(tie_sum) is float and tie_sum == expected_tie_sum


@st.composite
def equal_mean_rank_groups(draw):
    """Groups of pairs m - d, m + d and lone values m: the pooled sample is
    symmetric around m, so each pair's average ranks sum to N + 1, a lone m
    ranks (N + 1)/2, and every group's mean rank is the pooled one."""
    m = draw(st.sampled_from([0.0, 0.5, 3.0]))
    offsets = st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0]), max_size=12)
    groups = []
    for _ in range(draw(st.integers(2, 3))):
        pairs = draw(offsets)
        lone = draw(st.integers(0 if pairs else 1, 2))
        groups.append([m] * lone + [v for d in pairs for v in (m - d, m + d)])
    return groups


@settings(max_examples=200, deadline=None)
@given(
    groups=st.one_of(tied_groups, equal_mean_rank_groups()).filter(
        lambda gs: sum(map(len, gs)) >= 3
    ),
    data=st.data(),
)
def test_kruskal_wallis_invariant_under_permuting_groups(groups, data):
    permuted = data.draw(st.permutations(groups))
    h, p = kruskal_wallis(groups)
    h_perm, p_perm = kruskal_wallis(permuted)
    # the per-group terms of H are the same numbers, summed in another order
    assert h_perm == pytest.approx(h, rel=1e-12, abs=1e-12)
    assert p_perm == pytest.approx(p, rel=1e-10, abs=1e-14)


@settings(max_examples=300, deadline=None)
@given(
    groups=st.lists(
        st.lists(st.one_of(st.sampled_from([0.0, 0.5, 1e300]), st.integers(-20, 20).map(float)),
                 min_size=1, max_size=40),
        min_size=2,
        max_size=9,
    ).filter(lambda gs: sum(map(len, gs)) >= 3 and len({v for g in gs for v in g}) > 1)
)
def test_kruskal_wallis_matches_scipy(groups):
    stats = pytest.importorskip("scipy.stats")
    h, p = kruskal_wallis(groups)
    ref = stats.kruskal(*groups)
    # scipy forms 12/(N(N+1))*sum R_i^2/n_i - 3(N+1), which cancels to about
    # eps*3(N+1), over the tie correction, where H is near 0; the
    # sum-of-squares form does not, so it is compared down to that noise.
    n = sum(map(len, groups))
    ties = stats.tiecorrect(stats.rankdata(np.concatenate(groups)))
    noise = 8 * 3 * (n + 1) * sys.float_info.epsilon / ties
    assert h == pytest.approx(ref.statistic, rel=1e-12, abs=noise)
    # near H = 0 the chi-square tail is too steep to take that noise, so p
    # is checked against scipy's tail at this H
    assert p == pytest.approx(stats.chi2.sf(h, len(groups) - 1), rel=1e-12)


@pytest.mark.parametrize(
    "groups", [[[0, 0, 0, 0, 1, 1, 1, 1], [0.5]], [[0.5], [0, 0, 0, 0, 1, 1, 1, 1]]]
)
def test_kruskal_wallis_equal_mean_ranks_give_exactly_zero(groups):
    """Both groups' mean rank is the pooled (N+1)/2 = 5, so H is 0 exactly."""
    assert kruskal_wallis(groups) == (0.0, 1.0)


@settings(max_examples=200, deadline=None)
@given(groups=equal_mean_rank_groups().filter(lambda gs: sum(map(len, gs)) >= 3))
def test_kruskal_wallis_is_exactly_zero_when_mean_ranks_agree(groups):
    assert kruskal_wallis(groups) == (0.0, 1.0)


# ---------------------------------------------------------------------------
# Dunn post-hoc
# ---------------------------------------------------------------------------


def test_dunn_two_groups_hand_value():
    """{1,2,3} vs {4,5,6}: mean ranks 2 and 5, no ties.
    z = 3 / sqrt((6*7/12)(1/3 + 1/3)) = 3 sqrt(3/7); with one pair the
    Bonferroni factor is 1, so p = erfc(z / sqrt 2)."""
    p = dunn_posthoc([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    z = 3.0 * math.sqrt(3.0 / 7.0)
    expected = math.erfc(z / math.sqrt(2.0))
    assert [len(row) for row in p] == [2, 2]
    assert p[0][0] == 1.0 and p[1][1] == 1.0
    assert_allclose(p[0][1], expected, rtol=1e-10)
    assert p[0][1] == p[1][0]


def test_dunn_three_groups_bonferroni_factor():
    """[1,2], [3,4], [5,6]: sigma per pair sqrt((42/12)(1/2+1/2)) and rank
    gaps 2 and 4; three pairwise tests triple each raw p-value."""
    p = dunn_posthoc([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    sigma = math.sqrt(3.5)
    p01 = 3.0 * math.erfc((2.0 / sigma) / math.sqrt(2.0))
    p02 = 3.0 * math.erfc((4.0 / sigma) / math.sqrt(2.0))
    assert_allclose(p[0][1], min(1.0, p01), rtol=1e-10)
    assert_allclose(p[0][2], min(1.0, p02), rtol=1e-10)


def test_dunn_tie_correction_hand_value():
    """[1,1] vs [2,2]: tied pairs shrink the variance term to
    (N(N+1)/12 - sum(t^3-t)/(12(N-1)))(1/2+1/2) = 5/3 - 1/3 = 4/3,
    so z = 2/sqrt(4/3) = sqrt(3)."""
    p = dunn_posthoc([[1.0, 1.0], [2.0, 2.0]])
    expected = math.erfc(math.sqrt(3.0) / math.sqrt(2.0))
    assert_allclose(p[0][1], expected, rtol=1e-10)


def test_dunn_matches_scipy_normal_tail():
    """Dunn's z recomputed from scipy's average ranks, with its p from
    scipy's normal survival function; rounding the draws makes ties."""
    stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(11)
    for _ in range(30):
        sizes = [int(n) for n in rng.integers(2, 12, size=3)]
        groups = [np.round(rng.normal(0.5 * i, 1.0, n), 1) for i, n in enumerate(sizes)]
        pooled = np.concatenate(groups)
        ranks = stats.rankdata(pooled)
        n_total = pooled.size
        _, ties = np.unique(pooled, return_counts=True)
        base_var = n_total * (n_total + 1) / 12.0 - np.sum(ties**3 - ties) / (12.0 * (n_total - 1))
        ends = np.cumsum([0] + sizes)
        mean_ranks = [ranks[lo:hi].mean() for lo, hi in zip(ends, ends[1:])]
        p = dunn_posthoc(groups)
        for i, j in ((0, 1), (0, 2), (1, 2)):
            z = (mean_ranks[i] - mean_ranks[j]) / math.sqrt(
                base_var * (1.0 / sizes[i] + 1.0 / sizes[j])
            )
            expected = min(1.0, 2.0 * stats.norm.sf(abs(z)) * 3)
            assert_allclose(p[i][j], expected, rtol=1e-12)


def test_dunn_identical_groups_p_capped_at_one():
    p = dunn_posthoc([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
    assert np.all(np.array(p) <= 1.0)
    assert np.all(np.array(p) >= 0.0)


# ---------------------------------------------------------------------------
# effect size
# ---------------------------------------------------------------------------


def test_eta_squared_hand_value():
    """(H - k + 1)/(n - k) with H=3.857143, k=2, n=6: 2.857143/4."""
    eff = eta_squared(3.857143, 2, 6)
    assert abs(eff.value - 0.714286) < 1e-6
    assert eff.label == "large"


def test_eta_squared_labels_at_thresholds():
    # with k=2, n=102 the value is (H-1)/100, so H picks the value directly
    assert eta_squared(1.0 + 100 * 0.0099, 2, 102).label == "negligible"
    assert eta_squared(2.0, 2, 102).label == "small"          # value 0.01
    assert eta_squared(7.0, 2, 102).label == "moderate"       # value 0.06
    assert eta_squared(15.0, 2, 102).label == "large"         # value 0.14
    assert eta_squared(6.99, 2, 102).label == "small"


def test_eta_squared_can_go_negative():
    eff = eta_squared(0.5, 2, 6)
    assert eff.value == pytest.approx(-0.125)
    assert eff.label == "negligible"


def test_eta_squared_guards():
    with pytest.raises(ValueError):
        eta_squared(1.0, 1, 10)
    with pytest.raises(InsufficientDataError):
        eta_squared(1.0, 3, 3)


# ---------------------------------------------------------------------------
# compare_groups
# ---------------------------------------------------------------------------


def test_compare_groups_bundles_consistent_pieces():
    groups = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
    comp = compare_groups(["lo", "hi"], groups)
    h, p = kruskal_wallis(groups)
    assert comp.H == h
    assert comp.p_value == p
    assert comp.df == 1
    assert comp.group_labels == ("lo", "hi")
    assert [len(row) for row in comp.dunn] == [2, 2]
    assert_allclose(comp.eta_squared.value, (h - 1.0) / 4.0, rtol=1e-12)


def test_compare_groups_label_count_must_match():
    with pytest.raises(ValueError):
        compare_groups(["only"], [[1.0, 2.0], [3.0, 4.0]])


# ---------------------------------------------------------------------------
# model ranking and agreement
# ---------------------------------------------------------------------------


def fabricate(model, r2=float("nan"), aic=float("nan")):
    gof = GofScores(r2=r2, aic=aic, bic=aic, rse=1.0)
    return FitResult(
        model=ModelId(model), params=(1.0, 1.0), rss=1.0,
        converged=True, iterations_used=3, gof=gof,
    )


def test_rank_models_orders_by_mean_and_direction():
    results = {
        "seg": [
            fabricate("GO", r2=0.90, aic=10.0),
            fabricate("GO", r2=0.80, aic=12.0),   # mean r2 0.85, mean aic 11
            fabricate("MO", r2=0.99, aic=50.0),
            fabricate("DU", r2=0.10, aic=-3.0),
        ]
    }
    by_r2 = rank_models(results, metric="r2")
    assert by_r2.ranks["seg"][ModelId.MO] == 1
    assert by_r2.ranks["seg"][ModelId.GO] == 2
    assert by_r2.ranks["seg"][ModelId.DU] == 3
    assert by_r2.ira_percent is None  # single segment

    by_aic = rank_models(results, metric="aic")
    assert by_aic.ranks["seg"][ModelId.DU] == 1   # lowest aic wins
    assert by_aic.ranks["seg"][ModelId.GO] == 2
    assert by_aic.ranks["seg"][ModelId.MO] == 3


@pytest.mark.parametrize("metric", GOF_METRICS)
def test_rank_models_direction_of_each_score(metric):
    """R^2 ranks highest first; the information criteria and the residual
    standard error rank lowest first."""

    def scored(model, value):
        gof = GofScores(**{name: value for name in GOF_METRICS})
        return FitResult(model=ModelId(model), params=(1.0, 1.0), rss=1.0,
                         converged=True, iterations_used=3, gof=gof)

    table = rank_models({"seg": [scored("GO", 1.0), scored("MO", 2.0), scored("DU", 3.0)]}, metric)
    best_first = sorted(table.models, key=table.ranks["seg"].get)
    expected = ["DU", "MO", "GO"] if metric == "r2" else ["GO", "MO", "DU"]
    assert [model.value for model in best_first] == expected


def test_rank_models_breaks_ties_alphabetically():
    results = {
        "seg": [
            fabricate("GO", r2=0.5),
            fabricate("DU", r2=0.5),
            fabricate("LL", r2=0.5),
        ]
    }
    table = rank_models(results, metric="r2")
    assert table.ranks["seg"][ModelId.DU] == 1
    assert table.ranks["seg"][ModelId.GO] == 2
    assert table.ranks["seg"][ModelId.LL] == 3


def test_rank_models_means_round_as_numpy():
    """Ten values of 0.1 average to exactly 0.1, so DU ties GO's single 0.1
    and ranks first by name."""
    results = {"seg": [fabricate("GO", r2=0.1), *(fabricate("DU", r2=0.1) for _ in range(10))]}
    table = rank_models(results, metric="r2")
    assert table.ranks["seg"] == {ModelId.DU: 1, ModelId.GO: 2}


def test_pool_scores_drops_nan_and_keeps_read_order():
    nan = float("nan")
    failed = FitResult(model=ModelId.LL, params=(nan,) * 3, rss=nan, converged=False,
                       iterations_used=0, gof=GofScores(nan, nan, nan, nan))
    pooled = pool_scores([
        fabricate("MO", r2=0.5, aic=3.0),
        fabricate("GO", r2=0.9),
        failed,
        fabricate("MO", r2=nan, aic=1.0),
        fabricate("MO", r2=0.7, aic=2.0),
    ])
    assert list(pooled) == [ModelId.MO, ModelId.GO, ModelId.LL]  # first read first
    assert pooled[ModelId.MO] == {
        "r2": [0.5, 0.7], "aic": [3.0, 1.0, 2.0], "bic": [3.0, 1.0, 2.0], "rse": [1.0] * 3,
    }
    assert pooled[ModelId.GO] == {"r2": [0.9], "aic": [], "bic": [], "rse": [1.0]}
    assert pooled[ModelId.LL] == {"r2": [], "aic": [], "bic": [], "rse": []}


def test_rank_models_ignores_nan_and_requires_coverage():
    results = {
        "a": [fabricate("GO", r2=0.9), fabricate("MO", r2=0.5)],
        "b": [fabricate("GO", r2=0.7), fabricate("MO", r2=float("nan"))],
    }
    with pytest.raises(SegmentCoverageError):
        rank_models(results, metric="r2")


def test_rank_models_rejects_unknown_metric():
    with pytest.raises(ValueError):
        rank_models({"s": [fabricate("GO", r2=1.0)]}, metric="mape")


def test_rank_models_two_segments_reports_agreement():
    results = {
        "a": [fabricate("GO", r2=0.9), fabricate("MO", r2=0.5)],
        "b": [fabricate("GO", r2=0.8), fabricate("MO", r2=0.4)],
    }
    table = rank_models(results, metric="r2")
    assert table.ira_percent == 100.0


def make_table(grid):
    """RankingTable from {model name: (rank per segment, ...)} over S,M,L."""
    segments = ("S", "M", "L")
    models = tuple(m for m in MODEL_ORDER if m.value in grid)
    ranks = {
        seg: {ModelId(name): grid[name][i] for name in grid}
        for i, seg in enumerate(segments)
    }
    return RankingTable(segments=segments, models=models, ranks=ranks, ira_percent=None)


# Rank grids over small/medium/large project-size segments; each model row
# gives its rank in S, M, L order.  The agreement counts below are by hand:
# a cell agrees when one model holds the same rank in both segments of a
# pair, giving 27 cells per grid (9 models x 3 segment pairs).
SIZE_GRIDS = {
    # 11 agreeing cells: DU (S,M), GO (S,M), GOS all three pairs,
    # HD (M,L), LL (M,L), MO all three pairs, YE (S,M).
    "loc": {
        "DU": (5, 5, 3), "GO": (6, 6, 7), "GOS": (9, 9, 9),
        "HD": (2, 4, 4), "LL": (3, 1, 1), "MO": (8, 8, 8),
        "WE": (4, 3, 2), "YE": (7, 7, 6), "YR": (1, 2, 5),
    },
    # 7 cells: GOS all three pairs, LL (M,L), MO (S,L), WE (M,L), YE (S,L).
    "noc": {
        "DU": (6, 4, 3), "GO": (5, 8, 6), "GOS": (9, 9, 9),
        "HD": (2, 3, 5), "LL": (3, 1, 1), "MO": (8, 7, 8),
        "WE": (4, 2, 2), "YE": (7, 6, 7), "YR": (1, 5, 4),
    },
    # 6 cells: DU (S,M), LL (M,L), MO (S,L), WE (M,L), YE (S,M), YR (M,L).
    "noi": {
        "DU": (5, 5, 3), "GO": (6, 8, 7), "GOS": (8, 9, 6),
        "HD": (2, 3, 5), "LL": (3, 1, 1), "MO": (9, 8, 9),
        "WE": (4, 2, 2), "YE": (7, 7, 8), "YR": (1, 4, 4),
    },
    # 1 cell: GOS (S,M).
    "nofa": {
        "DU": (5, 4, 3), "GO": (6, 8, 7), "GOS": (9, 9, 5),
        "HD": (1, 5, 6), "LL": (3, 1, 2), "MO": (8, 7, 9),
        "WE": (4, 2, 1), "YE": (7, 6, 8), "YR": (2, 3, 4),
    },
}


def test_inter_rater_agreement_size_grids():
    expected = {"loc": 11, "noc": 7, "noi": 6, "nofa": 1}
    for name, grid in SIZE_GRIDS.items():
        ira = inter_rater_agreement(make_table(grid))
        assert_allclose(ira, 100.0 * expected[name] / 27.0, rtol=0, atol=1e-9), name


def test_inter_rater_agreement_extremes():
    same = {m.value: (1, 1, 1) for m in MODEL_ORDER}
    assert inter_rater_agreement(make_table(same)) == 100.0
    disjoint = {m.value: (1, 2, 3) for m in MODEL_ORDER}
    assert inter_rater_agreement(make_table(disjoint)) == 0.0


def test_inter_rater_agreement_needs_two_segments():
    table = RankingTable(
        segments=("only",), models=(ModelId.GO,),
        ranks={"only": {ModelId.GO: 1}}, ira_percent=None,
    )
    with pytest.raises(InsufficientDataError):
        inter_rater_agreement(table)


# a few repeated values, so that ties are common, and any finite value
score_values = st.sampled_from([-2.0, 0.0, 0.5, 1.0]) | st.floats(-1e6, 1e6)


@st.composite
def score_tables(draw):
    """{segment: fit results} in which every segment has a finite value of
    every score for every model, and the metric to rank them by."""
    models = draw(st.lists(st.sampled_from(MODEL_ORDER), min_size=1, unique=True))
    segments = draw(st.lists(st.text(max_size=3), min_size=1, max_size=4, unique=True))
    results = {
        segment: [
            FitResult(
                model=model, params=(1.0, 1.0), rss=1.0, converged=True, iterations_used=3,
                gof=GofScores(*draw(st.lists(score_values, min_size=4, max_size=4))),
            )
            for model in models
            for _ in range(draw(st.integers(1, 3)))
        ]
        for segment in segments
    }
    return results, draw(st.sampled_from(["r2", "aic", "bic", "rse"]))


@settings(max_examples=100, deadline=None)
@given(case=score_tables())
def test_rank_models_gives_every_segment_a_permutation(case):
    results, metric = case
    table = rank_models(results, metric)
    k = len(table.models)
    assert set(table.models) == {r.model for rs in results.values() for r in rs}
    assert table.segments == tuple(results)
    for segment in table.segments:
        assert sorted(table.ranks[segment].values()) == list(range(1, k + 1))
    if len(table.segments) < 2:
        assert table.ira_percent is None
    else:
        assert 0.0 <= table.ira_percent <= 100.0


@settings(max_examples=50, deadline=None)
@given(case=score_tables(), copies=st.integers(2, 4))
def test_segments_with_the_same_means_agree_fully(case, copies):
    results, metric = case
    same = next(iter(results.values()))
    table = rank_models({f"s{i}": same for i in range(copies)}, metric)
    assert table.ira_percent == 100.0
