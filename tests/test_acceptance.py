"""End-to-end acceptance checks.

Each test here is one externally stated requirement, checked at its
stated tolerance.  `pytest -v` on this file reads as the pass/fail
sheet for the package:

  1. parameter recovery on noiseless synthetic series for all nine models
  2. analytic gradients vs plain central differences, 100 random cases
  3. goodness-of-fit values vs direct formula evaluation, ten vectors
  4. Laplace trend factor on closed-form cases plus antisymmetry
  5. the rank-test chain: Kruskal-Wallis, chi-square tail, normal CDF,
     eta-squared effect size
  6. ingestion rules: defect filtering, release window thresholds,
     attribute size boundaries
  7. byte-identical reruns of the command line pipeline
  8. optional corpus-backed ordering check (skipped without a corpus)

Expected values are computed inline from the defining formulas, never
from the code under test.
"""

import hashlib
import json
import math
import os
import time
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest

from srgrowth.cli import main
from srgrowth.fitting import FitConfig, aic, bic, fit_all, r_squared, rse
from srgrowth.models import MODEL_ORDER, ModelId, descriptor, gradient, mean_value
from srgrowth.pipeline import (
    IssueRecord,
    ReleaseWindow,
    classify_attribute,
    filter_defects,
    segment_releases,
)
from srgrowth.series import FailureSeries
from srgrowth.stats import chi2_sf
from srgrowth.stats import dunn_posthoc, eta_squared, kruskal_wallis, laplace_factor

UTC = timezone.utc
T0 = datetime(2022, 6, 1, tzinfo=UTC)


# ---------------------------------------------------------------------------
# 1. parameter recovery
# ---------------------------------------------------------------------------

# Generating parameters, each inside its model's identifiable regime, and
# the mean value functions written out once more by hand so the series
# fed to the fitter never touches the implementation being tested.
TRUE_PARAMS = {
    ModelId.GO: (500.0, 0.05),
    ModelId.GOS: (400.0, 0.08),
    ModelId.HD: (450.0, 0.06, 2.0),
    ModelId.MO: (150.0, 0.12),
    ModelId.DU: (5.0, 0.9),
    ModelId.WE: (500.0, 0.02, 1.3),
    ModelId.YE: (500.0, 2.5, 0.1),
    ModelId.YR: (500.0, 2.0, 0.0008),
    ModelId.LL: (500.0, 0.02, 2.2),
}

DIRECT_FORMULA = {
    ModelId.GO: lambda t: 500.0 * (1.0 - np.exp(-0.05 * t)),
    ModelId.GOS: lambda t: 400.0 * (1.0 - (1.0 + 0.08 * t) * np.exp(-0.08 * t)),
    ModelId.HD: lambda t: 450.0
    * (1.0 - np.exp(-0.06 * t))
    / (1.0 + 2.0 * np.exp(-0.06 * t)),
    ModelId.MO: lambda t: 150.0 * np.log(0.12 * t + 1.0),
    ModelId.DU: lambda t: 5.0 * t**0.9,
    ModelId.WE: lambda t: 500.0 * (1.0 - np.exp(-0.02 * t**1.3)),
    ModelId.YE: lambda t: 500.0 * (1.0 - np.exp(-2.5 * (1.0 - np.exp(-0.1 * t)))),
    ModelId.YR: lambda t: 500.0
    * (1.0 - np.exp(-2.0 * (1.0 - np.exp(-0.0008 * t * t / 2.0)))),
    ModelId.LL: lambda t: 500.0 * (0.02 * t) ** 2.2 / (1.0 + (0.02 * t) ** 2.2),
}


def test_parameter_recovery_all_nine_models():
    """Noiseless 200-point series from known parameters: each generating
    model is recovered with relative parameter error <= 1e-3 and
    R^2 >= 0.9999, all nine in under 60 seconds."""
    t = np.linspace(1.0, 200.0, 200)
    cfg = FitConfig(rng_seed=42, search_budget=100_000)
    started = time.monotonic()
    for model in MODEL_ORDER:
        true = TRUE_PARAMS[model]
        series = FailureSeries(
            times=t, horizon=200.0, counts=DIRECT_FORMULA[model](t), label="synthetic"
        )
        (result,) = fit_all(series, models=[model], cfg=cfg)
        assert result.converged, f"{model.value} did not converge"
        for estimated, generating in zip(result.params, true):
            rel = abs(estimated - generating) / abs(generating)
            assert rel <= 1e-3, (
                f"{model.value}: parameter off by {rel:.2e} "
                f"(estimated {result.params}, true {true})"
            )
        assert result.gof.r2 >= 0.9999, f"{model.value}: R^2 = {result.gof.r2}"
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"nine fits took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 2. gradient correctness
# ---------------------------------------------------------------------------

# Parameter sampling ranges inside each model's numerically benign
# region (same ranges as the unit-level gradient tests).
GRADIENT_RANGES = {
    ModelId.GO: [(10.0, 500.0), (0.01, 0.5)],
    ModelId.GOS: [(10.0, 500.0), (0.01, 0.5)],
    ModelId.HD: [(10.0, 500.0), (0.01, 0.5), (0.1, 5.0)],
    ModelId.MO: [(5.0, 200.0), (0.01, 1.0)],
    ModelId.DU: [(0.5, 20.0), (0.3, 1.5)],
    ModelId.WE: [(10.0, 500.0), (0.005, 0.2), (0.6, 2.0)],
    ModelId.YE: [(10.0, 500.0), (0.5, 4.0), (0.01, 0.3)],
    ModelId.YR: [(10.0, 500.0), (0.5, 4.0), (0.0005, 0.01)],
    ModelId.LL: [(10.0, 500.0), (0.005, 0.1), (0.8, 4.0)],
}


def test_gradient_matches_central_differences_100_cases():
    """100 randomized (model, params, t) cases: every analytic gradient
    component agrees with a plain two-point central difference to
    relative error < 1e-5.

    The step is relative (6e-6 per parameter, near the cube root of
    machine epsilon) and t stays in (2, 40) where none of the sampled
    models is degenerate, so the difference quotient itself carries
    roughly 1e-10 relative noise, comfortably below the bar.
    """
    rng = np.random.default_rng(42)
    for case in range(100):
        model = MODEL_ORDER[case % len(MODEL_ORDER)]
        ranges = GRADIENT_RANGES[model]
        params = tuple(
            float(np.exp(rng.uniform(np.log(lo), np.log(hi)))) for lo, hi in ranges
        )
        t = float(rng.uniform(2.0, 40.0))
        g = gradient(model, params, t)
        for i in range(descriptor(model).k):
            h = 6e-6 * abs(params[i])
            bumped_up = list(params)
            bumped_down = list(params)
            bumped_up[i] += h
            bumped_down[i] -= h
            fd = (
                mean_value(model, tuple(bumped_up), t)
                - mean_value(model, tuple(bumped_down), t)
            ) / (2.0 * h)
            rel = abs(g[i] - fd) / max(abs(fd), abs(g[i]), 1e-10)
            assert rel < 1e-5, (
                f"{model.value} d/dp[{i}] at params={params}, t={t}: "
                f"analytic {g[i]!r} vs central difference {fd!r} (rel {rel:.2e})"
            )


# ---------------------------------------------------------------------------
# 3. goodness-of-fit oracle equivalence
# ---------------------------------------------------------------------------


def test_gof_matches_direct_formulas_on_ten_vectors():
    """R^2, AIC, BIC, RSE on ten small vectors match a direct evaluation
    of their defining formulas to 1e-10 absolute.

    The information criteria here count the residual variance as an
    estimated parameter, so the least-squares forms are
    n*ln(RSS/n) + 2(k+1) and n*ln(RSS/n) + (k+1)*ln(n); the report
    metadata names this variant.
    """
    cases = [
        ([1.0, 2.0, 3.0], [1.0, 2.0, 4.0]),
        ([1.0, 2.0, 3.0, 4.0], [1.1, 1.9, 3.2, 3.8]),
        ([2.0, 4.0, 8.0, 16.0, 32.0], [2.5, 4.5, 7.5, 16.5, 31.5]),
        ([5.0, 5.5, 6.0], [5.25, 5.5, 5.75]),
        ([0.5, 1.5, 2.5, 3.5], [0.0, 2.0, 2.0, 4.0]),
        ([10.0, 20.0, 30.0, 40.0, 50.0, 60.0], [12.0, 18.0, 33.0, 39.0, 48.0, 63.0]),
        ([1.0, 4.0, 9.0, 16.0, 25.0], [2.0, 3.0, 10.0, 15.0, 26.0]),
        ([3.0, 1.0, 4.0, 1.0, 5.0], [2.0, 2.0, 3.0, 2.0, 4.0]),
        ([100.0, 200.0, 300.0], [110.0, 190.0, 310.0]),
        ([7.0, 8.0, 10.0, 13.0, 17.0, 22.0], [7.5, 8.5, 9.5, 13.5, 16.5, 22.5]),
    ]
    k = 2
    for observed, fitted in cases:
        o = np.asarray(observed)
        f = np.asarray(fitted)
        n = o.size
        ss_res = float(np.sum((o - f) ** 2))
        ss_tot = float(np.sum((o - o.mean()) ** 2))
        assert abs(r_squared(observed, fitted) - (1.0 - ss_res / ss_tot)) <= 1e-10
        assert (
            abs(aic(ss_res, n, k) - (n * math.log(ss_res / n) + 2.0 * (k + 1)))
            <= 1e-10
        )
        assert (
            abs(
                bic(ss_res, n, k)
                - (n * math.log(ss_res / n) + (k + 1) * math.log(n))
            )
            <= 1e-10
        )
        assert abs(rse(ss_res, n, k) - math.sqrt(ss_res / (n - k))) <= 1e-10


def test_aic_penalty_identity_at_fixed_rss():
    """AIC(k+1) - AIC(k) = 2 at fixed RSS.

    The identity is exact in real arithmetic.  In floats each AIC value
    rounds once when the 2k penalty is added to the n*log(rss/n) term, so
    the difference is the identity up to one rounding on each side; with
    rss = n the log term vanishes and the equality is bitwise.
    """
    assert aic(6.0, 6, 3) - aic(6.0, 6, 2) == 2.0
    assert aic(10.0, 10, 5) - aic(10.0, 10, 4) == 2.0
    for rss, n in [(0.5, 8), (2.75, 9), (123.0, 7), (1e-6, 12), (42.0, 42)]:
        for k in range(1, 5):
            diff = aic(rss, n, k + 1) - aic(rss, n, k)
            bound = 4.0 * math.ulp(abs(aic(rss, n, k)))
            assert abs(diff - 2.0) <= bound, (rss, n, k, diff)


# ---------------------------------------------------------------------------
# 4. Laplace trend statistic
# ---------------------------------------------------------------------------


def test_laplace_symmetric_case_is_zero():
    """Failure times {1,2,3} on [0,4]: mean time 2 equals T/2, so u = 0."""
    series = FailureSeries(times=np.array([1.0, 2.0, 3.0]), horizon=4.0)
    assert laplace_factor(series).u == pytest.approx(0.0, abs=1e-12)


def test_laplace_early_cluster_hand_value():
    """Failure times {0.5, 1.0, 1.5} on [0,4]: mean 1.0, T/2 = 2,
    u = (1 - 2) / (4 * sqrt(1/36)) = -1.5."""
    series = FailureSeries(times=np.array([0.5, 1.0, 1.5]), horizon=4.0)
    assert laplace_factor(series).u == pytest.approx(-1.5, abs=1e-12)


def test_laplace_antisymmetric_under_time_reversal():
    """Reflecting every failure time about the window (t -> T - t) flips
    the sign of u; |u + u_reflected| < 1e-12 on 50 random series."""
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(5, 60))
        horizon = float(rng.uniform(10.0, 500.0))
        times = np.sort(rng.uniform(0.01, horizon - 0.01, size=n))
        forward = laplace_factor(FailureSeries(times=times, horizon=horizon))
        reflected = laplace_factor(
            FailureSeries(times=np.sort(horizon - times), horizon=horizon)
        )
        assert abs(forward.u + reflected.u) < 1e-12


# ---------------------------------------------------------------------------
# 5. rank tests and distribution numerics
# ---------------------------------------------------------------------------


def test_kruskal_wallis_hand_case():
    """{1,2,3} vs {4,5,6}: rank sums 6 and 15, so
    H = 12/(6*7) * (36/3 + 225/3) - 3*7 = 27/7, and
    p = S(27/7, df=1) = 0.049535."""
    h, p = kruskal_wallis([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    assert h == pytest.approx(27.0 / 7.0, abs=1e-6)
    assert p == pytest.approx(0.0495, abs=5e-4)


def test_chi_square_survival_at_the_5_percent_point():
    """S(3.841, df=1) is the textbook 5% critical tail."""
    assert chi2_sf(3.841, 1) == pytest.approx(0.05, abs=1e-4)


def test_normal_cdf_at_the_97_5_percent_point():
    """Dunn's two-sided p at the normal 97.5% point.  Ranks 9..31 and 42
    against the other 25 ranks of 1..49: the mean ranks 502/24 and 723/25
    differ by 2401/300, the variance (49*50/12)(1/24 + 1/25) is (49/12)^2,
    so z = 1.96 exactly.  With one pair there is no Bonferroni factor, and
    p = 2(1 - Phi(1.96)) = 0.0499958 (normal table: Phi(1.96) = 0.9750021)."""
    first = list(range(9, 32)) + [42]
    second = [r for r in range(1, 50) if r not in first]
    p = dunn_posthoc([[float(r) for r in first], [float(r) for r in second]])
    assert p[0][1] == pytest.approx(0.0499958, abs=1e-7)


def test_eta_squared_effect_size_and_label():
    """eta^2 = (H - k + 1)/(n - k) = (3.857143 - 1)/4 = 0.714286, which
    is far past the 0.14 cut for a large effect."""
    effect = eta_squared(3.857143, 2, 6)
    assert effect.value == pytest.approx(0.714286, abs=1e-6)
    assert effect.label == "large"


# ---------------------------------------------------------------------------
# 6. ingestion rules
# ---------------------------------------------------------------------------


def test_defect_filter_keeps_exactly_25_of_50():
    """50 issues: 30 carry a defect label, 5 of those are also labeled
    duplicated, 20 carry no defect label at all.  30 - 5 = 25 survive."""
    issues = []
    for i in range(50):
        if i < 30:
            labels = ("bug", "duplicated") if i < 5 else ("bug",)
        else:
            labels = ("enhancement",)
        issues.append(
            IssueRecord(
                id=i,
                created_at=T0 + timedelta(days=float(i)),
                labels=labels,
                title=f"issue {i}",
                state="open",
            )
        )
    assert len(filter_defects(issues)) == 25


def test_release_window_fault_threshold():
    """A window holding 19 issues is dropped at the default minimum of
    20; a window holding 20 is kept."""
    issues = []
    for i in range(19):
        issues.append(
            IssueRecord(
                id=i,
                created_at=T0 + timedelta(days=0.5 + 0.4 * i),
                labels=("bug",),
                title="t",
                state="open",
            )
        )
    for i in range(20):
        issues.append(
            IssueRecord(
                id=100 + i,
                created_at=T0 + timedelta(days=10.5 + 0.4 * i),
                labels=("bug",),
                title="t",
                state="open",
            )
        )
    windows = [
        ReleaseWindow(name="r1", start=T0, end=T0 + timedelta(days=10)),
        ReleaseWindow(
            name="r2", start=T0 + timedelta(days=10), end=T0 + timedelta(days=20)
        ),
    ]
    outcome = segment_releases(issues, windows)
    assert [s.label for s in outcome.series] == ["r2"]
    assert outcome.series[0].n == 20
    assert outcome.dropped == [("r1", 19)]


def test_size_class_boundaries_for_lines_of_code():
    """The medium band for lines of code is [10^4, 10^5], boundaries
    included."""
    assert classify_attribute("loc", 9_999) == "S"
    assert classify_attribute("loc", 10_000) == "M"
    assert classify_attribute("loc", 100_000) == "M"
    assert classify_attribute("loc", 100_001) == "L"


# ---------------------------------------------------------------------------
# 7. determinism
# ---------------------------------------------------------------------------


def _tree_digest(root: Path) -> dict:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_end_to_end_rerun_is_byte_identical(tmp_path, capsys):
    """ingest + fit twice with the same inputs and seed: every output
    file hashes identically."""
    records = []
    for i in range(60):
        day = 50.0 * math.log(1.0 + 0.8 * (i + 1))
        records.append(
            {
                "id": i + 1,
                "created_at": (T0 + timedelta(days=day)).isoformat(),
                "labels": [{"name": "bug"}],
                "title": f"crash {i}",
                "state": "closed",
            }
        )
    issues = tmp_path / "issues.json"
    issues.write_text(json.dumps(records), encoding="utf-8")

    digests = []
    for run in ("first", "second"):
        out = tmp_path / run
        assert (
            main(
                [
                    "ingest",
                    "--issues",
                    str(issues),
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "fit",
                    "--issues",
                    str(out / "issues.ndjson"),
                    "--seed",
                    "42",
                    "--budget",
                    "3000",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        capsys.readouterr()
        digests.append(_tree_digest(out))
    assert digests[0] == digests[1]


# ---------------------------------------------------------------------------
# 8. corpus-backed ordering (optional)
# ---------------------------------------------------------------------------


@pytest.mark.skipif(
    not os.environ.get("SRGROWTH_CORPUS_DIR"),
    reason="set SRGROWTH_CORPUS_DIR to a directory of issue exports to enable",
)
def test_corpus_mean_r2_ordering():
    """On a full mined corpus the flexible three-parameter curves should
    dominate: LL, YR and WE all inside the top four of the mean-R^2
    ranking and GOS last.  Rank-level agreement only; mean R^2 values
    shift with fitting configuration, the ordering should not."""
    from srgrowth.pipeline import build_series, parse_issues

    corpus = Path(os.environ["SRGROWTH_CORPUS_DIR"])
    files = sorted(
        p for p in corpus.iterdir() if p.suffix in (".json", ".ndjson", ".jsonl")
    )
    assert files, f"no issue exports under {corpus}"
    cfg = FitConfig(rng_seed=42, search_budget=20_000)
    totals = {model: [] for model in MODEL_ORDER}
    for path in files:
        issues = parse_issues(path.read_bytes()).records
        defects = filter_defects(issues)
        if len(defects) < 20:
            continue
        series = build_series(defects, label=path.stem)
        for result in fit_all(series, cfg=cfg):
            if result.converged and math.isfinite(result.gof.r2):
                totals[result.model].append(result.gof.r2)
    means = {m: float(np.mean(v)) for m, v in totals.items() if v}
    assert len(means) == 9, "some model never converged on the corpus"
    ranking = sorted(means, key=means.get, reverse=True)
    top_four = set(ranking[:4])
    assert {ModelId.LL, ModelId.YR, ModelId.WE} <= top_four, ranking
    assert ranking[-1] == ModelId.GOS, ranking
