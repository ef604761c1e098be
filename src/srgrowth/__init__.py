"""Reliability growth analysis for defect data mined from issue trackers.

The toolkit fits nine classic software reliability growth models to
cumulative defect series, scores each fit (R^2, AIC, BIC, RSE), tests for
reliability growth (Laplace trend), and compares model performance across
projects and segments (Kruskal-Wallis, Dunn's pairwise tests, eta-squared,
rankings with an inter-segment agreement score).
"""

__version__ = "0.1.0"

import importlib

from . import errors

# Each export is resolved from its module on first use (PEP 562), so that
# importing the package, or running a verb that never fits, loads no numpy.
_EXPORTS = {
    "errors": (
        "AnalysisError",
        "DegenerateDataError",
        "EmptySeriesError",
        "InputError",
        "InsufficientDataError",
        "NetworkError",
        "NumericError",
        "ParameterDomainError",
        "ParseError",
        "RateLimitError",
        "SegmentCoverageError",
        "SrgrowthError",
        "UnknownRepoError",
    ),
    "fitting": (
        "FitConfig",
        "aic",
        "bic",
        "fit_all",
        "initial_search",
        "r_squared",
        "refine",
        "rse",
    ),
    "models": (
        "ModelDescriptor",
        "ShapeClass",
        "classify",
        "descriptor",
        "gradient",
        "mean_value",
        "search_bounds",
        "validate_params",
    ),
    "pipeline": (
        "DEFECT_KEYWORDS",
        "EXCLUSION_KEYWORDS",
        "IssueRecord",
        "ParseResult",
        "ProjectAttributes",
        "ReleaseWindow",
        "SegmentationResult",
        "build_series",
        "classify_attribute",
        "fetch_issues",
        "filter_defects",
        "issue_to_json",
        "load_attributes_csv",
        "load_releases_csv",
        "parse_issues",
        "segment_releases",
    ),
    "records": (
        "FitResult",
        "GofScores",
        "MODEL_ORDER",
        "ModelId",
    ),
    "reporting": ("DEFAULT_MIN_FAULTS",),
    "series": (
        "FailureSeries",
    ),
    "stats": (
        "EffectSize",
        "GroupComparison",
        "RankingTable",
        "TrendResult",
        "compare_groups",
        "dunn_posthoc",
        "eta_squared",
        "inter_rater_agreement",
        "kruskal_wallis",
        "laplace_factor",
        "pool_scores",
        "rank_models",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", "errors", *_MODULE_OF]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
