"""Metric arithmetic for the srgrowth benchmark: fit quality against the
committed reference, and per-layer figures from the spans of a traced run."""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

LAYERS = ("cli", "pipeline", "series", "stats", "fitting", "models", "reporting")

# Per-layer busy time: the summed duration of the outermost calls to these
# functions (a nested call to a function of the same group is not counted twice).
BUSY = {
    "pipeline.parse_s": ("pipeline.parse_issues",),
    "pipeline.filter_s": ("pipeline.filter_defects",),
    "pipeline.series_s": ("pipeline.build_series", "pipeline.segment_releases"),
    "fitting.search_s": ("fitting.initial_search",),
    "fitting.refine_s": ("fitting.refine",),
    "stats.laplace_s": ("stats.laplace_factor",),
    "stats.compare_s": ("stats.compare_groups",),
    "stats.rank_s": ("stats.rank_models",),
    "reporting.write_s": ("reporting.write_",),  # every writer
}


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def quartile_spread(values) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def gmean(values) -> float:
    """Geometric mean; 0.0 when there are no values."""
    values = list(values)
    if not values:
        return 0.0
    return math.exp(math.fsum(math.log(v) for v in values) / len(values))


def fit_quality(found: dict, reference: dict, rel_tol: float = 1e-9) -> tuple[int, float]:
    """Compare final RSS per (series, model) with the reference.

    Returns the number of pairs whose RSS is worse than the reference by
    more than ``rel_tol`` (a lost fit, finite in the reference but missing
    or non-finite now, counts as worse) and the geometric mean of found
    over reference RSS across the pairs finite in both.
    """
    worse = 0
    ratios = []
    for series, models in reference.items():
        for model, ref in models.items():
            if ref is None or not math.isfinite(ref):
                continue
            got = found.get(series, {}).get(model, math.nan)
            if not math.isfinite(got) or got > ref * (1.0 + rel_tol):
                worse += 1
            if math.isfinite(got):
                ratios.append(max(got, 1e-300) / max(ref, 1e-300))
    return worse, gmean(ratios)


def _in_group(name: str, group: tuple[str, ...]) -> bool:
    return any(name == g or (g.endswith("_") and name.startswith(g)) for g in group)


def _outermost(spans: list[dict], group: tuple[str, ...]):
    """Spans of the group none of whose ancestors is in the group."""
    for span in spans:
        if not _in_group(span["name"], group):
            continue
        parent = span["parent"]
        while parent is not None and not _in_group(spans[parent]["name"], group):
            parent = spans[parent]["parent"]
        if parent is None:
            yield span


def _seconds(span: dict) -> float:
    return (span["end_ns"] - span["start_ns"]) / 1e9


def layer_metrics(processes: list[list[dict]]) -> dict[str, float]:
    """Per-layer metrics from the spans of one traced verb sequence.

    ``processes`` holds one span list per CLI process; span ids and parents
    index into their own list.  A span's self time is its duration minus
    that of its direct children; a layer's self time is the sum over its
    spans.  Layers a workload does not exercise read 0.
    """
    m: dict[str, float] = defaultdict(float)
    search_rss_gain = []
    refines = converged = 0
    filter_in = filter_out = 0
    search_points = 0
    fit_verb_s = 0.0
    for spans in processes:
        child_s: dict[int, float] = defaultdict(float)
        for span in spans:
            if span["parent"] is not None:
                child_s[span["parent"]] += _seconds(span)
        for span in spans:
            layer = span["name"].split(".", 1)[0]
            m[f"{layer}.self_s"] += _seconds(span) - child_s[span["id"]]
            counts = span.get("counts", {})
            name = span["name"]
            if name == "fitting.initial_search":
                m["fitting.search_draws"] += counts.get("draws", 0)
                search_points += counts.get("points", 0)
            elif name == "fitting.refine":
                refines += 1
                converged += bool(counts.get("converged"))
                m["fitting.refine_iterations"] += counts.get("iterations", 0)
                before, after = counts.get("search_rss", math.nan), counts.get("rss", math.nan)
                if math.isfinite(before) and math.isfinite(after) and after > 0.0:
                    search_rss_gain.append(before / after)
            elif name == "fitting.fit_all":
                m["fitting.placeholder_fits"] += counts.get("placeholders", 0)
                m["fitting.at_bound_params"] += counts.get("at_bound", 0)
            elif name == "pipeline.parse_issues":
                m["pipeline.parse_issues"] += counts.get("records", 0)
                m["pipeline.parse_skipped"] += counts.get("skipped", 0)
            elif name == "pipeline.filter_defects":
                filter_in += counts.get("in", 0)
                filter_out += counts.get("out", 0)
            elif name == "pipeline.segment_releases":
                m["pipeline.segments_dropped"] += counts.get("dropped", 0)
            elif name.startswith("reporting.write_"):
                m["reporting.bytes_written"] += counts.get("bytes", 0)
            elif name == "cli.cmd_fit":
                fit_verb_s += _seconds(span)
        for metric, group in BUSY.items():
            m[metric] += sum(_seconds(s) for s in _outermost(spans, group))
    for layer in LAYERS:
        m[f"{layer}.self_s"] += 0.0
    search_s = m["fitting.search_s"]
    m["fitting.search_point_evals_per_s"] = search_points / search_s if search_s > 0 else 0.0
    m["fitting.search_share"] = search_s / fit_verb_s if fit_verb_s > 0 else 0.0
    m["fitting.refine_converged_ratio"] = converged / refines if refines else 0.0
    m["fitting.refine_rss_gain_gmean"] = gmean(search_rss_gain)
    m["pipeline.filter_kept_ratio"] = filter_out / filter_in if filter_in else 0.0
    return dict(m)
