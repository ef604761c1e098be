"""Report serialization: CSV and JSON writers, one CSV reader for every table
read back, and the rules that the reports state (score directions, the
Laplace critical value, the RSS floor and the eta-squared cuts).

Numbers are printed with 17 significant digits, enough for float64 values
to round-trip exactly, so downstream commands reading a fit directory see
bit-identical values and repeated runs with the same seed produce
byte-identical files.  CSVs follow RFC 4180 (comma separated, CRLF, minimal
quoting) in UTF-8.  JSON is strict: non-finite floats are written as null.
"""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

from . import __version__

if TYPE_CHECKING:
    from .records import FitResult, ModelId
    from .stats import GroupComparison, RankingTable, TrendResult

# each fit score, in the order of its columns, and whether higher is better
GOF_METRICS = {"r2": True, "aic": False, "bic": False, "rse": False}
# the fitted parameters, in model order; a model with fewer leaves the rest empty
PARAM_COLUMNS = ("a", "b", "c")

GOF_COLUMNS = ("series", "model", *PARAM_COLUMNS, "rss", *GOF_METRICS, "converged")
TREND_COLUMNS = ("series", "n", "horizon_days", "laplace_u", "growth_significant")
SEGMENT_COLUMNS = ("series", "segment")
SKIPPED_COLUMNS = ("name", "reason")
COMPARISON_COLUMNS = ("segment", "metric", "k", "n", "H", "df", "p_value", "eta_squared", "effect")
DUNN_COLUMNS = ("segment", "model_a", "model_b", "p_adj")
SUMMARY_COLUMNS = ("segment", "model", "n") + tuple(
    f"{metric}_{stat}" for metric in GOF_METRICS for stat in ("mean", "sd")
)

# the two-sided 5% point of the normal: growth is significant when u < -LAPLACE_CRITICAL
LAPLACE_CRITICAL = 1.96
# the least RSS whose logarithm the information criteria take
RSS_FLOOR = 1e-12
EFFECT_LABELS = ("negligible", "small", "moderate", "large")
# the least eta^2 of each label after the first
EFFECT_THRESHOLDS = (0.01, 0.06, 0.14)
EFFECT_LEGEND = f"eta^2 labels: negligible < {EFFECT_THRESHOLDS[0]}, " + ", ".join(
    f"{label} >= {threshold}" for label, threshold in zip(EFFECT_LABELS[1:], EFFECT_THRESHOLDS)
)

# How the ambiguous formulas are computed in this tool; recorded in every
# run's metadata so reports are self-describing.
FORMULA_VARIANTS = {
    "aic": f"n*ln(max(rss,{RSS_FLOOR})/n) + 2*(k+1)",
    "bic": f"n*ln(max(rss,{RSS_FLOOR})/n) + (k+1)*ln(n)",
    "rse": "sqrt(rss/(n-k))",
    "r2": "1 - ss_res/ss_tot",
    "laplace": f"u = (mean(t) - T/2)/(T*sqrt(1/(12n))); growth significant when u < -{LAPLACE_CRITICAL}",
    "kruskal_wallis": "average ranks with tie correction; p from chi-square, df=k-1",
    "dunn": "z on mean ranks with tie term; two-sided p * k(k-1)/2, capped at 1",
    "eta_squared": f"(H - k + 1)/(n - k); labels {'/'.join(EFFECT_LABELS)} at {'/'.join(map(str, EFFECT_THRESHOLDS))}",
    "inter_rater_agreement": (
        "agreeing (model, segment-pair) rank cells / (models * segment pairs) * 100"
    ),
    "initial_search": "best RSS of log-uniform draws within bounds, seeded",
    "refine": (
        "damped Gauss-Newton with analytic Jacobian; parameters on a bound whose "
        "descent direction leaves the box are held, steps projected to bounds"
    ),
}


def fmt_float(value: float | None) -> str:
    if value is None:
        return ""
    return format(float(value), ".17g")


def slugify(label: str) -> str:
    slug = re.sub(r"[^A-Za-z0-9._-]+", "_", label).strip("_")
    return slug or "series"


def unique_slugs(labels: Sequence[str]) -> dict[str, str]:
    """Deterministic filename-safe slugs, disambiguated on collision."""
    out: dict[str, str] = {}
    used: set[str] = set()
    for label in labels:
        base = slugify(label)
        slug = base
        counter = 2
        while slug in used:
            slug = f"{base}-{counter}"
            counter += 1
        used.add(slug)
        out[label] = slug
    return out


# ---------------------------------------------------------------------------
# CSV tables
# ---------------------------------------------------------------------------


def _cell(value) -> str:
    if isinstance(value, float):
        return fmt_float(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return "" if value is None else str(value)


def write_csv(path: Path, columns: Sequence[str], rows: Iterable) -> None:
    """A header of ``columns``, then one record per row.

    A row is a dict from column name to value, or a sequence of values in
    column order.  Cells are formatted by type: None as an empty cell,
    bools as true/false, floats by ``fmt_float``, anything else by ``str``.
    """
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        for row in rows:
            values = [row[c] for c in columns] if isinstance(row, dict) else row
            writer.writerow([_cell(v) for v in values])


def gof_record(label: str, result: FitResult) -> dict:
    """A fit's gof entry in report.json; ``gof_row`` makes its gof.csv row."""
    return {
        "series": label,
        "model": result.model.value,
        "params": list(result.params),
        "rss": result.rss,
        **{metric: getattr(result.gof, metric) for metric in GOF_METRICS},
        "converged": result.converged,
        "iterations_used": result.iterations_used,
    }


def gof_row(record: dict) -> dict:
    """The gof.csv row of a ``gof_record``: its params in columns a, b, c."""
    return {**record, **dict(zip(PARAM_COLUMNS, (*record["params"], None, None)))}


def trend_row(label: str, trend: TrendResult) -> dict:
    """One trend.csv row, which is also the series' trend entry in report.json."""
    return {
        "series": label,
        "n": trend.n,
        "horizon_days": trend.horizon,
        "laplace_u": trend.u,
        "growth_significant": trend.growth_significant,
    }


def ranking_rows(table: RankingTable) -> list[list]:
    """ranking.csv rows under the columns ``model`` and then each segment;
    models are ordered best-first by mean rank across segments."""

    def mean_rank(model: ModelId) -> float:
        return sum(table.ranks[s][model] for s in table.segments) / len(table.segments)

    ordered = sorted(table.models, key=lambda m: (mean_rank(m), m.value))
    return [[model, *(table.ranks[s][model] for s in table.segments)] for model in ordered]


def read_csv(path: str | Path, columns: Iterable[str]) -> list[dict[str, str]]:
    """The rows of the CSV file at ``path``, each a dict keyed by its header.

    The header must name each of ``columns`` and may follow a UTF-8
    byte-order mark.  A row with fewer fields than the header raises
    ``ValueError`` naming the file and the line.
    """
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.DictReader(handle)
        missing = set(columns) - set(reader.fieldnames or ())
        if missing:
            raise ValueError(f"{path}: missing columns {sorted(missing)}")
        rows = []
        for row in reader:
            # DictReader fills the fields a short row lacks with None
            if None in row.values():
                raise ValueError(f"{path}: line {reader.line_num} has fewer fields than the header")
            rows.append(row)
    return rows


def read_gof_csv(path: Path) -> list[tuple[str, FitResult]]:
    """Read a gof.csv back into (series, FitResult) pairs.

    gof.csv does not hold the iteration count, so ``iterations_used``
    reads as 0.
    """
    from .records import FitResult, GofScores, ModelId

    out: list[tuple[str, FitResult]] = []
    for row in read_csv(path, GOF_COLUMNS):
        result = FitResult(
            model=ModelId(row["model"]),
            params=tuple(float(row[c]) for c in PARAM_COLUMNS if row[c] != ""),
            rss=float(row["rss"]),
            converged=row["converged"] == "true",
            iterations_used=0,
            gof=GofScores(**{metric: float(row[metric]) for metric in GOF_METRICS}),
        )
        out.append((row["series"], result))
    return out


# ---------------------------------------------------------------------------
# comparison report
# ---------------------------------------------------------------------------


def comparison_to_dict(segment: str, metric: str, comparison: GroupComparison) -> dict:
    labels = comparison.group_labels
    dunn_rows = [
        {"model_a": labels[i], "model_b": labels[j], "p_adj": comparison.dunn[i][j]}
        for i in range(len(labels))
        for j in range(i + 1, len(labels))
    ]
    return {
        "segment": segment,
        "metric": metric,
        "groups": {
            label: list(values)
            for label, values in zip(comparison.group_labels, comparison.group_values)
        },
        "H": comparison.H,
        "df": comparison.df,
        "p_value": comparison.p_value,
        "eta_squared": comparison.eta_squared.value,
        "effect": comparison.eta_squared.label,
        "dunn": dunn_rows,
    }


# ---------------------------------------------------------------------------
# metadata and JSON bundles
# ---------------------------------------------------------------------------


def _finite_or_null(value):
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(item) for item in value]
    return value


def write_json(path: Path, payload: dict) -> None:
    """Strict JSON: NaN and infinite floats are written as null."""
    text = json.dumps(
        _finite_or_null(payload), indent=2, sort_keys=True, default=str, allow_nan=False
    )
    path.write_text(text + "\n", encoding="utf-8")


def read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def base_metadata(command: str) -> dict:
    return {
        "tool": "srgrowth",
        "version": __version__,
        "command": command,
        "variants": dict(FORMULA_VARIANTS),
    }
