"""Output checks for the srgrowth benchmark.

Every file a verb writes must parse, and the tables must agree with what
the corpus generator knows: the issue counts of each export, the points
of each series, the Laplace factor recomputed from the generated times,
one goodness-of-fit row per (series, model), and an RSS that matches the
fitted curve the verb wrote next to it.  Each check returns a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from datetime import datetime
from pathlib import Path

import numpy as np

from corpus import EPOCH, Corpus

MODELS = ("GO", "GOS", "HD", "MO", "DU", "WE", "YE", "YR", "LL")
LAPLACE_CRITICAL = 1.96


def tree_digest(root: Path) -> str:
    """SHA-256 over the relative path and bytes of every file under root."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def parse_tree(root: Path) -> tuple[list[str], int]:
    """Parse every CSV, JSON and NDJSON file under root.

    Returns the problems found and the number of bare ``NaN`` /
    ``Infinity`` tokens in the JSON files (Python's reader accepts them,
    strict JSON readers do not; they are counted, not hidden).
    """
    problems: list[str] = []
    nonfinite = 0

    def count(token: str) -> float:
        nonlocal nonfinite
        nonfinite += 1
        return float(token.replace("Infinity", "inf"))

    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        name = path.relative_to(root).as_posix()
        try:
            if path.suffix == ".csv":
                with open(path, newline="", encoding="utf-8") as handle:
                    rows = list(csv.reader(handle, strict=True))
                if not rows or not rows[0]:
                    problems.append(f"{name}: no header")
                elif any(len(row) != len(rows[0]) for row in rows):
                    problems.append(f"{name}: rows differ in width from the header")
            elif path.suffix == ".json":
                json.loads(path.read_text(encoding="utf-8"), parse_constant=count)
            elif path.suffix == ".ndjson":
                for line in path.read_text(encoding="utf-8").splitlines():
                    json.loads(line, parse_constant=count)
        except (ValueError, csv.Error, UnicodeDecodeError) as exc:
            problems.append(f"{name}: does not parse ({exc})")
    return problems, nonfinite


def _rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=rel)


def laplace_u(times: np.ndarray, horizon: float) -> float:
    n = times.size
    return (float(times.mean()) - horizon / 2.0) / (horizon * math.sqrt(1.0 / (12.0 * n)))


def _seconds(stamp: str) -> int:
    return int((datetime.fromisoformat(stamp) - EPOCH).total_seconds())


def check_ingest(corpus: Corpus, out: Path) -> list[str]:
    problems = []
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))["inputs"]
    for p in corpus.projects:
        got = summary.get(p.name)
        if got is None:
            problems.append(f"ingest: no summary for {p.name}")
            continue
        kept = int(p.times.size)
        want = {
            "total": p.records - p.parse_skipped,
            "parse_skipped": p.parse_skipped,
            "defect_matched": kept + p.duplicates,
            "excluded": p.duplicates,
            "kept": kept,
        }
        for key, value in want.items():
            if got.get(key) != value:
                problems.append(f"ingest: {p.name} {key}={got.get(key)}, expected {value}")
        lines = (out / f"{p.name}.ndjson").read_text(encoding="utf-8").splitlines()
        stamps = np.sort(np.array([_seconds(json.loads(line)["created_at"]) for line in lines], dtype=np.int64))
        if stamps.shape != p.times.shape or not np.array_equal(stamps, p.times):
            problems.append(f"ingest: {p.name} kept defects differ from the generated ones")
    return problems


def check_trend(corpus: Corpus, out: Path, expected: dict | None = None) -> list[str]:
    """trend.csv has one row per expected series, with its point count and
    the Laplace factor recomputed from the generated times."""
    expected = corpus.expected_series() if expected is None else expected
    rows = {row["series"]: row for row in _rows(out / "trend.csv")}
    problems = []
    if set(rows) != set(expected):
        problems.append(f"trend: series {sorted(set(rows) ^ set(expected))[:5]} missing or unexpected")
    for label in set(rows) & set(expected):
        times, horizon = expected[label]
        row = rows[label]
        u = laplace_u(times, horizon)
        if int(row["n"]) != times.size:
            problems.append(f"trend: {label} n={row['n']}, expected {times.size}")
        if not _close(float(row["laplace_u"]), u):
            problems.append(f"trend: {label} laplace_u={row['laplace_u']}, expected {u!r}")
        if row["growth_significant"] != ("true" if u < -LAPLACE_CRITICAL else "false"):
            problems.append(f"trend: {label} growth_significant disagrees with u")
    return problems


def check_fit(corpus: Corpus, out: Path) -> list[str]:
    """gof.csv has series x models rows, and each finite RSS and R^2 is the
    one of the fitted curve written to curves/."""
    expected = corpus.expected_series()
    problems = check_trend(corpus, out, expected)
    rows = _rows(out / "gof.csv")
    pairs = {(row["series"], row["model"]): row for row in rows}
    want = {(label, model) for label in expected for model in MODELS}
    if len(rows) != len(want) or set(pairs) != want:
        return problems + [f"fit: gof.csv has {len(rows)} rows, expected {len(want)} (series x models)"]
    series_meta = json.loads((out / "run_metadata.json").read_text(encoding="utf-8"))["series"]
    for label, (times, _) in expected.items():
        meta = series_meta.get(label, {})
        if meta.get("n") != times.size:
            problems.append(f"fit: {label} n={meta.get('n')}, expected {times.size}")
            continue
        curve = _rows(out / meta["curve"])
        t = np.array([float(r["t"]) for r in curve])
        observed = np.array([float(r["observed"]) for r in curve])
        if t.shape != times.shape or not np.allclose(t, times, rtol=1e-12, atol=0.0):
            problems.append(f"fit: {label} curve times differ from the series")
            continue
        if not np.array_equal(observed, np.arange(1, times.size + 1)):
            problems.append(f"fit: {label} observed counts are not 1..n")
        ss_tot = float(np.sum((observed - observed.mean()) ** 2))
        for model in MODELS:
            row = pairs[(label, model)]
            rss = float(row["rss"])
            column = [r[model] for r in curve]
            if not math.isfinite(rss):
                if any(column):
                    problems.append(f"fit: {label} {model} has a curve but no RSS")
                continue
            residual = observed - np.array([float(v) for v in column])
            if not _close(float(residual @ residual), rss, 1e-7):
                problems.append(f"fit: {label} {model} rss={rss!r} is not the curve's")
            if not _close(float(row["r2"]), 1.0 - rss / ss_tot, 1e-7):
                problems.append(f"fit: {label} {model} r2 disagrees with rss")
    return problems


def check_compare(segments: set[str], out: Path) -> list[str]:
    problems = []
    comparison = _rows(out / "comparison.csv")
    if {row["segment"] for row in comparison} != segments or len(comparison) != len(segments):
        problems.append(f"compare: comparison.csv segments differ from {sorted(segments)}")
    for row in comparison:
        if not 0.0 <= float(row["p_value"]) <= 1.0:
            problems.append(f"compare: {row['segment']} p_value {row['p_value']} outside [0, 1]")
    pairs = len(MODELS) * (len(MODELS) - 1) // 2
    if len(_rows(out / "dunn.csv")) != len(segments) * pairs:
        problems.append("compare: dunn.csv does not have one row per segment and model pair")
    if len(_rows(out / "summary.csv")) != len(segments) * len(MODELS):
        problems.append("compare: summary.csv does not have one row per segment and model")
    return problems


def check_rank(segments: set[str], out: Path) -> list[str]:
    rows = _rows(out / "ranking.csv")
    problems = []
    if sorted(row["model"] for row in rows) != sorted(MODELS):
        problems.append("rank: ranking.csv does not rank every model once")
    if not rows or set(rows[0]) - {"model"} != segments:
        return problems + [f"rank: ranking.csv segments differ from {sorted(segments)}"]
    for segment in segments:
        if sorted(int(row[segment]) for row in rows) != list(range(1, len(rows) + 1)):
            problems.append(f"rank: ranks of segment {segment} are not 1..{len(rows)}")
    return problems


def read_rss(out: Path) -> dict[str, dict[str, float]]:
    """Final RSS per (series, model) from a fit directory's gof.csv."""
    table: dict[str, dict[str, float]] = {}
    for row in _rows(out / "gof.csv"):
        table.setdefault(row["series"], {})[row["model"]] = float(row["rss"])
    return table
