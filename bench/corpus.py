"""Seeded corpus generator for the srgrowth benchmark.

Each workload's corpus is a set of raw issue-tracker exports written from
the workload seed alone.  Defect creation times are the order statistics
of a nonhomogeneous Poisson process with one of four mean-value shapes
(concave, S-shaped, infinite, log-logistic), conditioned on a fixed count
so that the amount of work does not depend on the seed.  Around the
defects the exports carry the noise real exports have: non-defect issues,
defects closed as duplicates, issues matched only by their title, records
without a creation time and records repeated by export paging.

The generator also returns what a correct ingest must find (issues per
export, skipped records, kept defects, points per series and per release
window).  It computes these from its own labels and never imports the
program under test, so the benchmark's output checks are independent of
the code they check.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np

# The matching rules the checks rely on (the documented ingest contract):
# a defect carries a label containing one of these keywords, and a label
# containing the exclusion marks it a duplicate.
DEFECT_KEYWORDS = ("bug", "error", "fail", "fault", "defect")
EXCLUSION = "duplicat"

DEFECT_LABELS = ("bug", "type: bug", "kind/defect", "regression error", "test-failure")
OTHER_LABELS = ("enhancement", "question", "documentation", "feature request", "help wanted")
DEFECT_TITLES = ("crash: save fails", "error on startup", "test fails on windows",
                 "segmentation fault in parser", "bug: wrong result in export")
OTHER_TITLES = ("add option to skip", "improve docs for setup", "support newer runtime",
                "refactor plugin loading", "question about config")

EPOCH = datetime(2019, 1, 1, tzinfo=timezone.utc)
SECONDS_PER_DAY = 86400
MIN_FAULTS = 20  # the CLI's default --min-faults for release windows

SHAPES = ("concave", "s_shaped", "infinite", "log_logistic")


@dataclass(frozen=True)
class WorkloadSpec:
    """How one workload's corpus is built."""

    kept: tuple[int, ...]          # defect-labelled issues per project
    other_share: float             # non-defect issues per kept defect
    duplicate_share: float         # duplicate defects per kept defect
    title_share: float             # title-only defects per kept defect
    title_match: bool              # ingest --title-match
    tiny: bool = False             # add a project with 3 defects
    horizon_days: tuple[int, int] = (240, 900)
    release_months: int = 0        # monthly release windows (0: none)


WORKLOADS = {
    "study": WorkloadSpec(
        kept=(25, 35, 45, 60, 75, 95, 120, 150),
        other_share=0.6, duplicate_share=0.1, title_share=0.15, title_match=False, tiny=True,
    ),
    "long_series": WorkloadSpec(
        kept=(2000, 4000, 8000),
        other_share=0.3, duplicate_share=0.05, title_share=0.05, title_match=False,
    ),
    "mining": WorkloadSpec(
        kept=(7000,) * 6,
        other_share=0.8, duplicate_share=0.1, title_share=0.2, title_match=True,
        horizon_days=(730, 730), release_months=24,
    ),
}


@dataclass
class Project:
    name: str
    shape: str
    category: str
    times: np.ndarray              # kept defect times, seconds after EPOCH, sorted
    records: int                   # records in the raw export
    parse_skipped: int             # records parse_issues must skip
    duplicates: int                # defect-labelled duplicates ingest excludes


@dataclass
class Corpus:
    workload: str
    spec: WorkloadSpec
    projects: list[Project]
    exports: list[Path]
    attributes: Path | None = None
    releases: Path | None = None
    windows: list[tuple[str, int, int]] = field(default_factory=list)  # name, start, end (s)

    @property
    def raw_issues(self) -> int:
        return sum(p.records for p in self.projects)

    def expected_series(self) -> dict[str, tuple[np.ndarray, float]]:
        """Failure times (days) and horizon of every series trend and fit
        must report, as the ingest contract defines them: time zero is the
        first kept defect (or the release window's start) and a time of
        exactly zero counts as 1e-6 days."""
        out = {}
        for p in self.projects:
            if not self.windows:
                out[p.name] = _days(p.times, p.times[0], None)
                continue
            for name, start, end in self.windows:
                inside = p.times[(p.times >= start) & (p.times < end)]
                if inside.size >= MIN_FAULTS:
                    out[f"{p.name}:{name}"] = _days(inside, start, end)
        return out


def _days(times: np.ndarray, start: int, end: int | None) -> tuple[np.ndarray, float]:
    t = (times - start) / SECONDS_PER_DAY
    t[t == 0.0] = 1e-6
    horizon = float(t[-1]) if end is None else (end - start) / SECONDS_PER_DAY
    return t, horizon


def _cumulative_shape(shape: str, rng: np.random.Generator):
    """Mean-value function on [0, 1] (up to scale) for one NHPP shape."""
    if shape == "concave":
        b = rng.uniform(1.5, 4.0)
        return lambda x: 1.0 - np.exp(-b * x)
    if shape == "s_shaped":
        b = rng.uniform(3.0, 8.0)
        return lambda x: 1.0 - (1.0 + b * x) * np.exp(-b * x)
    if shape == "infinite":
        b = rng.uniform(5.0, 60.0)
        return lambda x: np.log1p(b * x)
    if shape == "log_logistic":
        k = rng.uniform(1.5, 4.0)
        lam = rng.uniform(1.5, 5.0)
        return lambda x: (lam * x) ** k / (1.0 + (lam * x) ** k)
    raise ValueError(f"unknown shape {shape!r}")


def _nhpp_times(shape: str, n: int, horizon_s: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` sorted event times of an NHPP on [0, horizon_s], in whole seconds.

    Given the count, NHPP event times are i.i.d. with density
    proportional to the intensity, so they are drawn by inverting the
    normalized mean-value function on a fine grid.
    """
    m = _cumulative_shape(shape, rng)
    grid = np.linspace(0.0, 1.0, 4097)
    cdf = m(grid)
    cdf = cdf / cdf[-1]
    x = np.interp(np.sort(rng.random(n)), cdf, grid)
    return np.floor(x * horizon_s).astype(np.int64)


def _stamp(seconds: int) -> str:
    return (EPOCH + timedelta(seconds=int(seconds))).strftime("%Y-%m-%dT%H:%M:%SZ")


def _month_windows(months: int) -> list[tuple[str, int, int]]:
    edges = [EPOCH.replace(year=EPOCH.year + m // 12, month=m % 12 + 1) for m in range(months + 1)]
    return [
        (f"r{i + 1:02d}", int((a - EPOCH).total_seconds()), int((b - EPOCH).total_seconds()))
        for i, (a, b) in enumerate(zip(edges, edges[1:]))
    ]


def _project_records(project: Project, labelled, titled, others: int, horizon_s: int, rng) -> list[dict]:
    """Raw export of one project: defects plus seeded noise, in id order."""
    dict_labels = bool(rng.random() < 0.5)
    kinds = ["kept"] * labelled.size + ["duplicate"] * project.duplicates + ["title"] * titled.size + ["other"] * others
    seconds = np.concatenate([labelled, rng.integers(0, horizon_s, project.duplicates), titled,
                              rng.integers(0, horizon_s, others)])
    order = rng.permutation(len(kinds))  # trackers number issues, exports are not time-sorted
    stamps = np.datetime_as_string(np.datetime64(EPOCH.replace(tzinfo=None), "s") + seconds[order], unit="s")
    picks = rng.integers(0, 5, (order.size, 2))
    coins = rng.random((order.size, 2))
    users = rng.integers(1, 500, order.size)
    records = []
    for issue_id, (index, stamp, (i, j), (state, triage), user) in enumerate(
        zip(order, stamps, picks, coins, users), start=1
    ):
        kind = kinds[index]
        if kind == "kept":
            labels, title = [DEFECT_LABELS[i]], OTHER_TITLES[j]
        elif kind == "duplicate":
            labels, title = [DEFECT_LABELS[i], "duplicate"], DEFECT_TITLES[j]
        elif kind == "title":
            labels, title = (["needs triage"] if triage < 0.5 else []), DEFECT_TITLES[j]
        else:
            labels, title = [OTHER_LABELS[i]], OTHER_TITLES[j]
        records.append({
            "id": issue_id,
            "number": issue_id,
            "created_at": f"{stamp}Z",
            "labels": [{"name": name, "color": "ededed"} for name in labels] if dict_labels else labels,
            "title": f"{title} #{issue_id}",
            "state": "closed" if state < 0.7 else "open",
            "user": {"login": f"user{user}"},
        })
    # Export noise parse_issues must skip: records without a creation time,
    # and records a paging overlap repeated (a later copy of an id).
    for j in range(project.parse_skipped // 2):
        records.append({"id": order.size + 1 + j, "created_at": None, "labels": ["bug"], "title": "lost"})
    for j in range(project.parse_skipped - project.parse_skipped // 2):
        records.append(dict(records[int(rng.integers(order.size))]))
    return records


def _write_export(path: Path, records: list[dict], ndjson: bool) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        if ndjson:
            for record in records:
                handle.write(json.dumps(record) + "\n")
        else:
            json.dump(records, handle)


def make_corpus(workload: str, seed: int, root: Path) -> Corpus:
    """Write the raw exports (and side CSVs) of ``workload`` at ``seed``."""
    spec = WORKLOADS[workload]
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])
    raw_dir = root / "raw"
    raw_dir.mkdir(parents=True, exist_ok=True)
    windows = _month_windows(spec.release_months) if spec.release_months else []

    sizes = list(rng.permutation(spec.kept))
    shapes = [SHAPES[i % len(SHAPES)] for i in range(len(sizes))]
    shapes = [shapes[i] for i in rng.permutation(len(shapes))]
    if spec.tiny:
        # Three defects: the fewest the fit verb accepts, so the
        # three-parameter models take the placeholder-fit path.
        sizes.append(3)
        shapes.append("concave")

    corpus = Corpus(workload=workload, spec=spec, projects=[], exports=[], windows=windows)
    for index, (n, shape) in enumerate(zip(sizes, shapes)):
        name = f"proj{index + 1:02d}"
        low, high = spec.horizon_days
        horizon_s = int(rng.integers(low, high + 1)) * SECONDS_PER_DAY
        labelled = _nhpp_times(shape, int(n), horizon_s, rng)
        # Title-only defects follow the same intensity; ingest keeps them
        # only with --title-match.
        titled = _nhpp_times(shape, int(round(spec.title_share * n)), horizon_s, rng)
        kept = np.sort(np.concatenate([labelled, titled])) if spec.title_match else labelled
        duplicates = int(round(spec.duplicate_share * n))
        others = int(round(spec.other_share * n))
        project = Project(
            name=name,
            shape=shape,
            category=f"C{index % 3 + 1}",
            times=kept,
            records=0,
            parse_skipped=max(2, (labelled.size + titled.size + duplicates + others) // 400),
            duplicates=duplicates,
        )
        records = _project_records(project, labelled, titled, others, horizon_s, rng)
        project.records = len(records)
        ndjson = index % 2 == 1
        path = raw_dir / f"{name}.{'ndjson' if ndjson else 'json'}"
        _write_export(path, records, ndjson)
        corpus.projects.append(project)
        corpus.exports.append(path)

    if workload == "study":
        corpus.attributes = root / "attributes.csv"
        with open(corpus.attributes, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["project", "category", "loc", "noc", "noi", "nofa"])
            for p in corpus.projects:
                writer.writerow([p.name, p.category, int(rng.integers(2_000, 400_000)),
                                 int(rng.integers(20, 600)), int(rng.integers(100, 30_000)),
                                 int(rng.integers(50, 9_000))])
    if windows:
        corpus.releases = root / "releases.csv"
        with open(corpus.releases, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["name", "start", "end"])
            for name, start, end in windows:
                writer.writerow([name, _stamp(start), _stamp(end)])
    return corpus
