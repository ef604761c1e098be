"""Command line interface.

Verbs:

* ``ingest``   parse raw issue exports (or fetch from the tracker), keep
  defect-labeled issues, write normalized newline-delimited JSON.
* ``trend``    Laplace trend test per series.
* ``fit``      fit the model zoo to each series, write goodness-of-fit and
  curve tables.
* ``compare``  Kruskal-Wallis + Dunn comparison of the models' metric
  distributions across fitted series.
* ``rank``     per-segment model rankings and their agreement.

Exit codes: 0 on success, 2 for input errors (unreadable or malformed
inputs, unknown repository, usage), 3 when inputs parse but violate an
analysis precondition (too few series, missing coverage, no data in
window).  Given the same inputs and seed, repeated runs write
byte-identical output trees.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .errors import (
    AnalysisError,
    InputError,
    InsufficientDataError,
    SegmentCoverageError,
)
from .reporting import (
    ATTRIBUTE_METRICS,
    COMPARISON_COLUMNS,
    DEFAULT_MIN_FAULTS,
    DUNN_COLUMNS,
    EFFECT_LEGEND,
    GOF_COLUMNS,
    GOF_METRICS,
    SEGMENT_COLUMNS,
    SKIPPED_COLUMNS,
    SUMMARY_COLUMNS,
    TREND_COLUMNS,
    base_metadata,
    comparison_to_dict,
    gof_record,
    gof_row,
    ranking_rows,
    read_gof_csv,
    read_json,
    trend_row,
    unique_slugs,
    write_csv,
    write_json,
)

# annotations only: the verbs that use these (and the pipeline) import them
# when they run, which keeps the CLI's start-up light
if TYPE_CHECKING:
    from .records import ModelId
    from .series import FailureSeries

GROUPINGS = ("whole", "releases", "domain", *(f"attribute:{m}" for m in ATTRIBUTE_METRICS))

TOKEN_ENV_VARS = ("SRGROWTH_TOKEN", "GITHUB_TOKEN")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help()
        return 2
    # --out and each missing parent that mkdir makes for it, innermost first
    made = [path for path in (args.out, *args.out.parents) if not path.exists()]
    try:
        args.out.mkdir(parents=True, exist_ok=True)  # every verb writes there
        return args.func(args)
    except (InputError, OSError, ValueError) as exc:
        error, status = exc, 2
    except AnalysisError as exc:
        error, status = exc, 3
    # a failed verb leaves no empty directory of its own making behind
    for path in made:
        if path.is_dir():
            if any(path.iterdir()):
                break
            path.rmdir()
    print(f"error: {error}", file=sys.stderr)
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srgrowth",
        description="Reliability growth analysis over issue-tracker defect data.",
    )
    parser.add_argument("--version", action="version", version=f"srgrowth {__version__}")
    sub = parser.add_subparsers(dest="verb")
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", type=Path, required=True, help="output directory")
    output.add_argument(
        "--format", type=_parse_formats, default="csv", help="extra output formats (csv,json)"
    )

    ingest = sub.add_parser(
        "ingest", parents=[output], help="normalize raw issue exports to defect NDJSON"
    )
    ingest.add_argument("--issues", nargs="*", default=[], help="raw issue JSON/NDJSON files")
    ingest.add_argument("--repo", help="owner/name to fetch from the tracker instead")
    ingest.add_argument("--token", help="tracker API token (or set SRGROWTH_TOKEN / GITHUB_TOKEN)")
    ingest.add_argument(
        "--title-match",
        action="store_true",
        help="also match defect keywords in issue titles",
    )
    ingest.set_defaults(func=cmd_ingest)

    for name, func in (("trend", cmd_trend), ("fit", cmd_fit)):
        cmd = sub.add_parser(
            name,
            parents=[output],
            help="Laplace trend test per series" if name == "trend" else "fit the model zoo per series",
        )
        cmd.add_argument("--issues", nargs="+", required=True, help="normalized issue files, one per project")
        cmd.add_argument("--releases", help="release windows CSV (name,start,end)")
        cmd.add_argument(
            "--attributes",
            help=f"project attributes CSV (project,category,{','.join(ATTRIBUTE_METRICS).lower()})",
        )
        cmd.add_argument("--group-by", default="whole", choices=GROUPINGS, dest="group_by")
        cmd.add_argument(
            "--min-faults",
            type=int,
            default=DEFAULT_MIN_FAULTS,
            dest="min_faults",
            help=f"drop release windows with fewer faults (default {DEFAULT_MIN_FAULTS})",
        )
        if name == "fit":
            cmd.add_argument("--models", help="comma-separated model ids (default: all nine)")
            # named after FitConfig's fields and absent unless given, so that
            # FitConfig supplies the defaults
            cmd.add_argument(
                "--seed",
                type=int,
                default=argparse.SUPPRESS,
                dest="rng_seed",
                metavar="SEED",
                help="random seed for the initial search (default: FitConfig's)",
            )
            cmd.add_argument(
                "--budget",
                type=int,
                default=argparse.SUPPRESS,
                dest="search_budget",
                metavar="BUDGET",
                help=(
                    "shape draws per model, default 256 (FitConfig's); each gets its least-squares "
                    "scale on at most 256 points and every fit starts from the best, except YE, "
                    "which starts from the two GO limits of GO's fit"
                ),
            )
        cmd.set_defaults(func=func)

    compare = sub.add_parser("compare", parents=[output], help="Kruskal-Wallis + Dunn across models")
    compare.add_argument("--fits", nargs="+", required=True, help="fit output directories")
    compare.add_argument("--metric", default="r2", choices=GOF_METRICS)
    compare.set_defaults(func=cmd_compare)

    rank = sub.add_parser("rank", parents=[output], help="per-segment model rankings and agreement")
    rank.add_argument(
        "--fits",
        nargs="+",
        required=True,
        help="fit output directories, optionally labeled as SEGMENT=DIR",
    )
    rank.add_argument("--metric", default="r2", choices=GOF_METRICS)
    rank.set_defaults(func=cmd_rank)

    return parser


def _parse_formats(raw: str) -> set[str]:
    formats = {part.strip().lower() for part in raw.split(",") if part.strip()}
    unknown = formats - {"csv", "json"}
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown output formats {sorted(unknown)}; choose from csv,json"
        )
    return formats


def _write_meta(args, name: str, meta: dict, **results) -> None:
    """Write the verb's metadata (its base metadata plus ``meta``) to
    ``name`` and, under ``--format json``, ``report.json``: that metadata
    next to ``results``."""
    meta = {**base_metadata(args.verb), **meta}
    files = {name: meta}
    if "json" in args.format:
        files["report.json"] = {"metadata": meta, **results}
    for filename, payload in files.items():
        write_json(args.out / filename, payload)


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------


def _refuse_repeats(names, what: str) -> None:
    """Refuse two inputs or series of one name: the second would overwrite
    the first's output file, or share its rows."""
    seen = set()
    for name in names:
        if name in seen:
            raise ValueError(f"two {what} are named {name!r}")
        seen.add(name)


def _ingest_sources(args):
    """(stem, (NDJSON text, summary counts)) per ``--issues`` file, then ``--repo``."""
    from .pipeline import _ingest_file, _ingest_outcome, _map_inputs, fetch_issues

    paths = list(map(Path, args.issues))
    stems = [path.stem for path in paths]
    if args.repo:
        stems.append(args.repo.replace("/", "_"))
    _refuse_repeats(stems, "inputs")
    existing = [path for path in paths if path.exists()]
    for name in [f"{stem}.ndjson" for stem in stems] + ["summary.json", "report.json"]:
        target = args.out / name
        if target.exists() and any(target.samefile(path) for path in existing):
            raise ValueError(f"--out would overwrite the input {target}")
    yield from zip(stems, _map_inputs(lambda path: _ingest_file(path, args.title_match), paths))
    if args.repo:
        # --token first, then the first environment variable that is set
        token = args.token or next(filter(None, map(os.environ.get, TOKEN_ENV_VARS)), None)
        yield stems[-1], _ingest_outcome(fetch_issues(args.repo, auth_token=token), args.title_match)


def cmd_ingest(args) -> int:
    if not args.issues and not args.repo:
        raise ValueError("ingest needs --issues files or --repo")

    summary: dict[str, dict] = {}
    for stem, (text, counts) in _ingest_sources(args):
        target = args.out / f"{stem}.ndjson"
        with open(target, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        summary[stem] = {**counts, "output": target.name}
        print(
            f"{stem}: total={counts['total']} defect_matched={counts['defect_matched']} "
            f"excluded={counts['excluded']} kept={counts['kept']}"
        )

    _write_meta(args, "summary.json", {"title_match": bool(args.title_match), "inputs": summary})
    return 0


# ---------------------------------------------------------------------------
# shared series construction for trend and fit
# ---------------------------------------------------------------------------


def _grouped_series(args) -> tuple[list[FailureSeries], dict[str, str], list[dict]]:
    """Series per the grouping mode, segment labels, and skipped.csv rows.

    The side input is read first, so a bad one is reported before any issue
    file is parsed; every file is parsed before the first is grouped.
    """
    from .pipeline import _map_inputs, _project_series, classify_attribute
    from .pipeline import load_attributes_csv, load_releases_csv

    grouping = args.group_by
    windows = attributes = None
    if grouping == "releases":
        if not args.releases:
            raise ValueError("--group-by releases needs --releases")
        windows = load_releases_csv(args.releases)
    elif grouping != "whole":
        if not args.attributes:
            raise ValueError(f"--group-by {grouping} needs --attributes")
        attributes = load_attributes_csv(args.attributes)

    paths = list(map(Path, args.issues))
    built = list(_map_inputs(lambda path: _project_series(path, windows, args.min_faults), paths))
    series: list[FailureSeries] = []
    segments: dict[str, str] = {}
    skipped: list[dict] = []
    for project, (project_series, project_skipped) in zip((path.stem for path in paths), built):
        series.extend(project_series)
        skipped.extend(project_skipped)
        if attributes is not None and project_series:
            if project not in attributes:
                raise SegmentCoverageError(
                    f"attributes file has no row for project {project!r}"
                )
            attrs = attributes[project]
            if grouping == "domain":
                segments[project] = attrs.category
            else:
                metric = grouping.split(":", 1)[1]
                segments[project] = classify_attribute(metric, attrs.metrics[metric])
    return series, segments, skipped


def _series_stage(
    args, grouped: tuple, need: int, purpose: str
) -> tuple[list[FailureSeries], list[dict], list[dict], dict]:
    """The stage that ``trend`` and ``fit`` share, after ``_grouped_series``.

    Refuses two ``grouped`` series of one name, moves each one with fewer
    than ``need`` observations to the skipped rows
    (``InsufficientDataError`` when none is left), and
    writes trend.csv, segments.csv (when the grouping has segments) and
    skipped.csv.  Returns the kept series, their trend rows, the skipped
    rows and the grouping part of the run metadata.
    """
    from .stats import laplace_factor

    grouped, segments, skipped = grouped
    # a project file's stem, or its stem and a release name, names a series
    _refuse_repeats([*(s.label for s in grouped), *(row["name"] for row in skipped)], "series")
    series = []
    for s in grouped:
        if s.n >= need:
            series.append(s)
        else:
            reason = f"only {s.n} observations; {purpose} needs {need}"
            skipped.append({"name": s.label, "reason": reason})
    if not series:
        raise InsufficientDataError(f"no series has the {need} observations {purpose} needs")
    rows = [trend_row(s.label, laplace_factor(s)) for s in series]

    write_csv(args.out / "trend.csv", TREND_COLUMNS, rows)
    if segments:
        write_csv(
            args.out / "segments.csv",
            SEGMENT_COLUMNS,
            [(s.label, segments[s.label]) for s in series],
        )
    write_csv(args.out / "skipped.csv", SKIPPED_COLUMNS, skipped)

    meta = {
        "grouping": args.group_by,
        "min_faults": args.min_faults,
        "series": {s.label: {"n": s.n, "segment": segments.get(s.label, "all")} for s in series},
    }
    return series, rows, skipped, meta


# ---------------------------------------------------------------------------
# trend
# ---------------------------------------------------------------------------


def cmd_trend(args) -> int:
    _, rows, skipped, meta = _series_stage(args, _grouped_series(args), 2, "trend")
    _write_meta(args, "run_metadata.json", meta, trend=rows, skipped=skipped)
    for row in rows:
        flag = "growth" if row["growth_significant"] else "no significant growth"
        print(f"{row['series']}: u={row['laplace_u']:.4f} ({flag})")
    return 0


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def _parse_models(raw: str | None) -> list[ModelId]:
    from .records import MODEL_ORDER, ModelId

    if raw is None:
        return list(MODEL_ORDER)
    models = []
    for part in raw.split(","):
        name = part.strip().upper()
        if not name:
            continue
        try:
            models.append(ModelId(name))
        except ValueError:
            raise ValueError(
                f"unknown model {part.strip()!r}; choose from "
                f"{','.join(m.value for m in MODEL_ORDER)}"
            ) from None
    if not models:
        raise ValueError("empty model list")
    return [m for m in MODEL_ORDER if m in set(models)]


def cmd_fit(args) -> int:
    from dataclasses import fields

    from .config import FitConfig

    models = _parse_models(args.models)
    given = {f.name: getattr(args, f.name) for f in fields(FitConfig) if hasattr(args, f.name)}
    cfg = FitConfig(**given)
    # the input stage may fork, which a process should do before numpy loads
    grouped = _grouped_series(args)
    from .fitting import fit_all
    from .models import descriptor, mean_value

    need = min(descriptor(m).k for m in models) + 1
    series, trend_rows, skipped, meta = _series_stage(args, grouped, need, "fitting")

    slugs = unique_slugs([s.label for s in series])
    curves_dir = args.out / "curves"
    curves_dir.mkdir(parents=True, exist_ok=True)

    gof_records = []
    for s in series:
        results = fit_all(s, models, cfg)
        curves = [
            mean_value(r.model, r.params, s.times).tolist()
            if all(math.isfinite(v) for v in r.params)
            else [None] * s.n
            for r in results
        ]
        write_csv(
            curves_dir / f"{slugs[s.label]}.csv",
            ["t", "observed", *(str(r.model) for r in results)],
            zip(s.times, s.cumulative, *curves),
        )
        gof_records.extend(gof_record(s.label, r) for r in results)
        meta["series"][s.label]["curve"] = f"curves/{slugs[s.label]}.csv"

    write_csv(args.out / "gof.csv", GOF_COLUMNS, map(gof_row, gof_records))
    meta.update(seed=cfg.rng_seed, budget=cfg.search_budget, models=[m.value for m in models])
    _write_meta(args, "run_metadata.json", meta, gof=gof_records, trend=trend_rows, skipped=skipped)
    print(
        f"fitted {len(models)} models to {len(series)} series "
        f"({len(skipped)} skipped) -> {args.out}"
    )
    return 0


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def _load_fits(dirs) -> dict[str, list]:
    """Fit results of ``(path, label, fallback)`` directories by segment.

    Each series of ``path`` goes to ``label`` when one is given, else to the
    segment that the ``series`` map of its ``run_metadata.json`` records,
    else to ``fallback``.  A series without a segment (ungrouped, or by
    releases) is recorded as ``all``, which says nothing and is never a real
    segment, so such series go to ``fallback`` too.  Segments and their
    results keep the order in which they are first read.  Metadata that is
    not an object, or whose ``series`` entries are not objects with a string
    ``segment``, is refused, and so is a fit of one model to one series in
    one segment read twice, which would count twice, and so are series of
    two directories that fall back to one segment other than ``all`` (which
    pools by design): two directories of one name would pool unseen.
    """
    groups: dict[str, list] = {}
    read_from: dict[tuple, Path] = {}
    fell_back: dict[str, Path] = {}
    for path, label, fallback in dirs:
        gof_path = path / "gof.csv"
        if not gof_path.exists():
            raise ValueError(f"{path} is not a fit output directory (no gof.csv)")
        meta_path = path / "run_metadata.json"
        meta = read_json(meta_path) if meta_path.exists() else {}
        recorded = meta.get("series", {}) if isinstance(meta, dict) else None
        entries = recorded.values() if isinstance(recorded, dict) else [None]
        if not all(isinstance(e, dict) and isinstance(e.get("segment", ""), str) for e in entries):
            raise ValueError(f"{meta_path}: not the run metadata of a fit")
        for series, result in read_gof_csv(gof_path):
            segment = recorded.get(series, {}).get("segment")
            segment = label or (segment if segment != "all" else None)
            if not segment:
                segment, first = fallback, fell_back.setdefault(fallback, path)
                if fallback != "all" and first != path:
                    raise ValueError(
                        f"{first} and {path} would both be segment {fallback!r}; "
                        "label them as SEGMENT=DIR"
                    )
            key = (segment, series, result.model)
            if key in read_from:
                first = read_from[key]
                raise ValueError(f"the {result.model} fit of series {series!r} is in both {first} and {path}")
            read_from[key] = path
            groups.setdefault(segment, []).append(result)
    return groups


def cmd_compare(args) -> int:
    from .records import MODEL_ORDER
    from .stats import compare_groups, mean, pool_scores, sample_sd

    metric = args.metric

    by_segment = _load_fits((Path(fits), None, "all") for fits in args.fits)
    if not by_segment:
        raise InsufficientDataError("fit outputs contain no results")

    segment_names = sorted(by_segment)
    comparison_rows = []
    dunn_rows = []
    summary_rows = []
    records = []
    for segment in segment_names:
        scores = pool_scores(by_segment[segment])
        models = [m for m in MODEL_ORDER if scores.get(m, {}).get(metric)]
        groups = [scores[m][metric] for m in models]
        try:
            comparison = compare_groups([m.value for m in models], groups)
        except InsufficientDataError as exc:
            raise InsufficientDataError(f"segment {segment!r}, {metric}: {exc}") from exc
        record = comparison_to_dict(segment, metric, comparison)
        records.append(record)
        comparison_rows.append({**record, "k": len(models), "n": sum(map(len, groups))})
        dunn_rows.extend({"segment": segment, **pair} for pair in record["dunn"])
        for model in models:
            row = {"segment": segment, "model": model.value, "n": len(scores[model][metric])}
            for name, values in scores[model].items():
                row[f"{name}_mean"] = mean(values) if values else None
                row[f"{name}_sd"] = sample_sd(values) if len(values) >= 2 else None
            summary_rows.append(row)

    write_csv(args.out / "comparison.csv", COMPARISON_COLUMNS, comparison_rows)
    write_csv(args.out / "dunn.csv", DUNN_COLUMNS, dunn_rows)
    write_csv(args.out / "summary.csv", SUMMARY_COLUMNS, summary_rows)

    meta = {"metric": metric, "effect_legend": EFFECT_LEGEND, "segments": segment_names}
    _write_meta(args, "run_metadata.json", meta, comparisons=records, summary=summary_rows)

    for row in records:
        print(
            f"{row['segment']}: H={row['H']:.6f} df={row['df']} p={row['p_value']:.6g} "
            f"eta2={row['eta_squared']:.6f} ({row['effect']})"
        )
    return 0


# ---------------------------------------------------------------------------
# rank
# ---------------------------------------------------------------------------


def cmd_rank(args) -> int:
    from .stats import rank_models

    dirs = []
    for spec in args.fits:
        label, path = None, Path(spec)
        if "=" in spec and not path.exists():
            label, text = spec.split("=", 1)
            path = Path(text)
        dirs.append((path, label, path.name))
    groups = _load_fits(dirs)

    table = rank_models(groups, args.metric)
    write_csv(args.out / "ranking.csv", ["model", *table.segments], ranking_rows(table))

    meta = {
        "metric": args.metric,
        "segments": list(table.segments),
        "models": [m.value for m in table.models],
        "ira_percent": table.ira_percent,
    }
    ranks = {
        segment: {m.value: table.ranks[segment][m] for m in table.models}
        for segment in table.segments
    }
    _write_meta(args, "run_metadata.json", meta, ranks=ranks)

    for segment in table.segments:
        ordered = sorted(table.models, key=lambda m: table.ranks[segment][m])
        print(f"{segment}: " + " > ".join(m.value for m in ordered))
    if table.ira_percent is not None:
        print(f"inter-segment agreement: {table.ira_percent:.2f}%")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
