# Command-line interface: verbs, outputs, exit codes, reproducibility.

import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest

import srgrowth
from srgrowth.cli import main
from srgrowth.reporting import GOF_COLUMNS, SUMMARY_COLUMNS, fmt_float, read_csv, read_json

T0 = datetime(2021, 1, 1, tzinfo=timezone.utc)


def write_issues(path, n, scale=60.0, rate=0.9, labels=("bug",), start=T0):
    """Synthetic project whose cumulative defect curve is concave
    (logarithmic spacing), which every finite model fits reasonably."""
    records = []
    for i in range(n):
        day = scale * math.log(1.0 + rate * (i + 1))
        records.append({
            "id": i + 1,
            "created_at": (start + timedelta(days=day)).isoformat(),
            "labels": [{"name": name} for name in labels],
            "title": f"crash {i}",
            "state": "closed",
        })
    path.write_text(json.dumps(records), encoding="utf-8")
    return path


def tree_digest(root: Path) -> dict:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


@pytest.fixture()
def two_projects(tmp_path):
    a = write_issues(tmp_path / "alpha.json", 80, scale=60.0, rate=0.9)
    b = write_issues(tmp_path / "beta.json", 60, scale=45.0, rate=1.2)
    return a, b


def test_ingest_writes_ndjson_and_summary(tmp_path, capsys):
    raw = tmp_path / "raw.json"
    records = []
    for i in range(50):
        if i < 30:
            labels = ["bug", "duplicate"] if i < 5 else ["bug"]
        else:
            labels = ["enhancement"]
        records.append({
            "id": i,
            "created_at": (T0 + timedelta(days=i)).isoformat(),
            "labels": labels,
            "title": f"issue {i}",
        })
    raw.write_text(json.dumps(records))
    out = tmp_path / "out"
    assert main(["ingest", "--issues", str(raw), "--out", str(out)]) == 0

    ndjson = (out / "raw.ndjson").read_text(encoding="utf-8").strip().splitlines()
    assert len(ndjson) == 25  # 30 defect-labeled minus 5 duplicates
    first = json.loads(ndjson[0])
    assert list(first) == sorted(first)  # deterministic key order

    summary = read_json(out / "summary.json")
    stats = summary["inputs"]["raw"]
    assert stats["total"] == 50
    assert stats["defect_matched"] == 30
    assert stats["excluded"] == 5
    assert stats["kept"] == 25
    assert "25" in capsys.readouterr().out


def test_ingest_title_match_summary(tmp_path):
    """With --title-match a title-only match counts as matched, and a
    duplicate label still excludes it."""
    raw = tmp_path / "raw.json"
    cases = [
        (["bug"], "crash on start"),              # label match, kept
        (["bug", "duplicate"], "crash again"),    # label match, excluded
        (["duplicate"], "save fails"),            # title-only match, excluded
        ([], "error in the parser"),              # title-only match, kept
        (["enhancement"], "dark mode"),           # no match
    ]
    raw.write_text(json.dumps([
        {"id": i, "created_at": (T0 + timedelta(days=i)).isoformat(),
         "labels": labels, "title": title}
        for i, (labels, title) in enumerate(cases)
    ]))
    out = tmp_path / "out"
    assert main(["ingest", "--issues", str(raw), "--title-match", "--out", str(out)]) == 0

    stats = read_json(out / "summary.json")["inputs"]["raw"]
    assert (stats["total"], stats["defect_matched"], stats["excluded"], stats["kept"]) == (5, 4, 2, 2)
    kept = [json.loads(line)["id"] for line in (out / "raw.ndjson").read_text().splitlines()]
    assert kept == [0, 3]


# (labels, title) by id % 8: label matches, exclusions, title-only matches
PINNED_CASES = [
    (["bug"], "crash on start"),
    (["Bug", "duplicate"], "crash again"),
    (["DUPLICATED"], "save: Error"),
    ([], "fails to start"),
    (["enhancement"], "faulty docs"),
    ([{"name": "type: Defect", "color": "ededed"}], "x"),
    (["question"], "how to"),
    (["kind/failure", "Duplicate of #3"], "y"),
]


@pytest.mark.parametrize("flags, counts", [
    ([], (40, 7, 20, 10, 10)),
    (["--title-match"], (40, 7, 35, 15, 20)),
])
def test_ingest_summary_counts_are_pinned(tmp_path, flags, counts):
    """Repeated ids, exclusion labels and title-only matches give the counts
    that the two-pass filter of earlier releases gave."""
    records = [
        {"id": i, "created_at": (T0 + timedelta(hours=i)).isoformat(),
         "labels": labels, "title": title}
        for i in range(40)
        for labels, title in [PINNED_CASES[i % 8]]
    ]
    records += [{"id": i, "created_at": T0.isoformat(), "labels": ["bug"]} for i in range(5)]
    records += [{"id": 99, "labels": ["bug"]}, {"id": 98, "created_at": "soon"}]
    raw = tmp_path / "raw.json"
    raw.write_text(json.dumps(records))
    out = tmp_path / "out"
    assert main(["ingest", "--issues", str(raw), *flags, "--out", str(out)]) == 0

    stats = read_json(out / "summary.json")["inputs"]["raw"]
    keys = ("total", "parse_skipped", "defect_matched", "excluded", "kept")
    assert tuple(stats[k] for k in keys) == counts
    assert len((out / "raw.ndjson").read_text().splitlines()) == stats["kept"]


def test_ingest_corrupt_json_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('[{"id": 1, "created_at": "2021-')
    assert main(["ingest", "--issues", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "error:" in capsys.readouterr().err


def test_ingest_missing_file_exits_two(tmp_path):
    assert main(["ingest", "--issues", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("name, fmt", [("p.ndjson", "csv"), ("summary.json", "csv"),
                                       ("report.json", "json")])
def test_ingest_refuses_to_overwrite_an_input(tmp_path, capsys, name, fmt):
    """An --out that holds an input under an output's name is refused before
    anything is parsed or written, however the directory is spelled."""
    raw = tmp_path / "d" / name
    raw.parent.mkdir()
    write_issues(raw, 5, labels=("enhancement",))
    before = raw.read_bytes()
    out = raw.parent / ".." / "d"
    assert main(["ingest", "--issues", str(raw), "--format", fmt, "--out", str(out)]) == 2
    assert f"would overwrite the input {out / name}" in capsys.readouterr().err
    assert raw.read_bytes() == before
    assert [path.name for path in raw.parent.iterdir()] == [name]


def test_ingest_needs_some_source(tmp_path):
    assert main(["ingest", "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize(
    "flag, srgrowth_token, github_token, expected",
    [
        ("flag", "env1", "env2", "flag"),
        (None, "env1", "env2", "env1"),
        (None, "", "env2", "env2"),
        (None, None, None, None),
    ],
)
def test_ingest_repo_token_precedence(
    tmp_path, monkeypatch, capsys, flag, srgrowth_token, github_token, expected
):
    for name, value in (("SRGROWTH_TOKEN", srgrowth_token), ("GITHUB_TOKEN", github_token)):
        if value is None:
            monkeypatch.delenv(name, raising=False)
        else:
            monkeypatch.setenv(name, value)
    records = srgrowth.parse_issues(write_issues(tmp_path / "remote.json", 12).read_bytes()).records
    notes = ["page 1 item 3: missing created_at", "id 7: duplicate id, keeping first occurrence"]
    calls = []

    def fake_fetch(slug, auth_token=None):
        calls.append((slug, auth_token))
        return srgrowth.ParseResult(records=records, skipped=notes)

    monkeypatch.setattr("srgrowth.pipeline.fetch_issues", fake_fetch)
    local = write_issues(tmp_path / "local.json", 5)
    out = tmp_path / "out"
    argv = ["ingest", "--issues", str(local), "--repo", "owner/name", "--out", str(out)]
    assert main(argv + (["--token", flag] if flag else [])) == 0

    assert calls == [("owner/name", expected)]
    printed = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in printed] == ["local", "owner_name"]  # files first
    inputs = read_json(out / "summary.json")["inputs"]
    assert inputs["local"]["parse_skipped"] == 0 and inputs["local"]["parse_skip_notes"] == []
    stats = inputs["owner_name"]
    assert stats["parse_skipped"] == 2 and stats["parse_skip_notes"] == notes
    assert stats["total"] == stats["kept"] == 12 and stats["output"] == "owner_name.ndjson"
    assert len((out / "owner_name.ndjson").read_text().splitlines()) == 12


def test_trend_outputs(tmp_path, two_projects, capsys):
    a, b = two_projects
    out = tmp_path / "trend"
    assert main(["trend", "--issues", str(a), str(b), "--out", str(out)]) == 0
    lines = (out / "trend.csv").read_bytes().decode("utf-8").strip("\r\n").split("\r\n")
    assert lines[0].startswith("series,")
    assert len(lines) == 3  # header + two series
    assert (out / "run_metadata.json").exists()
    assert "alpha" in capsys.readouterr().out


def test_fit_outputs_and_metadata(tmp_path, two_projects):
    a, b = two_projects
    out = tmp_path / "fit"
    assert main([
        "fit", "--issues", str(a), str(b),
        "--seed", "7", "--budget", "800", "--out", str(out),
        "--format", "csv,json",
    ]) == 0

    gof = (out / "gof.csv").read_bytes().decode("utf-8").strip("\r\n").split("\r\n")
    assert gof[0] == "series,model,a,b,c,rss,r2,aic,bic,rse,converged"
    assert len(gof) == 1 + 2 * 9  # two series, nine models each

    meta = read_json(out / "run_metadata.json")
    assert meta["seed"] == 7
    assert meta["budget"] == 800
    assert meta["series"]["alpha"]["n"] == 80
    assert (out / "curves").is_dir()
    assert len(list((out / "curves").glob("*.csv"))) == 2
    assert (out / "report.json").exists()


def test_fit_model_subset(tmp_path, two_projects):
    a, _ = two_projects
    out = tmp_path / "fit"
    assert main([
        "fit", "--issues", str(a), "--models", "GO,MO",
        "--budget", "300", "--out", str(out),
    ]) == 0
    gof = (out / "gof.csv").read_bytes().decode("utf-8").strip("\r\n").split("\r\n")
    models = {line.split(",")[1] for line in gof[1:]}
    assert models == {"GO", "MO"}


def test_fit_unknown_model_exits_two(tmp_path, two_projects):
    a, _ = two_projects
    assert main([
        "fit", "--issues", str(a), "--models", "GO,XX",
        "--out", str(tmp_path / "fit"),
    ]) == 2


@pytest.mark.parametrize("models", ["", ","])
def test_fit_empty_model_list_exits_two(tmp_path, two_projects, capsys, models):
    out = tmp_path / "fit"
    assert main(["fit", "--issues", str(two_projects[0]), "--models", models, "--out", str(out)]) == 2
    assert "empty model list" in capsys.readouterr().err
    assert not out.exists()


def test_fit_reruns_byte_identical(tmp_path, two_projects):
    a, b = two_projects
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    argv = ["fit", "--issues", str(a), str(b), "--seed", "42",
            "--budget", "600", "--format", "csv,json"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert tree_digest(out1) == tree_digest(out2)


def test_fit_releases_grouping(tmp_path, two_projects):
    a, b = two_projects
    releases = tmp_path / "releases.csv"
    releases.write_text(
        "name,start,end\n"
        "early,2021-01-01T00:00:00Z,2021-07-01T00:00:00Z\n"
        "late,2021-07-01T00:00:00Z,2022-06-01T00:00:00Z\n"
    )
    out = tmp_path / "fr"
    assert main([
        "fit", "--issues", str(a), str(b), "--releases", str(releases),
        "--group-by", "releases", "--min-faults", "10",
        "--budget", "300", "--out", str(out),
    ]) == 0
    gof = (out / "gof.csv").read_bytes().decode("utf-8").strip("\r\n").split("\r\n")
    series = {line.split(",")[0] for line in gof[1:]}
    assert any(":early" in s for s in series)


def test_fit_releases_without_file_exits_two(tmp_path, two_projects):
    a, _ = two_projects
    assert main([
        "fit", "--issues", str(a), "--group-by", "releases",
        "--out", str(tmp_path / "x"),
    ]) == 2


def test_fit_attribute_grouping_and_rank(tmp_path, two_projects, capsys):
    a, b = two_projects
    attrs = tmp_path / "attrs.csv"
    attrs.write_text(
        "project,category,loc,noc,noi,nofa\n"
        "alpha,C1,5000,50,400,200\n"
        "beta,C2,50000,150,3000,1000\n"
    )
    out = tmp_path / "fl"
    assert main([
        "fit", "--issues", str(a), str(b), "--attributes", str(attrs),
        "--group-by", "attribute:LOC", "--budget", "400", "--out", str(out),
    ]) == 0
    segs = (out / "segments.csv").read_bytes().decode("utf-8")
    assert "alpha" in segs and "S" in segs and "M" in segs

    rank_out = tmp_path / "rank"
    assert main(["rank", "--fits", str(out), "--metric", "r2",
                 "--out", str(rank_out)]) == 0
    printed = capsys.readouterr().out
    assert "agreement" in printed
    ranking = (rank_out / "ranking.csv").read_bytes().decode("utf-8")
    lines = ranking.strip("\r\n").split("\r\n")
    assert lines[0] == "model,S,M"  # one rank column per segment
    assert len(lines) == 10  # nine models under the header


def test_segment_of_project_whose_name_contains_a_colon(tmp_path):
    a = write_issues(tmp_path / "acme:core.json", 50, scale=60.0, rate=0.9)
    b = write_issues(tmp_path / "beta.json", 40, scale=45.0, rate=1.2)
    attrs = tmp_path / "attrs.csv"
    attrs.write_text("project,category,loc,noc,noi,nofa\n"
                     "acme:core,C1,5000,50,400,200\n"
                     "beta,C2,50000,150,3000,1000\n")
    for verb in ("trend", "fit"):
        out = tmp_path / verb
        assert main([
            verb, "--issues", str(a), str(b), "--attributes", str(attrs),
            "--group-by", "domain", "--out", str(out),
        ] + (["--budget", "200"] if verb == "fit" else [])) == 0
        segs = (out / "segments.csv").read_bytes().decode("utf-8")
        assert segs.strip("\r\n").split("\r\n")[1:] == ["acme:core,C1", "beta,C2"]
        meta = read_json(out / "run_metadata.json")
        assert meta["series"]["acme:core"]["segment"] == "C1"
        assert meta["series"]["beta"]["segment"] == "C2"


def test_trend_segments_list_the_kept_series_in_input_order(tmp_path, two_projects):
    """zeta has one issue, too few for a trend: it is skipped and so has no
    segment row, and the rows follow --issues, as fit's do."""
    zeta = write_issues(tmp_path / "zeta.ndjson", 1)
    alpha, _ = two_projects
    attrs = tmp_path / "attrs.csv"
    attrs.write_text("project,category,loc,noc,noi,nofa\n"
                     "alpha,C1,5000,50,400,200\n"
                     "zeta,C2,50000,150,3000,1000\n")
    out = tmp_path / "trend"
    assert main([
        "trend", "--issues", str(zeta), str(alpha), "--attributes", str(attrs),
        "--group-by", "domain", "--out", str(out),
    ]) == 0
    segs = (out / "segments.csv").read_bytes().decode("utf-8")
    assert segs.strip("\r\n").split("\r\n")[1:] == ["alpha,C1"]
    skipped = (out / "skipped.csv").read_bytes().decode("utf-8")
    assert skipped.strip("\r\n").split("\r\n")[1:] == ["zeta,only 1 observations; trend needs 2"]


def test_trend_skips_an_empty_export(tmp_path, two_projects):
    empty = tmp_path / "empty.ndjson"
    empty.write_text("")
    out = tmp_path / "trend"
    assert main(["trend", "--issues", str(empty), str(two_projects[0]), "--out", str(out)]) == 0
    with open(out / "skipped.csv", newline="", encoding="utf-8") as handle:
        assert list(csv.DictReader(handle)) == [{"name": "empty", "reason": "no issues"}]
    lines = (out / "trend.csv").read_bytes().decode("utf-8").strip("\r\n").split("\r\n")
    assert [line.split(",")[0] for line in lines[1:]] == ["alpha"]

    alone = tmp_path / "alone"
    assert main(["trend", "--issues", str(empty), "--out", str(alone)]) == 3
    assert not alone.exists()


def test_fit_report_json_is_strict_with_null_placeholders(tmp_path):
    # 3 points: the two-parameter models fit, the three-parameter ones
    # yield placeholder rows
    tiny = write_issues(tmp_path / "tiny.json", 3)
    out = tmp_path / "fit"
    assert main(["fit", "--issues", str(tiny), "--budget", "200",
                 "--out", str(out), "--format", "csv,json"]) == 0

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    report = json.loads((out / "report.json").read_text(encoding="utf-8"),
                        parse_constant=reject)
    placeholders = {row["model"]: row for row in report["gof"] if row["rss"] is None}
    assert sorted(placeholders) == ["HD", "LL", "WE", "YE", "YR"]
    for row in placeholders.values():
        assert row["params"] == [None, None, None]
        assert [row[m] for m in ("r2", "aic", "bic", "rse")] == [None] * 4
        assert row["converged"] is False
    curve = (out / "curves" / "tiny.csv").read_bytes().decode("utf-8").split("\r\n")
    header = curve[0].split(",")
    cells = curve[1].split(",")
    assert cells[header.index("GO")] != ""
    assert all(cells[header.index(m)] == "" for m in placeholders)


def test_fit_attribute_gap_exits_three(tmp_path, two_projects):
    a, b = two_projects
    attrs = tmp_path / "attrs.csv"
    attrs.write_text(
        "project,category,loc,noc,noi,nofa\nalpha,C1,5000,50,400,200\n"
    )  # beta missing
    assert main([
        "fit", "--issues", str(a), str(b), "--attributes", str(attrs),
        "--group-by", "domain", "--budget", "200", "--out", str(tmp_path / "x"),
    ]) == 3


def test_compare_pools_series_within_segment(tmp_path, two_projects, capsys):
    a, b = two_projects
    fit_out = tmp_path / "fit"
    assert main(["fit", "--issues", str(a), str(b), "--budget", "500",
                 "--out", str(fit_out)]) == 0
    cmp_out = tmp_path / "cmp"
    assert main(["compare", "--fits", str(fit_out), "--metric", "r2",
                 "--out", str(cmp_out)]) == 0
    printed = capsys.readouterr().out
    assert "H=" in printed and "eta2=" in printed
    comparison = (cmp_out / "comparison.csv").read_bytes().decode("utf-8")
    assert comparison.startswith("segment,")
    assert (cmp_out / "dunn.csv").exists()
    assert (cmp_out / "summary.csv").exists()


def same_cell(cell, value):
    """Whether a CSV cell holds the report.json value ``value``."""
    if value is None:
        return cell == ""
    if isinstance(value, bool):
        return cell == ("true" if value else "false")
    return float(cell) == value if isinstance(value, float) else cell == str(value)


def test_compare_csv_rows_mirror_report_json(tmp_path, two_projects):
    a, b = two_projects
    fit_out = tmp_path / "fit"
    assert main(["fit", "--issues", str(a), str(b), "--budget", "300",
                 "--out", str(fit_out)]) == 0
    cmp_out = tmp_path / "cmp"
    assert main(["compare", "--fits", str(fit_out), "--format", "csv,json",
                 "--out", str(cmp_out)]) == 0
    comparisons = read_json(cmp_out / "report.json")["comparisons"]

    def read_rows(name):
        with open(cmp_out / name, newline="", encoding="utf-8") as handle:
            return list(csv.DictReader(handle))

    rows = read_rows("comparison.csv")
    assert len(rows) == len(comparisons) >= 1
    for row, entry in zip(rows, comparisons):
        assert int(row["k"]) == len(entry["groups"])
        assert int(row["n"]) == sum(len(v) for v in entry["groups"].values())
        for column in row.keys() - {"k", "n"}:
            assert same_cell(row[column], entry[column]), column

    expected = [{"segment": c["segment"], **pair} for c in comparisons for pair in c["dunn"]]
    dunn = read_rows("dunn.csv")
    assert len(dunn) == len(expected) == 36
    for row, entry in zip(dunn, expected):
        assert row.keys() == entry.keys()
        assert all(same_cell(row[column], entry[column]) for column in row)


def test_fit_gof_csv_rows_mirror_report_json(tmp_path, two_projects):
    a, b = two_projects
    fit_out = tmp_path / "fit"
    assert main(["fit", "--issues", str(a), str(b), "--budget", "300",
                 "--format", "csv,json", "--out", str(fit_out)]) == 0
    entries = read_json(fit_out / "report.json")["gof"]
    with open(fit_out / "gof.csv", newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))

    assert len(rows) == len(entries) == 2 * 9
    for row, entry in zip(rows, entries):
        params = entry["params"]
        assert len(params) in (2, 3)
        expected = {**entry, **dict(zip("abc", (*params, None, None)))}
        assert row.keys() <= expected.keys()
        for column in row:
            assert same_cell(row[column], expected[column]), column


def test_compare_single_series_per_segment_exits_three(tmp_path, two_projects, capsys):
    a, _ = two_projects
    fit_out = tmp_path / "fit"
    assert main(["fit", "--issues", str(a), "--budget", "300",
                 "--out", str(fit_out)]) == 0
    assert main(["compare", "--fits", str(fit_out),
                 "--out", str(tmp_path / "cmp")]) == 3
    assert "segment 'all', r2: " in capsys.readouterr().err


def fit_by_domain(tmp_path, two_projects, categories):
    """A --group-by domain fit of both projects in ``categories``."""
    attrs = tmp_path / "attrs.csv"
    attrs.write_text("project,category,loc,noc,noi,nofa\n"
                     f"alpha,{categories[0]},5000,50,400,200\n"
                     f"beta,{categories[1]},50000,150,3000,1000\n")
    out = tmp_path / "fd"
    assert main(["fit", "--issues", *map(str, two_projects), "--attributes", str(attrs),
                 "--group-by", "domain", "--budget", "300", "--out", str(out)]) == 0
    return out


def test_compare_pools_under_the_recorded_segment(tmp_path, two_projects):
    fits = fit_by_domain(tmp_path, two_projects, ("C1", "C1"))
    argv = ["compare", "--fits", str(fits), "--format", "csv,json"]
    assert main(argv + ["--out", str(tmp_path / "cmp")]) == 0
    assert read_json(tmp_path / "cmp" / "run_metadata.json")["segments"] == ["C1"]

    # run_metadata.json is the only segment source; segments.csv is not read
    (fits / "segments.csv").unlink()
    assert main(argv + ["--out", str(tmp_path / "cmp2")]) == 0
    assert tree_digest(tmp_path / "cmp") == tree_digest(tmp_path / "cmp2")


def test_rank_has_a_column_per_recorded_segment(tmp_path, two_projects):
    fits = fit_by_domain(tmp_path, two_projects, ("C1", "C2"))
    out = tmp_path / "rank"
    assert main(["rank", "--fits", str(fits), "--out", str(out)]) == 0
    header = (out / "ranking.csv").read_bytes().decode("utf-8").split("\r\n")[0]
    assert header == "model,C1,C2"


def test_fits_without_metadata_fall_back(tmp_path, two_projects):
    fits = fit_by_domain(tmp_path, two_projects, ("C1", "C2"))
    (fits / "run_metadata.json").unlink()
    assert main(["compare", "--fits", str(fits), "--out", str(tmp_path / "cmp")]) == 0
    assert read_json(tmp_path / "cmp" / "run_metadata.json")["segments"] == ["all"]
    assert main(["rank", "--fits", str(fits), "--out", str(tmp_path / "rank")]) == 0
    header = (tmp_path / "rank" / "ranking.csv").read_bytes().decode("utf-8").split("\r\n")[0]
    assert header == f"model,{fits.name}"


def test_compare_missing_fit_dir_exits_two(tmp_path):
    assert main(["compare", "--fits", str(tmp_path / "void"),
                 "--out", str(tmp_path / "cmp")]) == 2


def test_rank_accepts_labeled_fit_dirs(tmp_path, two_projects, capsys):
    a, b = two_projects
    f1, f2 = tmp_path / "f1", tmp_path / "f2"
    assert main(["fit", "--issues", str(a), "--budget", "300",
                 "--out", str(f1)]) == 0
    assert main(["fit", "--issues", str(b), "--budget", "300",
                 "--out", str(f2)]) == 0
    out = tmp_path / "rank"
    assert main(["rank", "--fits", f"first={f1}", f"second={f2}",
                 "--metric", "aic", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "first:" in printed and "second:" in printed

    meta = read_json(out / "run_metadata.json")
    assert meta["metric"] == "aic"
    assert meta["ira_percent"] is not None


def test_rank_puts_each_ungrouped_fit_dir_in_its_own_segment(tmp_path, two_projects):
    dirs = []
    for issues, name in zip(two_projects, ("fa", "fb")):
        dirs.append(tmp_path / name)
        assert main(["fit", "--issues", str(issues), "--budget", "300",
                     "--out", str(dirs[-1])]) == 0
    out = tmp_path / "rank"
    assert main(["rank", "--fits", *map(str, dirs), "--out", str(out)]) == 0
    meta = read_json(out / "run_metadata.json")
    assert meta["segments"] == ["fa", "fb"]
    assert isinstance(meta["ira_percent"], float)
    # compare pools the same ungrouped fits under one segment
    assert main(["compare", "--fits", *map(str, dirs), "--out", str(tmp_path / "cmp")]) == 0
    assert read_json(tmp_path / "cmp" / "run_metadata.json")["segments"] == ["all"]


def test_rank_puts_each_release_grouped_fit_dir_in_its_own_segment(tmp_path, two_projects):
    """A fit by releases records segment ``all`` for its series, as an
    ungrouped fit does."""
    releases = tmp_path / "releases.csv"
    releases.write_text(
        "name,start,end\n"
        "early,2021-01-01T00:00:00Z,2021-07-01T00:00:00Z\n"
        "late,2021-07-01T00:00:00Z,2022-06-01T00:00:00Z\n"
    )
    dirs = [tmp_path / "fa", tmp_path / "fb"]
    for issues, out in zip(two_projects, dirs):
        assert main(["fit", "--issues", str(issues), "--group-by", "releases",
                     "--releases", str(releases), "--min-faults", "10", "--models", "GO,MO",
                     "--budget", "100", "--out", str(out)]) == 0
    out = tmp_path / "rank"
    assert main(["rank", "--fits", *map(str, dirs), "--out", str(out)]) == 0
    assert read_json(out / "run_metadata.json")["segments"] == ["fa", "fb"]


@pytest.mark.parametrize("metadata", [False, True], ids=["no-metadata", "ungrouped"])
def test_rank_refuses_two_unlabelled_fit_dirs_of_one_name(tmp_path, capsys, metadata):
    """x/fit and y/fit would both be segment 'fit', pooling both series in
    one segment; labelled they are two, and compare pools them anyway.  An
    ungrouped fit records segment 'all', which falls back as no metadata
    does."""
    dirs = [tmp_path / "x" / "fit", tmp_path / "y" / "fit"]
    for fit, series in zip(dirs, ("ps", "qs")):
        fit.mkdir(parents=True)
        rows = [f"{series},{model},1,1,,1,{r2},1,1,1,true" for model, r2 in (("GO", 0.9), ("MO", 0.8))]
        (fit / "gof.csv").write_text("\n".join([",".join(GOF_COLUMNS), *rows]) + "\n")
        if metadata:
            (fit / "run_metadata.json").write_text(json.dumps({"series": {series: {"segment": "all"}}}))
    message = f"{dirs[0]} and {dirs[1]} would both be segment 'fit'; label them as SEGMENT=DIR"
    _refused_before_any_output(["rank", "--fits", *map(str, dirs)], tmp_path / "out", capsys, message)
    out = tmp_path / "rank"
    assert main(["rank", "--fits", f"a={dirs[0]}", f"b={dirs[1]}", "--out", str(out)]) == 0
    assert read_json(out / "run_metadata.json")["segments"] == ["a", "b"]
    assert main(["compare", "--fits", *map(str, dirs), "--out", str(tmp_path / "cmp")]) == 0


def fits_of_one_series(tmp_path, du_r2):
    """Three fit directories of one series each, whose GO rows hold r2 0.1,
    0.2 and 0.3: added left to right they make 0.6000000000000001, added
    right to left 0.6."""
    dirs = []
    for i, go_r2 in enumerate((0.1, 0.2, 0.3), 1):
        dirs.append(tmp_path / f"d{i}")
        dirs[-1].mkdir()
        rows = [f"s{i},{model},1,1,,1,{r2!r},1,1,1,true"
                for model, r2 in (("GO", go_r2), ("DU", du_r2))]
        (dirs[-1] / "gof.csv").write_text("\n".join([",".join(GOF_COLUMNS), *rows]) + "\n")
    return dirs


def test_compare_writes_the_same_bytes_for_fits_in_any_order(tmp_path):
    dirs = fits_of_one_series(tmp_path, 0.5)
    outs = tmp_path / "forward", tmp_path / "reversed"
    for out, order in zip(outs, (dirs, dirs[::-1])):
        assert main(["compare", "--fits", *map(str, order), "--out", str(out)]) == 0
    for name in ("comparison.csv", "dunn.csv", "summary.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_rank_gives_the_same_ranks_for_fits_in_any_order(tmp_path):
    """DU's three r2 values of 0.19999999999999998 average to themselves,
    which GO's mean only equals when it is correctly rounded."""
    dirs = fits_of_one_series(tmp_path, 0.19999999999999998)
    outs = tmp_path / "forward", tmp_path / "reversed"
    for out, order in zip(outs, (dirs, dirs[::-1])):
        assert main(["rank", "--fits", *(f"s={d}" for d in order), "--out", str(out)]) == 0
    assert (outs[0] / "ranking.csv").read_bytes() == (outs[1] / "ranking.csv").read_bytes()


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_no_verb_prints_help(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().out.lower()


def _run_leaving_unloaded(code: str, *modules: str) -> str:
    """Run ``code`` in a fresh interpreter, then fail if it loaded any of
    ``modules``; the standard output of ``code``."""
    src = str(Path(srgrowth.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    check = f"\nimport sys; loaded = set({modules!r}) & sys.modules.keys(); assert not loaded, loaded"
    run = subprocess.run(
        [sys.executable, "-c", code + check], env=env, check=True, stdout=subprocess.PIPE, text=True
    )
    return run.stdout


def test_cli_import_leaves_requests_unloaded():
    """Only fetching needs requests, so starting the CLI must not load it."""
    _run_leaving_unloaded("import srgrowth.cli", "requests")


@pytest.mark.parametrize(
    "module", ["srgrowth.stats", "srgrowth.records", "srgrowth.fitting", "srgrowth.pipeline"]
)
def test_cli_import_leaves_the_analysis_modules_unloaded(module):
    """The report rules the CLI needs at start-up live in reporting, so
    starting it loads none of the modules that only the verbs use."""
    _run_leaving_unloaded("import srgrowth.cli", module)


def test_cli_import_loads_only_what_every_verb_needs():
    """Of the package, starting the CLI loads only the modules that every
    verb uses, and it loads neither datetime nor dataclasses."""
    code = "import srgrowth.cli, sys; print(*sorted(m for m in sys.modules if m.startswith('srgrowth')))"
    loaded = _run_leaving_unloaded(code, "datetime", "dataclasses").split()
    assert loaded == ["srgrowth", "srgrowth.cli", "srgrowth.errors", "srgrowth.reporting"]


def test_fit_leaves_numpy_ma_unloaded(tmp_path, two_projects):
    """Every fit of alpha's 80 points and beta's 60 takes the profiled
    search, and the screened one where that fit ends unconverged or on a
    bound; neither search loads numpy.ma (np.unique would)."""
    a, b = two_projects
    out = tmp_path / "fit"
    code = (
        "from srgrowth.cli import main\n"
        f"assert main(['fit', '--issues', {str(a)!r}, {str(b)!r}, '--budget', '15360', "
        f"'--out', {str(out)!r}]) == 0"
    )
    _run_leaving_unloaded(code, "numpy.ma")
    assert len(list((out / "curves").glob("*.csv"))) == 2


def test_fit_takes_seed_and_budget_defaults_from_fitconfig(tmp_path):
    from srgrowth.fitting import FitConfig

    issues = write_issues(tmp_path / "small.json", 30)
    out = tmp_path / "fit"
    assert main(["fit", "--issues", str(issues), "--models", "GO,MO", "--out", str(out)]) == 0
    meta = read_json(out / "run_metadata.json")
    assert (meta["seed"], meta["budget"]) == (FitConfig().rng_seed, FitConfig().search_budget)


@pytest.mark.parametrize("verb", ["trend", "fit"])
def test_grouping_choices_and_min_faults_default_are_listed_in_help(capsys, verb):
    """The parser takes the attribute cuts and the --min-faults default from
    reporting, so its help still names them without the pipeline."""
    with pytest.raises(SystemExit) as exc:
        main([verb, "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "attribute:LOC,attribute:NOC,attribute:NOI,attribute:NOFA}" in text
    assert "(project,category,loc,noc,noi,nofa)" in text
    assert "(default 20)" in text


@pytest.mark.parametrize("verb", ["compare", "rank"])
def test_metric_choices_are_listed_in_help(capsys, verb):
    with pytest.raises(SystemExit) as exc:
        main([verb, "--help"])
    assert exc.value.code == 0
    assert "{r2,aic,bic,rse}" in capsys.readouterr().out


def test_package_import_leaves_numpy_unloaded():
    """The package resolves its exports lazily, so importing it loads no numpy."""
    _run_leaving_unloaded("import srgrowth", "numpy")


def test_ingest_verb_leaves_numpy_unloaded(tmp_path, two_projects):
    """ingest neither builds series nor fits, so it runs without numpy."""
    argv = ["ingest", "--issues", *map(str, two_projects), "--title-match",
            "--format", "csv,json", "--out", str(tmp_path / "ingest")]
    _run_leaving_unloaded(f"from srgrowth.cli import main; assert main({argv!r}) == 0", "numpy")
    assert (tmp_path / "ingest" / "summary.json").exists()


@pytest.mark.parametrize("verb", ["trend", "compare", "rank"])
def test_statistics_verbs_leave_numpy_unloaded(tmp_path, two_projects, verb):
    """trend, compare and rank neither fit nor evaluate a model, so they
    run without numpy."""
    if verb == "trend":
        args = ["--issues", *map(str, two_projects)]
    else:
        fits = tmp_path / "fit"
        assert main(["fit", "--issues", *map(str, two_projects), "--models", "GO,MO",
                     "--budget", "100", "--out", str(fits)]) == 0
        args = ["--fits", str(fits)]
    argv = [verb, *args, "--format", "csv,json", "--out", str(tmp_path / verb)]
    _run_leaving_unloaded(f"from srgrowth.cli import main; assert main({argv!r}) == 0", "numpy")
    assert (tmp_path / verb / "report.json").exists()


def test_package_min_faults_default_leaves_the_pipeline_unloaded():
    """The --min-faults default lives in reporting, so reading it from the
    package loads neither the issue pipeline nor datetime."""
    code = "import srgrowth; assert srgrowth.DEFAULT_MIN_FAULTS == 20"
    _run_leaving_unloaded(code, "srgrowth.pipeline", "datetime")


def test_package_record_exports_leave_numpy_unloaded():
    """The model ids, the static model table and the fit records live in
    the numpy-free records module."""
    names = ("ModelId, MODEL_ORDER, FitResult, GofScores, "
             "descriptor, ModelDescriptor, ShapeClass, classify")
    _run_leaving_unloaded(f"from srgrowth import {names}", "numpy")


def test_every_package_export_resolves():
    for name in srgrowth.__all__:
        assert getattr(srgrowth, name) is not None, name
    from srgrowth import fitting, models

    assert srgrowth.ModelId is models.ModelId
    assert srgrowth.FitResult is fitting.FitResult
    assert set(srgrowth.__all__) <= set(dir(srgrowth))
    with pytest.raises(AttributeError):
        srgrowth.no_such_export


def test_report_metadata_is_each_verbs_metadata_file(tmp_path, two_projects):
    a, b = two_projects
    runs = {
        "ingest": (["--issues", str(a), str(b)], "summary.json"),
        "trend": (["--issues", str(a), str(b)], "run_metadata.json"),
        "fit": (["--issues", str(a), str(b), "--models", "GO,MO", "--budget", "100"],
                "run_metadata.json"),
        "compare": (["--fits", str(tmp_path / "fit")], "run_metadata.json"),
        "rank": (["--fits", str(tmp_path / "fit")], "run_metadata.json"),
    }
    for verb, (args, meta_file) in runs.items():
        out = tmp_path / verb
        assert main([verb, *args, "--format", "csv,json", "--out", str(out)]) == 0
        meta = read_json(out / meta_file)
        assert meta["command"] == verb
        assert read_json(out / "report.json")["metadata"] == meta


@pytest.mark.parametrize("verb, reason", [
    ("trend", "only 1 observations; trend needs 2"),
    ("fit", "only 1 observations; fitting needs 3"),
])
def test_skipped_csv_rows_are_report_skipped(tmp_path, verb, reason):
    """A window with no faults is dropped, and one with a single fault is
    too short for either verb."""
    days = [*range(1, 31), 60]  # 30 issues in January, one in March
    solo = tmp_path / "solo.json"
    solo.write_text(json.dumps([
        {"id": i, "created_at": (T0 + timedelta(days=d)).isoformat(), "labels": ["bug"]}
        for i, d in enumerate(days)
    ]))
    releases = tmp_path / "releases.csv"
    releases.write_text(
        "name,start,end\n"
        "jan,2021-01-01T00:00:00Z,2021-02-01T00:00:00Z\n"
        "feb,2021-02-01T00:00:00Z,2021-03-01T00:00:00Z\n"
        "mar,2021-03-01T00:00:00Z,2021-04-01T00:00:00Z\n"
    )
    out = tmp_path / verb
    assert main([
        verb, "--issues", str(solo), "--releases", str(releases), "--group-by", "releases",
        "--min-faults", "1", "--format", "csv,json", "--out", str(out),
    ] + (["--models", "GO", "--budget", "50"] if verb == "fit" else [])) == 0

    with open(out / "skipped.csv", newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    assert rows == read_json(out / "report.json")["skipped"] == [
        {"name": "solo:feb", "reason": "only 0 faults (min 1)"},
        {"name": "solo:mar", "reason": reason},
    ]


@pytest.mark.parametrize("grouping", ["whole", "domain", "releases"])
def test_fit_writes_the_trend_tables_of_trend(tmp_path, two_projects, grouping):
    """fit's trend.csv, segments.csv and skipped.csv are trend's, and its
    series map is trend's plus each series' curve."""
    a, b = two_projects
    args = ["--issues", str(a), str(b)]
    if grouping == "domain":
        attrs = tmp_path / "attrs.csv"
        attrs.write_text("project,category,loc,noc,noi,nofa\n"
                         "alpha,C1,5000,50,400,200\n"
                         "beta,C2,50000,150,3000,1000\n")
        args += ["--group-by", "domain", "--attributes", str(attrs)]
    elif grouping == "releases":
        releases = tmp_path / "releases.csv"
        releases.write_text(
            "name,start,end\n"
            "early,2021-01-01T00:00:00Z,2021-07-01T00:00:00Z\n"
            "late,2021-07-01T00:00:00Z,2022-06-01T00:00:00Z\n"
        )
        # beta has 15 faults in the late window
        args += ["--group-by", "releases", "--releases", str(releases), "--min-faults", "20"]
    trend, fit = tmp_path / "trend", tmp_path / "fit"
    assert main(["trend", *args, "--out", str(trend)]) == 0
    assert main(["fit", *args, "--models", "GO,MO", "--budget", "100", "--out", str(fit)]) == 0

    tables = ["trend.csv", "skipped.csv"] + (["segments.csv"] if grouping == "domain" else [])
    for name in tables:
        assert (fit / name).read_bytes() == (trend / name).read_bytes(), name
    assert (fit / "segments.csv").exists() == (trend / "segments.csv").exists() == (
        grouping == "domain"
    )
    if grouping == "releases":
        assert "beta:late,only 15 faults (min 20)" in (trend / "skipped.csv").read_text()

    trend_series = read_json(trend / "run_metadata.json")["series"]
    fit_series = read_json(fit / "run_metadata.json")["series"]
    assert len(trend_series) >= 2
    assert {name: {**entry, "curve": fit_series[name]["curve"]}
            for name, entry in trend_series.items()} == fit_series


def test_compare_mean_rounds_as_numpy(tmp_path):
    """Ten r2 values of 0.1 add up to 0.9999999999999999 left to right, as
    Python 3.11's sum adds them, but to 1.0 in numpy's pairwise order."""
    fits = tmp_path / "fit"
    fits.mkdir()
    rows = [f"s{i},{model},1,1,,1,{r2!r},1,1,1,true"
            for i in range(10) for model, r2 in (("GO", 0.1), ("DU", 0.2 + i / 100))]
    (fits / "gof.csv").write_text("\n".join(["series,model,a,b,c,rss,r2,aic,bic,rse,converged",
                                             *rows]) + "\n")
    out = tmp_path / "cmp"
    assert main(["compare", "--fits", str(fits), "--out", str(out)]) == 0
    with open(out / "summary.csv", newline="", encoding="utf-8") as handle:
        means = {row["model"]: float(row["r2_mean"]) for row in csv.DictReader(handle)}
    assert means["GO"].hex() == np.mean([0.1] * 10).hex()


def test_no_report_json_without_format_json(tmp_path, two_projects):
    a, _ = two_projects
    out = tmp_path / "trend"
    assert main(["trend", "--issues", str(a), "--out", str(out)]) == 0
    assert (out / "run_metadata.json").exists()
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("verb, args", [
    ("fit", ["--models", "XX"]),
    ("trend", ["--group-by", "releases"]),
    ("ingest", []),
])
def test_failed_verb_removes_the_out_dir_it_made(tmp_path, two_projects, verb, args):
    issues = [] if verb == "ingest" else ["--issues", str(two_projects[0])]
    fresh, existing = tmp_path / "fresh" / "out", tmp_path / "existing"
    existing.mkdir()
    for out in (fresh, existing):
        assert main([verb, *issues, *args, "--out", str(out)]) == 2
    assert not fresh.parent.exists()  # nor the parent made for it
    assert existing.is_dir()  # it was there before the run


def test_failed_verb_keeps_an_out_dir_it_wrote_to(tmp_path, two_projects, monkeypatch):
    def failing_fit(*args, **kwargs):
        raise ValueError("fit failed")

    # cmd_fit imports fit_all from its module when it runs
    monkeypatch.setattr("srgrowth.fitting.fit_all", failing_fit)
    out = tmp_path / "fit"
    assert main(["fit", "--issues", str(two_projects[0]), "--out", str(out)]) == 2
    assert (out / "curves").is_dir()


@pytest.mark.parametrize("verb, args", [
    ("ingest", ["--issues", "x.json"]),
    ("trend", ["--issues", "x.ndjson"]),
    ("fit", ["--issues", "x.ndjson"]),
    ("compare", ["--fits", "fit"]),
    ("rank", ["--fits", "fit"]),
])
def test_unknown_format_is_a_usage_error_before_any_output(tmp_path, capsys, verb, args):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([verb, *args, "--format", "csv,xml", "--out", str(out)])
    assert exc.value.code == 2
    assert "unknown output formats ['xml']" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("verb", ["trend", "fit"])
@pytest.mark.parametrize("value", ["0", "-3", "1.5"])
def test_min_faults_below_one_is_a_usage_error_before_any_output(
    tmp_path, two_projects, capsys, verb, value
):
    """A window with no faults is dropped whatever the least count, so a
    least count below 1 would only be recorded in the metadata; a count
    that is no integer is refused too."""
    releases = tmp_path / "releases.csv"
    releases.write_text("name,start,end\nr1,2021-01-01T00:00:00Z,2022-01-01T00:00:00Z\n")
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([verb, "--issues", *map(str, two_projects), "--group-by", "releases",
              "--releases", str(releases), "--min-faults", value, "--out", str(out)])
    assert exc.value.code == 2
    reason = "invalid int value: '1.5'" if value == "1.5" else f"must be at least 1, got {value}"
    assert f"argument --min-faults: {reason}" in capsys.readouterr().err
    assert not out.exists()


def _refused_before_any_output(argv, out, capsys, message, status=2):
    assert main([*argv, "--out", str(out)]) == status
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("verb, what", [("ingest", "inputs"), ("trend", "series"), ("fit", "series")])
def test_two_inputs_of_one_name_are_refused(tmp_path, capsys, verb, what):
    """Both would write proj.ndjson, or both would be the series proj."""
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
    a = write_issues(tmp_path / "a" / "proj.json", 30)
    b = write_issues(tmp_path / "b" / "proj.ndjson", 25)
    argv = [verb, "--issues", str(a), str(b)]
    _refused_before_any_output(argv, tmp_path / "out", capsys, f"two {what} are named 'proj'")


def test_two_release_series_of_one_name_are_refused(tmp_path, capsys):
    """Project a's release b:c and project a:b's release c are both a:b:c."""
    a = write_issues(tmp_path / "a.json", 40)
    ab = write_issues(tmp_path / "a:b.json", 40)
    releases = tmp_path / "releases.csv"
    releases.write_text(
        "name,start,end\n"
        "c,2021-01-01T00:00:00Z,2021-04-01T00:00:00Z\n"
        "b:c,2021-04-01T00:00:00Z,2021-12-01T00:00:00Z\n"
    )
    argv = ["trend", "--issues", str(a), str(ab), "--group-by", "releases",
            "--releases", str(releases), "--min-faults", "1"]
    _refused_before_any_output(argv, tmp_path / "out", capsys, "two series are named 'a:b:c'")


def test_ingest_refuses_a_file_named_as_the_fetched_repo(tmp_path, capsys, monkeypatch):
    def fetch_not_expected(*args, **kwargs):
        raise AssertionError("fetched although the names clash")

    monkeypatch.setattr("srgrowth.pipeline.fetch_issues", fetch_not_expected)
    local = write_issues(tmp_path / "owner_name.json", 5)
    argv = ["ingest", "--issues", str(local), "--repo", "owner/name"]
    _refused_before_any_output(argv, tmp_path / "out", capsys, "two inputs are named 'owner_name'")


def test_fit_refuses_a_release_named_twice(tmp_path, two_projects, capsys):
    releases = tmp_path / "releases.csv"
    releases.write_text(
        "name,start,end\n"
        "r1,2021-01-01T00:00:00Z,2021-03-01T00:00:00Z\n"
        "r1,2021-03-01T00:00:00Z,2021-12-01T00:00:00Z\n"
    )
    argv = ["fit", "--issues", *map(str, two_projects), "--group-by", "releases",
            "--releases", str(releases)]
    _refused_before_any_output(argv, tmp_path / "out", capsys, "'r1' is named twice")


def test_fit_refuses_a_project_with_two_attribute_rows(tmp_path, two_projects, capsys):
    attrs = tmp_path / "attrs.csv"
    attrs.write_text(
        "project,category,loc,noc,noi,nofa\n"
        "alpha,C1,5000,50,500,100\n"
        "beta,C2,50000,200,5000,1000\n"
        "alpha,C3,500000,500,50000,10000\n"
    )
    argv = ["fit", "--issues", *map(str, two_projects), "--group-by", "domain",
            "--attributes", str(attrs)]
    _refused_before_any_output(argv, tmp_path / "out", capsys, "'alpha' has two rows")


def test_ingest_skips_an_infinite_id(tmp_path):
    raw = write_issues(tmp_path / "raw.json", 3)
    raw.write_text(raw.read_text().replace('"id": 2,', '"id": Infinity,'))
    out = tmp_path / "out"
    assert main(["ingest", "--issues", str(raw), "--out", str(out)]) == 0
    stats = read_json(out / "summary.json")["inputs"]["raw"]
    assert (stats["total"], stats["kept"]) == (2, 2)
    assert stats["parse_skip_notes"] == ["record 1: unreadable id inf"]


@pytest.mark.parametrize("option, name, text, fields", [
    ("--releases", "releases.csv", "name,start,end\nr1,2020-01-01T00:00:00Z\n", "fewer"),
    ("--attributes", "attrs.csv", "project,category,loc,noc,noi,nofa\na,C1\n", "fewer"),
    ("--fits", "gof.csv", ",".join(GOF_COLUMNS) + "\na,GO,1\n", "fewer"),
    ("--releases", "releases.csv",
     "name,start,end\nr1,2020-01-01T00:00:00Z,2021-01-01T00:00:00Z,2022-01-01T00:00:00Z\n",
     "more"),
    # a thousands separator splits LOC 5,000 into two fields
    ("--attributes", "attrs.csv", "project,category,loc,noc,noi,nofa\np,C1,5,000,50,500,100\n",
     "more"),
    ("--fits", "gof.csv", ",".join(GOF_COLUMNS) + "\na,GO,1,1,,1,0.5,1,1,1,true,1\n", "more"),
], ids=["releases", "attributes", "gof", "releases-long", "attributes-long", "gof-long"])
def test_a_short_csv_row_is_refused_with_its_file_and_line(
    tmp_path, two_projects, capsys, option, name, text, fields
):
    if option == "--fits":
        path = tmp_path / "fit" / name
        path.parent.mkdir()
        argv = ["compare", "--fits", str(path.parent)]
    else:
        path = tmp_path / name
        grouping = "releases" if option == "--releases" else "domain"
        argv = ["trend", "--issues", *map(str, two_projects), "--group-by", grouping,
                option, str(path)]
    path.write_text(text)
    message = f"{path}: line 2 has {fields} fields than the header"
    _refused_before_any_output(argv, tmp_path / "out", capsys, message)


@pytest.mark.parametrize("verb", ["trend", "fit"])
@pytest.mark.parametrize("grouping, option, text, message", [
    ("releases", None, None, "--group-by releases needs --releases"),
    ("releases", "--releases", "name,start,end\nr1,2020-01-01T00:00:00Z\n", "line 2 has fewer"),
    ("releases", "--releases",
     "name,start,end\nr1,2021-01-01T00:00:00Z,2021-06-01T00:00:00Z\n"
     "r2,2021-05-01T00:00:00Z,2021-09-01T00:00:00Z\n", "release windows 'r1' and 'r2' overlap"),
    ("releases", "--releases", "name,start,end\nr1,2021-06-01T00:00:00Z,2021-01-01T00:00:00Z\n",
     "release 'r1': start must precede end"),
    ("releases", "--releases", "name,start,end\nr1,soon,2021-01-01T00:00:00Z\n",
     "Invalid isoformat string"),
    ("domain", None, None, "--group-by domain needs --attributes"),
    ("domain", "--attributes", "project,category,loc,noc,noi,nofa\na,C9,1,1,1,1\n",
     "category must be C1..C8"),
    ("domain", "--attributes", "project,category,loc,noc,noi,nofa\na,C1,many,1,1,1\n",
     "side.csv: bad attribute row for 'a'"),
    ("attribute:LOC", "--attributes", "project,category,loc,noc,noi,nofa\na,C1,-5,1,1,1\n",
     "side.csv: bad attribute row for 'a': LOC must be nonnegative, got -5"),
], ids=["no-releases", "short-release-row", "overlap", "start-after-end", "bad-timestamp",
        "no-attributes", "bad-category", "non-integer-attribute", "negative-attribute"])
def test_a_bad_side_input_is_reported_before_any_issue_file_is_parsed(
    tmp_path, capsys, verb, grouping, option, text, message
):
    bad = tmp_path / "bad.ndjson"
    bad.write_text("{\n")
    argv = [verb, "--issues", str(bad), "--group-by", grouping]
    if option is not None:
        side = tmp_path / "side.csv"
        side.write_text(text)
        argv += [option, str(side)]
    _refused_before_any_output(argv, tmp_path / "out", capsys, message)


def test_a_bad_budget_is_reported_before_any_issue_file_is_parsed(tmp_path, capsys):
    bad = tmp_path / "bad.ndjson"
    bad.write_text("{\n")
    argv = ["fit", "--issues", str(bad), "--budget", "0"]
    _refused_before_any_output(argv, tmp_path / "out", capsys, "search_budget must be at least 1")


@pytest.fixture(scope="module")
def good_fit(tmp_path_factory):
    out = tmp_path_factory.mktemp("good") / "fit"
    issues = [write_issues(out.parent / f"{name}.json", 40) for name in ("alpha", "beta")]
    assert main(["fit", "--issues", *map(str, issues), "--models", "GO,MO",
                 "--budget", "100", "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("verb", ["compare", "rank"])
@pytest.mark.parametrize("meta", [
    [1, 2],
    {"grouping": "domain", "series": {"alpha": "C1"}},
    {"grouping": "domain", "series": {"alpha": {"segment": 5}}},
], ids=["not-an-object", "entry-not-an-object", "segment-not-a-string"])
def test_malformed_fit_metadata_is_refused(tmp_path, capsys, good_fit, verb, meta):
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "gof.csv").write_bytes((good_fit / "gof.csv").read_bytes())
    (bad / "run_metadata.json").write_text(json.dumps(meta))
    argv = [verb, "--fits", str(good_fit), str(bad)]
    message = f"{bad / 'run_metadata.json'}: not the run metadata of a fit"
    _refused_before_any_output(argv, tmp_path / "out", capsys, message)


@pytest.mark.parametrize("verb, message", [
    ("compare", "fit outputs contain no results"), ("rank", "no segments to rank"),
])
def test_fits_without_results_exit_three_before_any_output(tmp_path, capsys, verb, message):
    """A gof.csv with only its header is well formed, but holds no fit to
    compare or rank."""
    empty = tmp_path / "fit"
    empty.mkdir()
    (empty / "gof.csv").write_text(",".join(GOF_COLUMNS) + "\n")
    _refused_before_any_output([verb, "--fits", str(empty)], tmp_path / "out", capsys, message, 3)


@pytest.mark.parametrize("verb", ["compare", "rank"])
def test_a_fit_read_twice_is_refused(tmp_path, capsys, good_fit, verb):
    """One directory given twice would count each of its fits twice."""
    argv = [verb, "--fits", str(good_fit), str(good_fit)]
    message = f"the GO fit of series 'alpha' is in both {good_fit} and {good_fit}"
    _refused_before_any_output(argv, tmp_path / "out", capsys, message)


def test_rank_reads_one_directory_under_two_labels(tmp_path, good_fit):
    """Under two labels the same fits are two segments, each counted once."""
    out = tmp_path / "rank"
    assert main(["rank", "--fits", f"a={good_fit}", f"b={good_fit}", "--out", str(out)]) == 0
    assert read_json(out / "run_metadata.json")["ira_percent"] == 100.0


@pytest.mark.parametrize("verb", ["compare", "rank"])
def test_compare_and_rank_leave_the_pipeline_unloaded(tmp_path, good_fit, verb):
    """compare and rank read fit directories, never issues, so they run
    without the issue pipeline and without datetime; their records are
    named tuples, so they run without dataclasses too."""
    argv = [verb, "--fits", str(good_fit), "--format", "csv,json", "--out", str(tmp_path / verb)]
    code = f"from srgrowth.cli import main; assert main({argv!r}) == 0"
    _run_leaving_unloaded(code, "srgrowth.pipeline", "datetime", "dataclasses")
    assert (tmp_path / verb / "report.json").exists()


def test_compare_report_holds_the_summary_rows(tmp_path, good_fit):
    """report.json's summary is summary.csv, with null for an empty cell."""
    rows = read_csv(good_fit / "gof.csv", GOF_COLUMNS)
    rows[-1]["rse"] = "nan"  # leaves MO one rse value, so no rse_sd
    fit = tmp_path / "fit"
    fit.mkdir()
    with open(fit / "gof.csv", "w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, GOF_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    out = tmp_path / "compare"
    assert main(["compare", "--fits", str(fit), "--format", "csv,json", "--out", str(out)]) == 0
    summary = read_json(out / "report.json")["summary"]
    cells = [
        {key: fmt_float(v) if isinstance(v, float) else "" if v is None else str(v) for key, v in row.items()}
        for row in summary
    ]
    assert cells == read_csv(out / "summary.csv", SUMMARY_COLUMNS)
    assert [(row["model"], row["rse_sd"]) for row in summary] == [("GO", 0.0), ("MO", None)]
    assert all(row.keys() == set(SUMMARY_COLUMNS) for row in cells)
