"""Tests of the benchmark's own parts: generator, checks, metric arithmetic.

Run from the repository root with ``python -m pytest bench``.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import checks
import corpus
import metrics
import run
import tracer


def _files(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", ["study", "long_series"])
def test_same_seed_writes_identical_corpus(tmp_path, workload):
    corpus.make_corpus(workload, 7, tmp_path / "a")
    corpus.make_corpus(workload, 7, tmp_path / "b")
    corpus.make_corpus(workload, 8, tmp_path / "c")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


def test_amount_of_work_does_not_depend_on_the_seed(tmp_path):
    sizes = []
    for seed in (1, 2):
        c = corpus.make_corpus("study", seed, tmp_path / str(seed))
        sizes.append((c.raw_issues, sorted(p.times.size for p in c.projects)))
    assert sizes[0] == sizes[1]
    assert min(sizes[0][1]) == 3  # the tiny project


def test_label_and_title_vocabularies_match_the_ingest_rules():
    def defect(text):
        return any(k in text.lower() for k in corpus.DEFECT_KEYWORDS)

    assert all(defect(label) and corpus.EXCLUSION not in label for label in corpus.DEFECT_LABELS)
    assert all(defect(title) for title in corpus.DEFECT_TITLES)
    assert not any(defect(text) for text in corpus.OTHER_LABELS + corpus.OTHER_TITLES + ("needs triage",))


def test_export_holds_every_generated_record(tmp_path):
    c = corpus.make_corpus("study", 3, tmp_path)
    spec = c.spec
    for project, path in zip(c.projects, c.exports):
        text = path.read_text()
        records = json.loads(text) if path.suffix == ".json" else [json.loads(x) for x in text.splitlines()]
        assert len(records) == project.records
        kept = project.times.size
        title_only = round(spec.title_share * kept)
        assert project.records == (kept + title_only + project.duplicates
                                   + round(spec.other_share * kept) + project.parse_skipped)


def test_release_series_cover_windows_with_enough_faults(tmp_path):
    c = corpus.Corpus("mining", corpus.WORKLOADS["mining"], [], [], windows=corpus._month_windows(2))
    start, end = c.windows[0][1], c.windows[0][2]
    times = [start, start + 86400] + [start + 3600 * i for i in range(2, 30)] + [end]
    c.projects.append(corpus.Project("p", "concave", "C1", np.array(sorted(times)), 0, 0, 0))
    series = c.expected_series()
    assert list(series) == ["p:r01"]
    t, horizon = series["p:r01"]
    assert t[0] == 1e-6 and horizon == 31.0 and t.size == 30


def test_laplace_u_hand_value():
    # mean 2.5, horizon 10, n 4: (2.5 - 5) / (10 * sqrt(1/48))
    assert checks.laplace_u(np.array([1.0, 2.0, 3.0, 4.0]), 10.0) == pytest.approx(-2.5 / (10 * math.sqrt(1 / 48)))


def test_parse_tree_counts_bare_nan_and_flags_ragged_csv(tmp_path):
    (tmp_path / "report.json").write_text('{"a": NaN, "b": [Infinity, 1.0, -Infinity]}')
    (tmp_path / "ok.csv").write_text("x,y\r\n1,2\r\n")
    (tmp_path / "bad.csv").write_text("x,y\r\n1\r\n")
    (tmp_path / "broken.json").write_text('{"a": ')
    problems, nonfinite = checks.parse_tree(tmp_path)
    assert nonfinite == 3
    assert [p.split(":")[0] for p in problems] == ["bad.csv", "broken.json"]


def test_tree_digest_follows_content_and_names(tmp_path):
    (tmp_path / "a.csv").write_text("1")
    first = checks.tree_digest(tmp_path)
    assert checks.tree_digest(tmp_path) == first
    (tmp_path / "a.csv").write_text("2")
    second = checks.tree_digest(tmp_path)
    (tmp_path / "a.csv").rename(tmp_path / "b.csv")
    assert len({first, second, checks.tree_digest(tmp_path)}) == 3


REFERENCE = {"s1": {"GO": 100.0, "HD": None}, "s2": {"GO": 50.0, "MO": 8.0}}


def test_fit_quality_is_neutral_on_the_reference():
    found = {"s1": {"GO": 100.0, "HD": math.nan}, "s2": {"GO": 50.0, "MO": 8.0}}
    assert metrics.fit_quality(found, REFERENCE) == (0, 1.0)


def test_fit_quality_counts_one_worsened_rss():
    found = {"s1": {"GO": 100.0, "HD": math.nan}, "s2": {"GO": 50.0 * (1 + 1e-6), "MO": 8.0}}
    worse, ratio = metrics.fit_quality(found, REFERENCE)
    assert worse == 1
    assert ratio == pytest.approx((1 + 1e-6) ** (1 / 3))


def test_fit_quality_tolerance_better_fits_and_lost_fits():
    within = {"s1": {"GO": 100.0 * (1 + 1e-10)}, "s2": {"GO": 25.0, "MO": 8.0}}
    worse, ratio = metrics.fit_quality(within, REFERENCE)
    assert worse == 0 and ratio == pytest.approx(0.5 ** (1 / 3))
    lost = {"s1": {"GO": math.nan}, "s2": {"GO": 50.0}}  # MO missing, GO lost
    assert metrics.fit_quality(lost, REFERENCE)[0] == 2


def test_quartile_spread_and_median():
    assert metrics.quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx((4.5 - 1.5) / 3.0)
    assert metrics.median([]) == 0.0
    assert metrics.gmean([2.0, 8.0]) == pytest.approx(4.0)


def _span(i, name, parent, start, end, **counts):
    span = {"id": i, "name": name, "parent": parent, "start_ns": int(start * 1e9), "end_ns": int(end * 1e9)}
    if counts:
        span["counts"] = counts
    return span


def test_layer_metrics_self_time_and_counts():
    spans = [
        _span(0, "cli.cmd_fit", None, 0.0, 10.0),
        _span(1, "pipeline.segment_releases", 0, 0.0, 1.0, dropped=2, series=3),
        _span(2, "pipeline.build_series", 1, 0.2, 0.7),
        _span(3, "fitting.fit_all", 0, 1.0, 9.0, fits=2, placeholders=1, at_bound=1),
        _span(4, "fitting.initial_search", 3, 1.0, 7.0, draws=100, points=1000),
        _span(5, "fitting.refine", 3, 7.0, 8.0, iterations=5, converged=True, search_rss=8.0, rss=2.0),
        _span(6, "fitting.refine", 3, 8.0, 8.5, iterations=3, converged=False, search_rss=2.0, rss=2.0),
        _span(7, "reporting.write_gof_csv", 0, 9.0, 9.5, bytes=300),
        _span(8, "pipeline.filter_defects", 0, 9.5, 9.75, **{"in": 4, "out": 1}),
    ]
    m = metrics.layer_metrics([spans])
    assert m["cli.self_s"] == pytest.approx(10.0 - 1.0 - 8.0 - 0.5 - 0.25)
    assert m["pipeline.series_s"] == pytest.approx(1.0)  # nested build_series not counted twice
    assert m["pipeline.self_s"] == pytest.approx(0.5 + 0.5 + 0.25)
    assert m["fitting.self_s"] == pytest.approx(0.5 + 6.0 + 1.0 + 0.5)
    assert m["fitting.search_s"] == pytest.approx(6.0)
    assert m["fitting.search_share"] == pytest.approx(0.6)
    assert m["fitting.search_point_evals_per_s"] == pytest.approx(1000 / 6.0)
    assert m["fitting.refine_s"] == pytest.approx(1.5)
    assert m["fitting.refine_iterations"] == 8
    assert m["fitting.refine_converged_ratio"] == 0.5
    assert m["fitting.refine_rss_gain_gmean"] == pytest.approx(2.0)
    assert (m["fitting.placeholder_fits"], m["fitting.at_bound_params"]) == (1, 1)
    assert m["pipeline.segments_dropped"] == 2
    assert m["pipeline.filter_kept_ratio"] == 0.25
    assert m["reporting.write_s"] == pytest.approx(0.5) and m["reporting.bytes_written"] == 300
    assert m["models.self_s"] == 0.0


def test_recorder_nests_spans_and_passes_results_through(tmp_path):
    recorder = tracer.Recorder("run-1")

    def inner(x):
        return x + 1

    traced_inner = recorder.wrap("models.inner", inner)
    outer = recorder.wrap("fitting.outer", lambda x: traced_inner(x) * 2)
    assert outer(1) == 4
    assert [(s["name"], s["parent"]) for s in recorder.spans] == [("fitting.outer", None), ("models.inner", 0)]
    recorder.write(tmp_path / "spans.jsonl")
    lines = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    assert {line["run"] for line in lines} == {"run-1"}
    assert all(line["start_ns"] <= line["end_ns"] for line in lines)


def test_benchmark_json_names_the_metrics_and_workloads():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.VERBS) == set(corpus.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_quality_reference_covers_every_fitting_workload():
    reference = json.loads(run.QUALITY.read_text())
    fitting = {w for w, verbs in run.VERBS.items() if "fit" in verbs}
    assert set(reference) == fitting
    for workload in fitting:
        assert all(set(models) == set(checks.MODELS) for models in reference[workload].values())
