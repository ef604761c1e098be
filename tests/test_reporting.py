# Report serialization: float formatting, CSV layouts, JSON determinism.

import json
import math
import re

import numpy as np

from srgrowth.fitting import FitConfig, FitResult, GofScores, fit_all
from srgrowth.models import (
    ASYMPTOTE_LOWER,
    RATE_LOWER,
    RATE_UPPER,
    SCALE_PER_POINT,
    ModelId,
    mean_value,
)
from srgrowth.reporting import (
    FORMULA_VARIANTS,
    GOF_COLUMNS,
    GOF_METRICS,
    TREND_COLUMNS,
    base_metadata,
    fmt_float,
    gof_record,
    gof_row,
    ranking_rows,
    read_gof_csv,
    read_json,
    slugify,
    trend_row,
    unique_slugs,
    write_csv,
    write_json,
)
from srgrowth.series import FailureSeries
from srgrowth.stats import RankingTable, laplace_factor


def result_of(model="GO", params=(10.0, 0.5), rss=1.5, converged=True):
    gof = GofScores(r2=0.9, aic=-12.5, bic=-10.0, rse=0.25)
    return FitResult(model=ModelId(model), params=tuple(params), rss=rss,
                     converged=converged, iterations_used=7, gof=gof)


def test_gof_scores_fields_are_the_gof_metrics_in_order():
    assert GofScores._fields == tuple(GOF_METRICS)


def test_fmt_float_round_trips_exactly():
    rng = np.random.default_rng(5)
    values = list(rng.normal(0.0, 1e3, 50)) + [1e-300, 1e300, 0.1, 2.0 / 3.0]
    for v in values:
        assert float(fmt_float(float(v))) == float(v)


def test_fmt_float_special_values():
    assert fmt_float(None) == ""
    assert fmt_float(float("nan")) == "nan"
    assert fmt_float(1.0) == "1"


def write_gof(path, pairs):
    write_csv(path, GOF_COLUMNS, [gof_row(gof_record(label, result)) for label, result in pairs])


def csv_lines(path):
    """Raw CSV records; bytes-level read so CRLF endings stay visible."""
    text = path.read_bytes().decode("utf-8")
    assert "\r\n" in text  # RFC-4180 line endings
    return text.strip("\r\n").split("\r\n")


def test_slugify():
    assert slugify("My Project:v2.0") == "My_Project_v2.0"
    assert slugify("  weird///name  ") == "weird_name"
    assert slugify("ok") == "ok"
    assert slugify("///") == "series"  # never an empty slug


def test_unique_slugs_disambiguate_collisions():
    slugs = unique_slugs(["a b", "A B", "c"])
    assert len(set(slugs.values())) == 3
    assert slugs["c"] == "c"
    assert unique_slugs(["a b", "a_b", "a:b"]) == {"a b": "a_b", "a_b": "a_b-2", "a:b": "a_b-3"}


def test_gof_csv_layout(tmp_path):
    path = tmp_path / "gof.csv"
    write_gof(path, [("proj", result_of())])
    lines = csv_lines(path)
    assert lines[0] == ",".join(GOF_COLUMNS)
    first = lines[1].split(",")
    assert first[0] == "proj"
    assert first[1] == "GO"
    assert first[4] == ""  # two-parameter model leaves c blank
    assert first[10] == "true"


def test_gof_csv_round_trip(tmp_path):
    path = tmp_path / "gof.csv"
    rows = [
        ("p1", result_of(params=(10.0, 2.0 / 3.0))),
        ("p1", result_of(model="HD", params=(1.0, 0.25, 1e-9), rss=0.0)),
        ("p2", result_of(model="LL", params=(float("nan"),) * 3,
                         rss=float("nan"), converged=False)),
    ]
    write_gof(path, rows)
    back = read_gof_csv(path)
    assert len(back) == 3
    for (label_a, res_a), (label_b, res_b) in zip(rows, back):
        assert label_a == label_b
        assert res_a.model == res_b.model
        assert res_a.converged == res_b.converged
        for pa, pb in zip(res_a.params, res_b.params):
            assert (math.isnan(pa) and math.isnan(pb)) or pa == pb
        assert (math.isnan(res_a.rss) and math.isnan(res_b.rss)) or (
            res_a.rss == res_b.rss
        )
        assert res_b.iterations_used == 0  # gof.csv does not hold it


def test_curve_csv_blank_for_failed_models(tmp_path):
    times = np.array([1.0, 2.0, 3.0, 4.0])
    series = FailureSeries(times=times, horizon=4.0, label="s")
    fitted = [float(v) for v in mean_value(ModelId.GO, result_of().params, times)]
    path = tmp_path / "curve.csv"
    # the fit command passes None cells for a model it could not fit
    write_csv(path, ["t", "observed", "GO", "LL"],
              zip(series.times, series.cumulative, fitted, [None] * series.n))
    lines = csv_lines(path)
    assert lines[0] == "t,observed,GO,LL"
    cells = lines[1].split(",")
    assert cells[3] == ""  # failed model leaves its column blank
    assert float(cells[2]) == fitted[0]


def test_trend_csv_layout(tmp_path):
    series = FailureSeries(times=np.array([1.0, 2.0, 3.0]), horizon=4.0, label="s")
    res = laplace_factor(series)
    path = tmp_path / "trend.csv"
    write_csv(path, TREND_COLUMNS, [trend_row("s", res)])
    lines = csv_lines(path)
    assert lines[0] == "series,n,horizon_days,laplace_u,growth_significant"
    assert lines[1] == "s,3,4,0,false"


def test_write_json_is_deterministic(tmp_path):
    payload = {"b": 2, "a": [3, 2, 1], "nested": {"z": 1, "y": 2}}
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_json(p1, payload)
    write_json(p2, json.loads(json.dumps(payload)))
    assert p1.read_bytes() == p2.read_bytes()
    keys = list(read_json(p1))
    assert keys == sorted(keys)


def test_write_json_serializes_model_ids(tmp_path):
    path = tmp_path / "m.json"
    write_json(path, {"model": ModelId.GO})
    assert read_json(path)["model"] == "GO"


def test_base_metadata_names_every_formula_variant():
    meta = base_metadata("fit")
    assert meta["command"] == "fit"
    variants = meta["variants"]
    for key in ("aic", "bic", "laplace", "kruskal_wallis", "dunn",
                "eta_squared", "inter_rater_agreement", "r2", "rse", "bounds", "start"):
        assert key in variants
        assert isinstance(variants[key], str) and variants[key]
    assert "timestamp" not in meta  # outputs must stay byte-reproducible


def test_bounds_variant_states_the_search_box():
    numbers = re.findall(r"\d+(?:\.\d+)?(?:e-?\d+)?", FORMULA_VARIANTS["bounds"])
    stated = {float(x) for x in numbers}
    assert stated == {ASYMPTOTE_LOWER, RATE_LOWER, RATE_UPPER, SCALE_PER_POINT}


def test_gof_csv_survives_fit_results_end_to_end(tmp_path):
    t = np.linspace(1.0, 60.0, 40)
    counts = np.asarray(mean_value(ModelId.GO, (80.0, 0.08), t))
    series = FailureSeries(times=t, horizon=60.0, label="sim", counts=counts)
    results = fit_all(series, models=("GO", "MO"), cfg=FitConfig(search_budget=400))
    path = tmp_path / "gof.csv"
    write_gof(path, [(series.label, r) for r in results])
    back = read_gof_csv(path)
    assert [r.model for _, r in back] == [ModelId.GO, ModelId.MO]
    for (_, original), (_, restored) in zip(
        [(series.label, r) for r in results], back
    ):
        assert original.params == restored.params  # .17g is lossless
        assert original.gof.aic == restored.gof.aic


def test_write_csv_formats_cells_by_type(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ("s", "i", "f", "b", "none", "model"),
              [{"s": "x,y", "i": 3, "f": 0.1, "b": False, "none": None, "model": ModelId.HD},
               ["z", 0, float("nan"), True, None, ModelId.GO]])
    assert csv_lines(path) == [
        "s,i,f,b,none,model",
        '"x,y",3,0.10000000000000001,false,,HD',
        "z,0,nan,true,,GO",
    ]


def test_ranking_rows_order_models_by_mean_rank():
    table = RankingTable(
        segments=("S", "M"),
        models=(ModelId.GO, ModelId.MO, ModelId.LL),
        ranks={"S": {ModelId.GO: 3, ModelId.MO: 1, ModelId.LL: 2},
               "M": {ModelId.GO: 3, ModelId.MO: 2, ModelId.LL: 1}},
        ira_percent=None,
    )
    # MO and LL tie on mean rank 1.5; the model id breaks the tie
    assert ranking_rows(table) == [
        [ModelId.LL, 2, 1],
        [ModelId.MO, 1, 2],
        [ModelId.GO, 3, 3],
    ]


def test_write_json_writes_non_finite_floats_as_null(tmp_path):
    path = tmp_path / "n.json"
    write_json(path, {"rss": float("nan"), "params": (1.5, float("inf")), "r2": 0.5})

    def reject(token):
        raise AssertionError(f"non-standard JSON token {token}")

    doc = json.loads(path.read_text(encoding="utf-8"), parse_constant=reject)
    assert doc == {"rss": None, "params": [1.5, None], "r2": 0.5}
