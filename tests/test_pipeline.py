# Issue parsing, defect filtering, series construction, release
# segmentation and attribute classification.

import json
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from srgrowth.errors import EmptySeriesError, ParseError
from srgrowth.pipeline import (
    DEFAULT_MIN_FAULTS,
    DEFECT_KEYWORDS,
    EXCLUSION_KEYWORDS,
    SECONDS_PER_DAY,
    TIME_EPSILON,
    IssueRecord,
    ReleaseWindow,
    _decode_line,
    _ndjson_line,
    build_series,
    classify_attribute,
    filter_defects,
    issue_to_json,
    load_attributes_csv,
    load_releases_csv,
    parse_issues,
    parse_timestamp,
    segment_releases,
)

UTC = timezone.utc
T0 = datetime(2021, 3, 1, tzinfo=UTC)


def issue(i, days=0.0, labels=("bug",), title="something broke", state="open"):
    return IssueRecord(
        id=i,
        created_at=T0 + timedelta(days=days),
        labels=tuple(labels),
        title=title,
        state=state,
    )


def raw(i, created="2021-03-01T00:00:00Z", labels=("bug",), **extra):
    d = {
        "id": i,
        "created_at": created,
        "labels": [{"name": name} for name in labels],
        "title": "something broke",
        "state": "open",
    }
    d.update(extra)
    return d


# ---------------------------------------------------------------------------
# timestamp parsing
# ---------------------------------------------------------------------------


def test_parse_timestamp_zulu_suffix():
    ts = parse_timestamp("2021-03-01T12:30:00Z")
    assert ts == datetime(2021, 3, 1, 12, 30, tzinfo=UTC)


def test_parse_timestamp_offset_normalized_to_utc():
    ts = parse_timestamp("2021-03-01T14:00:00+02:00")
    assert ts == datetime(2021, 3, 1, 12, 0, tzinfo=UTC)
    assert ts.tzinfo == UTC


def test_parse_timestamp_naive_assumed_utc():
    ts = parse_timestamp("2021-03-01T12:00:00")
    assert ts.tzinfo == UTC


def test_parse_timestamp_garbage_raises():
    with pytest.raises(ValueError):
        parse_timestamp("not-a-date")


# ---------------------------------------------------------------------------
# document parsing
# ---------------------------------------------------------------------------


def test_parse_issues_json_array():
    doc = json.dumps([raw(2, "2021-03-02T00:00:00Z"), raw(1)])
    result = parse_issues(doc)
    assert [r.id for r in result.records] == [1, 2]  # sorted by time then id
    assert result.skipped == []


def test_parse_issues_ndjson():
    doc = "\n".join(json.dumps(raw(i)) for i in (3, 1, 2)) + "\n"
    result = parse_issues(doc)
    assert sorted(r.id for r in result.records) == [1, 2, 3]


def test_parse_issues_ndjson_skips_blank_lines():
    doc = json.dumps(raw(1)) + "\n\n" + json.dumps(raw(2)) + "\n"
    result = parse_issues(doc)
    assert len(result.records) == 2


@pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\u0085"])
def test_parse_issues_ndjson_keeps_unicode_line_separators_in_strings(separator):
    # JSON allows these unescaped inside a string, and str.splitlines
    # would break the line at each of them
    title = f"crash{separator}on save"
    doc = "\n".join(
        json.dumps(raw(i, title=title), ensure_ascii=False) for i in (1, 2)
    ) + "\r\n"
    result = parse_issues(doc)
    assert [r.title for r in result.records] == [title, title]
    assert result.skipped == []
    assert parse_issues(json.dumps([raw(1, title=title)], ensure_ascii=False)).records == (
        result.records[:1]
    )


def test_parse_issues_accepts_bytes():
    doc = json.dumps([raw(1)]).encode("utf-8")
    assert len(parse_issues(doc).records) == 1


def test_parse_issues_label_forms():
    doc = json.dumps([
        {"id": 1, "created_at": "2021-03-01T00:00:00Z",
         "labels": ["bug", {"name": "ui"}], "title": "t"},
    ])
    (rec,) = parse_issues(doc).records
    assert rec.labels == ("bug", "ui")


def test_parse_issues_records_skip_notes():
    doc = json.dumps([
        raw(1),
        {"created_at": "2021-03-01T00:00:00Z", "labels": []},      # no id
        {"id": 3, "created_at": "yesterday-ish", "labels": []},     # bad time
    ])
    result = parse_issues(doc)
    assert [r.id for r in result.records] == [1]
    assert len(result.skipped) == 2


@pytest.mark.parametrize("labels", [5, "bug", {"name": "bug"}], ids=["int", "str", "dict"])
def test_parse_issues_skips_a_record_whose_labels_are_not_a_list(labels):
    """An int used to raise TypeError, a string became one label per
    character and a dict one label per key; each record is skipped now."""
    doc = json.dumps([{**raw(1), "labels": labels}, raw(2)])
    result = parse_issues(doc)
    assert [r.id for r in result.records] == [2]
    assert len(result.skipped) == 1 and "labels" in result.skipped[0]


def test_parse_issues_duplicate_ids_keep_first():
    doc = json.dumps([
        raw(7, "2021-03-01T00:00:00Z", title="first"),
        raw(7, "2021-03-05T00:00:00Z", title="second"),
    ])
    result = parse_issues(doc)
    assert len(result.records) == 1
    assert result.records[0].created_at == T0
    assert len(result.skipped) == 1


def test_parse_issues_corrupt_array_reports_byte_offset():
    doc = '[{"id": 1, "created_at": "2021-03-01T00:00:00Z", "labels": []}, {"id": '
    with pytest.raises(ParseError) as err:
        parse_issues(doc)
    assert err.value.offset is not None
    assert err.value.offset >= doc.index("{\"id\": ", 1)


def test_parse_issues_corrupt_ndjson_offset_counts_bytes_not_chars():
    # A multibyte title in line one shifts byte offsets past character
    # offsets; the error position for line two must be byte-based.
    line1 = json.dumps(raw(1, title="périphérique"), ensure_ascii=False)
    doc = line1 + "\n{\"id\": oops}\n"
    with pytest.raises(ParseError) as err:
        parse_issues(doc)
    assert err.value.offset is not None
    expected_line_start = len(line1.encode("utf-8")) + 1
    assert err.value.offset >= expected_line_start


BOM_INPUTS = {
    "array": json.dumps([raw(2, "2021-03-02T00:00:00Z"), raw(1)]),
    "ndjson": "\n".join(json.dumps(raw(i)) for i in (3, 1, 2)) + "\n",
    "releases": "name,start,end\nr1,2021-03-01T00:00:00Z,2021-06-01T00:00:00Z\n",
    "attributes": "project,category,loc,noc,noi,nofa\nalpha,C3,120000,250,1500,800\n",
}


@pytest.mark.parametrize("kind", sorted(BOM_INPUTS))
def test_a_leading_byte_order_mark_is_skipped(tmp_path, kind):
    """Excel's "CSV UTF-8" and some exporters start a file with a UTF-8 BOM."""
    text = BOM_INPUTS[kind]
    if kind in ("array", "ndjson"):
        plain = parse_issues(text)
        assert len(plain.records) >= 2
        assert parse_issues("\ufeff" + text) == plain
        assert parse_issues(("\ufeff" + text).encode("utf-8")) == plain
        return
    load = load_releases_csv if kind == "releases" else load_attributes_csv
    path = tmp_path / f"{kind}.csv"
    path.write_text(text, encoding="utf-8")
    plain = load(path)
    path.write_text(text, encoding="utf-8-sig")
    assert path.read_bytes().startswith(b"\xef\xbb\xbf")
    assert load(path) == plain


def test_parse_issues_offset_counts_the_byte_order_mark():
    doc = ("\ufeff" + json.dumps(raw(1)) + "\n{\"id\": oops}\n").encode("utf-8")
    with pytest.raises(ParseError) as err:
        parse_issues(doc)
    assert err.value.offset == doc.index(b"oops")


def test_issue_round_trips_through_json():
    rec = issue(11, days=2.5, labels=("bug", "ui"), state="closed")
    doc = json.dumps([issue_to_json(rec)])
    (back,) = parse_issues(doc).records
    assert back == rec


# a newline, the separators str.splitlines breaks at, NUL, quotes and a
# backslash, next to ordinary and multi-byte characters
tricky_text = st.text(st.sampled_from(
    ["a", "Z", " ", "\n", "\r", "\u2028", "\u2029", "\x85", "\0", '"', "'", "\\", "\u00e9", "\U0001f41b"]
)) | st.text()
issue_records = st.builds(
    IssueRecord,
    id=st.integers(-(2**200), 2**200) | st.sampled_from([2**63, 2**64, -(2**63) - 1]),
    created_at=st.datetimes(
        datetime(1970, 1, 2),
        datetime(2100, 1, 1),
        timezones=st.integers(-(24 * 60 - 1), 24 * 60 - 1).map(
            lambda minutes: timezone(timedelta(minutes=minutes))
        ),
    ),
    labels=st.lists(tricky_text, max_size=3).map(tuple),
    title=tricky_text,
    state=tricky_text,
)


@settings(max_examples=200, deadline=None)
@given(
    records=st.lists(issue_records, max_size=5, unique_by=lambda r: r.id),
    ensure_ascii=st.booleans(),
)
def test_any_issue_record_round_trips_through_both_forms(records, ensure_ascii):
    """issue_to_json's output, as one array or as NDJSON lines, parses back
    to the same records, sorted by creation time and then id."""
    objects = [issue_to_json(r) for r in records]
    documents = (
        json.dumps(objects, ensure_ascii=ensure_ascii),
        "".join(json.dumps(o, ensure_ascii=ensure_ascii) + "\n" for o in objects),
    )
    expected = sorted(records, key=lambda r: (r.created_at, r.id))
    for document in documents:
        parsed = parse_issues(document.encode("utf-8"))
        assert parsed.skipped == []
        assert parsed.records == expected


# lone surrogates and the control characters json escapes as \uXXXX or by
# name, next to the text of the round-trip test
ndjson_text = tricky_text | st.text(st.sampled_from(
    ["\ud800", "\udfff", "\udbff", "\udc00", "\x01", "\x08", "\t", "\x0c", "\x1f", "\x7f", "a", '"', "\\"]
))


@settings(max_examples=300, deadline=None)
@given(
    record=issue_records,
    labels=st.lists(ndjson_text, max_size=3).map(tuple),
    title=ndjson_text,
    state=ndjson_text,
)
@example(
    record=issue(2**70, days=0.123456789),
    labels=("\ud800", "a\u2028b"),
    title='say "hi"\\',
    state="\x00\x7f\u00e9",
)
def test_ndjson_line_is_json_dumps_of_issue_to_json(record, labels, title, state):
    """ingest's writer builds each line as json.dumps of issue_to_json does,
    microsecond timestamps, large ids and every escape included."""
    record = record._replace(labels=labels, title=title, state=state)
    assert _ndjson_line(record) == json.dumps(issue_to_json(record)) + "\n"


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | tricky_text,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(tricky_text, inner, max_size=3),
    max_leaves=8,
)
json_whitespace = st.text(st.sampled_from(" \t\r\n"), max_size=3)


@settings(max_examples=300, deadline=None)
@given(
    value=json_values,
    indent=st.none() | st.integers(0, 2),
    cut=st.integers(0, 2),
    bom=st.booleans(),
    lead=json_whitespace,
    tail=json_whitespace,
    garbage=st.sampled_from(["", "x", "}", "{}", "1", '"a"', "\ufeff", "\x0b"]) | st.text(max_size=3),
)
def test_decode_line_matches_json_loads(value, indent, cut, bom, lead, tail, garbage):
    """One line decodes to what json.loads gives, or fails with its message
    and position: a leading BOM, trailing garbage and whitespace inside,
    before and after the value, with up to two characters cut off it."""
    text = json.dumps(value, indent=indent)
    line = "\ufeff" * bom + lead + text[: len(text) - cut] + tail + garbage
    try:
        expected = json.loads(line)
    except json.JSONDecodeError as exc:
        with pytest.raises(json.JSONDecodeError) as err:
            _decode_line(line)
        assert (err.value.msg, err.value.pos) == (exc.msg, exc.pos)
    else:
        assert _decode_line(line) == expected


@pytest.mark.parametrize("form", ["array", "ndjson"])
def test_parse_issues_skips_ids_that_are_not_integers(form):
    """A bool, a non-integral or a non-finite number is no id, nor a string
    that is more than ASCII digits; an int, an integral float and a string
    of ASCII digits are."""
    bad = ["true", "1.7", "2.9", "Infinity", "-Infinity", "NaN", '"1.5"', "null", "[3]"]
    bad += ['"1_000"', '" 12 "', '"+7"', '"-3"', '"\u0663"']
    good = {"3": 3, "4.0": 4, "-5": -5, '"6"': 6, "1e20": 10**20}
    lines = [
        f'{{"id": {token}, "created_at": "2021-03-01T00:00:00Z", "labels": ["bug"]}}'
        for token in [*bad, *good]
    ]
    document = "[" + ",".join(lines) + "]" if form == "array" else "\n".join(lines)
    result = parse_issues(document)
    assert [r.id for r in result.records] == sorted(good.values())
    assert len(result.skipped) == len(bad)
    assert all("unreadable id" in note for note in result.skipped)


# ---------------------------------------------------------------------------
# defect filtering
# ---------------------------------------------------------------------------


def test_filter_keeps_keyword_labels_case_insensitive():
    kept = filter_defects([
        issue(1, labels=("BUG",)),
        issue(2, labels=("type: Error",)),
        issue(3, labels=("enhancement",)),
        issue(4, labels=("regression-fault",)),
    ])
    assert [r.id for r in kept] == [1, 2, 4]


def test_filter_exclusion_beats_keyword():
    kept = filter_defects([
        issue(1, labels=("bug", "duplicate")),
        issue(2, labels=("bug", "DUPLICATED")),
        issue(3, labels=("bug",)),
    ])
    assert [r.id for r in kept] == [3]


def test_filter_title_matching_is_opt_in():
    issues = [
        issue(1, labels=("question",), title="Error when saving"),
        issue(2, labels=("question",), title="add dark mode"),
    ]
    assert filter_defects(issues) == []
    kept = filter_defects(issues, include_title=True)
    assert [r.id for r in kept] == [1]


def test_filter_title_never_applies_exclusions():
    # Exclusion keywords look at labels only; a title mentioning
    # duplication does not veto a labeled defect.
    issues = [issue(1, labels=("bug",), title="duplicated rows in export")]
    assert len(filter_defects(issues, include_title=True)) == 1
    assert len(filter_defects(issues)) == 1


def test_filter_is_idempotent():
    issues = [
        issue(1, labels=("bug",)),
        issue(2, labels=("fault", "duplicate")),
        issue(3, labels=("docs",)),
    ]
    once = filter_defects(issues)
    twice = filter_defects(once)
    assert once == twice


def reference_filter(issues, include_title):
    """The defect filter by its definition: nested scans over lowered labels."""
    kept, excluded = [], []
    for rec in issues:
        lowered = [label.lower() for label in rec.labels]
        matched = any(k in label for k in DEFECT_KEYWORDS for label in lowered) or (
            include_title and any(k in rec.title.lower() for k in DEFECT_KEYWORDS)
        )
        if matched:
            vetoed = any(e in label for e in EXCLUSION_KEYWORDS for label in lowered)
            (excluded if vetoed else kept).append(rec)
    return kept, excluded


# keywords, their halves, and pieces whose case mappings are not one ASCII
# letter to another: the Kelvin sign lowers to "k", dotted capital I to "i"
# plus a combining dot, and capital sigma to a final or a medial sigma by
# what stands around it
FILTER_PIECES = [
    "bug", "BU", "g", "Err", "or", "fAiL", "fault", "DEFECT", "dup", "licat", "DUPLICATE",
    "\u212a", "k", "\u0130", "i\u0307", "\u03a3", "\u03c3", "\u03c2", "A", "'", " ", "",
]
filter_terms = st.lists(st.sampled_from(FILTER_PIECES), max_size=3).map("".join)


@st.composite
def filter_cases(draw):
    label = st.lists(st.sampled_from([*FILTER_PIECES, "\0"]), max_size=3).map("".join)
    records = [
        issue(i, labels=draw(st.lists(label, max_size=3)), title=draw(filter_terms))
        for i in range(draw(st.integers(0, 8)))
    ]
    return records, draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(case=filter_cases())
# no match spans two labels
@example(case=([issue(0, labels=("BU", "g")), issue(1, labels=("dup", "licat", "bug"))], False))
def test_filter_matches_its_definition(case):
    records, include_title = case
    excluded = []
    kept = filter_defects(records, include_title=include_title, excluded=excluded)
    assert (kept, excluded) == reference_filter(records, include_title)
    assert filter_defects(records, include_title=include_title) == kept


def test_filter_fifty_issue_composition():
    """50 issues, 30 with defect labels, 5 of those also marked as
    duplicates: exactly 25 survive."""
    issues = []
    for i in range(50):
        if i < 30:
            labels = ("bug", "duplicate") if i < 5 else ("bug",)
        else:
            labels = ("enhancement",)
        issues.append(issue(i, days=float(i), labels=labels))
    kept = filter_defects(issues)
    assert len(kept) == 25


# ---------------------------------------------------------------------------
# series construction
# ---------------------------------------------------------------------------


def test_build_series_days_from_first_issue():
    series = build_series([issue(1, 0.0), issue(2, 1.5), issue(3, 10.0)])
    assert_allclose(series.times, [1e-6, 1.5, 10.0])
    assert series.horizon == 10.0
    assert series.n == 3
    assert list(series.cumulative) == [1.0, 2.0, 3.0]


def test_build_series_zero_time_nudged_positive():
    """A second issue 10 ms after the first is 1.16e-7 days in, under the
    1e-6 floor that the first one gets; it is raised to the floor too, so
    the times stay in order."""
    ten_ms = 0.01 / SECONDS_PER_DAY
    series = build_series([issue(1, 0.0), issue(2, ten_ms), issue(3, 1.0), issue(4, 4.0)])
    assert list(series.times) == [1e-6, 1e-6, 1.0, 4.0]


def test_build_series_window_clips_half_open():
    window = ReleaseWindow(name="r1", start=T0 + timedelta(days=1),
                           end=T0 + timedelta(days=3))
    series = build_series(
        [issue(1, 0.5), issue(2, 1.0), issue(3, 2.9), issue(4, 3.0)],
        window=window,
    )
    # day 0.5 is before the window, day 3.0 is exactly the exclusive end
    assert series.n == 2
    assert_allclose(series.times, [1e-6, 1.9])  # relative to window start
    assert series.horizon == 2.0  # window span, not last issue
    assert series.label == "r1"


def test_build_series_empty_input_raises():
    with pytest.raises(EmptySeriesError):
        build_series([])
    window = ReleaseWindow(name="r", start=T0, end=T0 + timedelta(days=1))
    with pytest.raises(EmptySeriesError):
        build_series([issue(1, 5.0)], window=window)


def test_build_series_label_override():
    series = build_series([issue(1, 1.0)], label="projectX")
    assert series.label == "projectX"


def test_release_window_validates_order():
    with pytest.raises(ValueError):
        ReleaseWindow(name="bad", start=T0, end=T0)


# ---------------------------------------------------------------------------
# release segmentation
# ---------------------------------------------------------------------------


def window(name, d0, d1):
    return ReleaseWindow(name=name, start=T0 + timedelta(days=d0),
                         end=T0 + timedelta(days=d1))


def test_segment_releases_min_fault_cutoff():
    """A window holding 19 issues drops, a window holding 20 stays."""
    assert DEFAULT_MIN_FAULTS == 20
    issues = [issue(i, days=0.5 + i * 0.1) for i in range(19)]          # w1
    issues += [issue(100 + i, days=10.5 + i * 0.1) for i in range(20)]  # w2
    outcome = segment_releases(issues, [window("w1", 0, 10), window("w2", 10, 20)])
    assert [s.label for s in outcome.series] == ["w2"]
    assert outcome.dropped == [("w1", 19)]
    assert outcome.series[0].n == 20


def test_segment_releases_empty_window_reported():
    issues = [issue(i, days=1.0 + i * 0.01) for i in range(25)]
    outcome = segment_releases(issues, [window("used", 0, 5), window("empty", 5, 9)])
    assert [s.label for s in outcome.series] == ["used"]
    assert ("empty", 0) in outcome.dropped


def test_segment_releases_rejects_overlap():
    with pytest.raises(ValueError):
        segment_releases([issue(1, 1.0)], [window("a", 0, 5), window("b", 4, 9)])


def test_load_releases_csv_refuses_overlapping_windows(tmp_path):
    path = tmp_path / "releases.csv"
    path.write_text(
        "name,start,end\n"
        "late,2021-03-01T00:00:00Z,2021-09-01T00:00:00Z\n"
        "early,2021-01-01T00:00:00Z,2021-03-02T00:00:00Z\n"
    )
    with pytest.raises(ValueError, match=f"{path}: release windows 'early' and 'late' overlap"):
        load_releases_csv(path)


def test_segment_releases_counts_partition_the_union():
    """Issues inside the union of windows appear in exactly one release."""
    issues = [issue(i, days=i * 0.37) for i in range(120)]
    windows = [window("a", 0, 10), window("b", 10, 25), window("c", 30, 40)]
    outcome = segment_releases(issues, windows, min_faults=1)
    union_count = sum(
        1
        for r in issues
        if any(w.start <= r.created_at < w.end for w in windows)
    )
    assert sum(s.n for s in outcome.series) == union_count


def test_segment_releases_times_relative_to_window_start():
    issues = [issue(i, days=10.25 + i * 0.25) for i in range(30)]
    outcome = segment_releases(issues, [window("w", 10, 20)], min_faults=1)
    (series,) = outcome.series
    assert_allclose(series.times[0], 0.25)
    assert series.horizon == 10.0


@st.composite
def issues_and_windows(draw):
    """Shuffled issues on a coarse half-day grid, so timestamps repeat and
    fall exactly on window bounds, and non-overlapping windows cut from
    the same grid, some of them back to back."""
    days = draw(st.lists(st.integers(0, 40), max_size=60))
    ids = draw(st.permutations(range(len(days))))
    issues = [issue(i, days=d / 2.0) for i, d in zip(ids, days)]
    cuts = sorted(draw(st.sets(st.integers(-2, 42), min_size=2, max_size=8)))
    windows = [
        window(f"w{k}", lo / 2.0, hi / 2.0)
        for k, (lo, hi) in enumerate(zip(cuts, cuts[1:]))
        if draw(st.booleans())
    ]
    return issues, draw(st.permutations(windows))


@settings(max_examples=200, deadline=None)
@given(case=issues_and_windows(), min_faults=st.sampled_from([0, 1, 2, 5]))
def test_segment_releases_matches_the_definition(case, min_faults):
    issues, windows = case
    outcome = segment_releases(issues, windows, min_faults=min_faults)

    expected_series = []
    expected_dropped = []
    for w in sorted(windows, key=lambda w: w.start):
        inside = sorted(
            (r for r in issues if w.start <= r.created_at < w.end),
            key=lambda r: (r.created_at, r.id),
        )
        if len(inside) < min_faults or not inside:
            expected_dropped.append((w.name, len(inside)))
            continue
        times = [(r.created_at - w.start).total_seconds() / SECONDS_PER_DAY for r in inside]
        horizon = (w.end - w.start).total_seconds() / SECONDS_PER_DAY
        expected_series.append((w.name, horizon, [max(t, TIME_EPSILON) for t in times]))

    assert outcome.dropped == expected_dropped
    assert [(s.label, s.horizon, list(s.times)) for s in outcome.series] == expected_series


def test_segment_releases_bounds_and_equal_timestamps():
    """A record exactly at a window's end opens the next window; records
    sharing a timestamp are all counted."""
    issues = [issue(3, days=5.0), issue(1, days=0.0), issue(2, days=5.0), issue(4, days=2.0)]
    outcome = segment_releases(
        issues, [window("b", 5, 9), window("a", 0, 5)], min_faults=1
    )
    assert [(s.label, list(s.times)) for s in outcome.series] == [
        ("a", [TIME_EPSILON, 2.0]),
        ("b", [TIME_EPSILON, TIME_EPSILON]),
    ]
    assert outcome.dropped == []


# ---------------------------------------------------------------------------
# attribute classification
# ---------------------------------------------------------------------------


def test_classify_attribute_loc_boundaries():
    assert classify_attribute("LOC", 9_999) == "S"
    assert classify_attribute("LOC", 10_000) == "M"
    assert classify_attribute("LOC", 100_000) == "M"
    assert classify_attribute("LOC", 100_001) == "L"


def test_classify_attribute_other_metrics():
    assert classify_attribute("NOC", 99) == "S"
    assert classify_attribute("NOC", 100) == "M"
    assert classify_attribute("NOC", 300) == "M"
    assert classify_attribute("NOC", 301) == "L"
    assert classify_attribute("NOI", 999) == "S"
    assert classify_attribute("NOI", 1_000) == "M"
    assert classify_attribute("NOI", 10_000) == "M"
    assert classify_attribute("NOI", 10_001) == "L"
    assert classify_attribute("NOFA", 499) == "S"
    assert classify_attribute("NOFA", 500) == "M"
    assert classify_attribute("NOFA", 5_000) == "M"
    assert classify_attribute("NOFA", 5_001) == "L"


def test_classify_attribute_case_and_unknown():
    assert classify_attribute("loc", 50) == "S"
    with pytest.raises(ValueError):
        classify_attribute("STARS", 10)


# ---------------------------------------------------------------------------
# sidecar CSV loaders
# ---------------------------------------------------------------------------


def test_load_releases_csv(tmp_path):
    path = tmp_path / "releases.csv"
    path.write_text(
        "name,start,end\n"
        "r1,2021-03-01T00:00:00Z,2021-06-01T00:00:00Z\n"
        "r2,2021-06-01T00:00:00Z,2021-09-01T00:00:00Z\n"
    )
    windows = load_releases_csv(path)
    assert [w.name for w in windows] == ["r1", "r2"]
    assert windows[0].start == T0


def test_load_releases_csv_missing_column(tmp_path):
    path = tmp_path / "releases.csv"
    path.write_text("name,begin,end\nr1,2021-01-01,2021-02-01\n")
    with pytest.raises(ValueError):
        load_releases_csv(path)


def test_load_attributes_csv(tmp_path):
    path = tmp_path / "attrs.csv"
    path.write_text(
        "project,category,loc,noc,noi,nofa\n"
        "alpha,C3,120000,250,1500,800\n"
    )
    table = load_attributes_csv(path)
    attrs = table["alpha"]
    assert attrs.category == "C3"
    assert attrs.metrics == {"LOC": 120000, "NOC": 250, "NOI": 1500, "NOFA": 800}


def test_load_attributes_csv_bad_category(tmp_path):
    path = tmp_path / "attrs.csv"
    path.write_text("project,category,loc,noc,noi,nofa\nalpha,D1,1,1,1,1\n")
    with pytest.raises(ValueError):
        load_attributes_csv(path)
