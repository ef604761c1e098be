"""Issue mining: parse, fetch, filter, and turn issues into failure series.

The pipeline turns issue-tracker exports (or the live REST listing) into
the ``FailureSeries`` objects the fit engine consumes:

    parse_issues -> filter_defects -> build_series / segment_releases

plus ``classify_attribute`` for bucketing projects into S/M/L size classes
by their structural metrics.
"""

from __future__ import annotations

import json
import re
import time as _time
from bisect import bisect_left
from dataclasses import dataclass
from datetime import datetime, timezone
from operator import attrgetter
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .errors import (
    EmptySeriesError,
    NetworkError,
    ParseError,
    RateLimitError,
    UnknownRepoError,
)
from .reporting import read_csv

if TYPE_CHECKING:
    from .series import FailureSeries

SECONDS_PER_DAY = 86400.0
TIME_EPSILON = 1e-6

DEFECT_KEYWORDS = frozenset({"bug", "error", "fail", "fault", "defect"})
EXCLUSION_KEYWORDS = frozenset({"duplicat"})
# a record's labels are searched as one string, joined by a character no
# keyword or exclusion term contains, so no match spans two labels
_LABEL_SEPARATOR = "\0"
# the ``search`` of one pattern per list, which finds any of its terms
_DEFECT_SEARCH, _EXCLUSION_SEARCH = (
    re.compile("|".join(map(re.escape, sorted(terms)))).search
    for terms in (DEFECT_KEYWORDS, EXCLUSION_KEYWORDS)
)

DEFAULT_MIN_FAULTS = 20
_API_URL = "https://api.github.com"
# rate-limit sleeps a fetch takes before it gives up
RATE_LIMIT_WAITS = 3

# lower/upper cut of the middle (M) class; boundary values are M
_ATTRIBUTE_CUTS = {
    "LOC": (10_000, 100_000),
    "NOC": (100, 300),
    "NOI": (1_000, 10_000),
    "NOFA": (500, 5_000),
}
ATTRIBUTE_METRICS = tuple(_ATTRIBUTE_CUTS)

_CATEGORY_RE = re.compile(r"^C[1-8]$")


class IssueRecord(NamedTuple):
    """One issue; a named tuple, which is cheaper to build than a frozen
    dataclass, and parsing builds one per raw record."""

    id: int
    created_at: datetime
    labels: tuple[str, ...] = ()
    title: str = ""
    state: str = ""


@dataclass
class ParseResult:
    """Parsed records plus notes about records that had to be skipped."""

    records: list[IssueRecord]
    skipped: list[str]


@dataclass(frozen=True)
class ReleaseWindow:
    """Half-open observation window [start, end) named after a release."""

    name: str
    start: datetime
    end: datetime

    def __post_init__(self):
        if self.start >= self.end:
            raise ValueError(f"release {self.name!r}: start must precede end")


@dataclass
class SegmentationResult:
    series: list[FailureSeries]
    dropped: list[tuple[str, int]]


@dataclass(frozen=True)
class ProjectAttributes:
    """A project's domain category and its value of each of
    ``ATTRIBUTE_METRICS``, keyed by that upper-case name."""

    project: str
    category: str
    metrics: dict[str, int]


def parse_timestamp(value: str) -> datetime:
    """ISO-8601 timestamp to an aware UTC datetime (naive input counts as UTC)."""
    text = value.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    stamp = datetime.fromisoformat(text)
    if stamp.tzinfo is None:
        return stamp.replace(tzinfo=timezone.utc)
    return stamp.astimezone(timezone.utc)


def _normalize_labels(raw) -> tuple[str, ...]:
    if not raw:
        return ()
    labels = []
    for entry in raw:
        if isinstance(entry, str):
            labels.append(entry)
        elif isinstance(entry, dict) and isinstance(entry.get("name"), str):
            labels.append(entry["name"])
    return tuple(labels)


_MISSING = object()


def _integer_id(raw) -> int | None:
    """``raw`` as an id: an int, an integral float or a string of digits;
    None for a bool, a non-integral or non-finite float, or anything else."""
    if isinstance(raw, bool) or (isinstance(raw, float) and not raw.is_integer()):
        return None
    try:
        return int(raw)
    except (TypeError, ValueError):
        return None


def _record_from_dict(obj, skipped: list[str], where: str, index: int) -> IssueRecord | None:
    """The record of one issue object, or None with a note in ``skipped``
    that names the object as ``where`` followed by ``index``."""
    if not isinstance(obj, dict):
        skipped.append(f"{where}{index}: not an object")
        return None
    get = obj.get
    raw_id = get("id", _MISSING)
    if raw_id is _MISSING:
        skipped.append(f"{where}{index}: missing id")
        return None
    raw_created = get("created_at")
    if raw_created in (None, ""):
        skipped.append(f"{where}{index}: missing created_at")
        return None
    try:
        created = parse_timestamp(str(raw_created))
    except ValueError:
        skipped.append(f"{where}{index}: unreadable created_at {raw_created!r}")
        return None
    issue_id = _integer_id(raw_id)
    if issue_id is None:
        skipped.append(f"{where}{index}: unreadable id {raw_id!r}")
        return None
    raw_labels = get("labels")
    if raw_labels is not None and not isinstance(raw_labels, list):
        skipped.append(f"{where}{index}: labels are not a list: {raw_labels!r}")
        return None
    return IssueRecord(
        issue_id,
        created,
        _normalize_labels(raw_labels),
        str(get("title") or ""),
        str(get("state") or ""),
    )


def parse_issues(document: bytes | str) -> ParseResult:
    """Parse a JSON array or newline-delimited JSON of issue objects.

    Records are sorted by creation time.  Records missing their id or
    creation time are skipped with a note; malformed JSON raises
    ``ParseError`` carrying the byte offset of the failure.  One leading
    UTF-8 byte-order mark is skipped; offsets still count its 3 bytes.
    """
    if isinstance(document, bytes):
        document = document.decode("utf-8")
    text = document.removeprefix("\ufeff")
    bom_bytes = 3 * (len(document) - len(text))

    skipped: list[str] = []
    records: list[IssueRecord] = []

    def byte_offset(char_pos: int) -> int:
        return bom_bytes + len(text[:char_pos].encode("utf-8"))

    stripped = text.lstrip()
    if stripped.startswith("["):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"malformed JSON: {exc.msg}", offset=byte_offset(exc.pos)) from exc
        if not isinstance(data, list):
            raise ParseError("top-level JSON value must be an array")
        for index, obj in enumerate(data):
            record = _record_from_dict(obj, skipped, "record ", index)
            if record is not None:
                records.append(record)
    else:
        # only "\n" ends a line: U+2028, U+2029 and U+0085, at which
        # str.splitlines also breaks, may stand unescaped inside a string
        lines = text.split("\n")
        for index, line in enumerate(lines):
            content = line.strip()
            if not content:
                continue
            try:
                obj = json.loads(content)
            except json.JSONDecodeError as exc:
                line_start = sum(map(len, lines[:index])) + index
                raise ParseError(
                    f"malformed JSON on line {index + 1}: {exc.msg}",
                    offset=byte_offset(line_start + line.find(content) + exc.pos),
                ) from exc
            record = _record_from_dict(obj, skipped, "line ", index + 1)
            if record is not None:
                records.append(record)

    return ParseResult(records=_unique_sorted(records, skipped), skipped=skipped)


_CHRONOLOGICAL = attrgetter("created_at", "id")


def _unique_sorted(records: list[IssueRecord], skipped: list[str]) -> list[IssueRecord]:
    """The first record of each id, sorted by creation time; every later
    repeat of an id is dropped with a note in ``skipped``."""
    seen: set[int] = set()
    unique: list[IssueRecord] = []
    for record in records:
        if record.id in seen:
            skipped.append(f"id {record.id}: duplicate id, keeping first occurrence")
            continue
        seen.add(record.id)
        unique.append(record)
    unique.sort(key=_CHRONOLOGICAL)
    return unique


def issue_to_json(record: IssueRecord) -> dict:
    """Plain-JSON form of a record; parse_issues round-trips it exactly.

    The keys come in sorted order, so ``json.dumps`` writes them sorted
    without ``sort_keys``.
    """
    return {
        "created_at": record.created_at.isoformat(),
        "id": record.id,
        "labels": list(record.labels),
        "state": record.state,
        "title": record.title,
    }


# ---------------------------------------------------------------------------
# live fetch
# ---------------------------------------------------------------------------


def fetch_issues(
    repo_slug: str,
    auth_token: str | None = None,
    page_size: int = 100,
    *,
    session=None,
    sleep=_time.sleep,
) -> ParseResult:
    """Fetch all issues of ``owner/name`` from the tracker's REST listing.

    Walks the paginated endpoint, converts entries to ``IssueRecord``
    (pull requests are skipped) and, as ``parse_issues`` does, notes each
    malformed or repeated entry it drops.  It honours rate limiting by
    sleeping until the advertised reset before retrying.  Raises
    ``UnknownRepoError`` on 404, ``RateLimitError`` after
    ``RATE_LIMIT_WAITS`` waits, and ``NetworkError`` for transport
    failures and other unexpected statuses.  ``session`` and ``sleep`` are
    injectable for testing.
    """
    import requests  # only fetching needs it; keep the CLI's start-up light

    if session is None:
        session = requests.Session()
    headers = {"Accept": "application/vnd.github+json"}
    if auth_token:
        headers["Authorization"] = f"Bearer {auth_token}"

    records: list[IssueRecord] = []
    skipped: list[str] = []
    page = 1
    waits = 0
    while True:
        url = f"{_API_URL}/repos/{repo_slug}/issues"
        params = {"state": "all", "per_page": page_size, "page": page}
        try:
            response = session.get(url, params=params, headers=headers, timeout=30)
        except requests.RequestException as exc:
            raise NetworkError(f"fetching {repo_slug} page {page}: {exc}") from exc

        status = response.status_code
        if status == 404:
            raise UnknownRepoError(f"repository {repo_slug!r} not found")
        if status in (403, 429):
            delay = _rate_limit_delay(response.headers)
            if delay is None:
                raise NetworkError(f"HTTP {status} fetching {repo_slug} page {page}")
            if waits >= RATE_LIMIT_WAITS:
                raise RateLimitError(
                    f"rate limit on {repo_slug} persisted after "
                    f"{RATE_LIMIT_WAITS} waits; retry after {delay:.0f}s"
                )
            waits += 1
            sleep(delay)
            continue
        if status != 200:
            raise NetworkError(f"HTTP {status} fetching {repo_slug} page {page}")

        try:
            items = response.json()
        except ValueError as exc:
            raise NetworkError(f"unreadable JSON from {repo_slug} page {page}") from exc
        if not isinstance(items, list):
            raise NetworkError(f"unexpected payload shape from {repo_slug} page {page}")

        for index, item in enumerate(items):
            if isinstance(item, dict) and "pull_request" in item:
                continue
            record = _record_from_dict(item, skipped, f"page {page} item ", index)
            if record is not None:
                records.append(record)

        if len(items) < page_size:
            break
        page += 1

    # an issue created mid-walk shifts the listing, so a page can repeat
    # the last item of the page before it
    return ParseResult(records=_unique_sorted(records, skipped), skipped=skipped)


def _rate_limit_delay(headers) -> float | None:
    retry_after = headers.get("Retry-After")
    if retry_after is not None:
        try:
            return max(0.0, float(retry_after))
        except ValueError:
            return None
    if headers.get("X-RateLimit-Remaining") == "0":
        reset = headers.get("X-RateLimit-Reset")
        try:
            return max(0.0, float(reset) - _time.time())
        except (TypeError, ValueError):
            return None
    return None


# ---------------------------------------------------------------------------
# filtering and series construction
# ---------------------------------------------------------------------------


def filter_defects(
    issues: Iterable[IssueRecord],
    *,
    include_title: bool = False,
    excluded: list[IssueRecord] | None = None,
) -> list[IssueRecord]:
    """Keep issues labeled as defects and drop duplicates.

    An issue matches when any label contains any of ``DEFECT_KEYWORDS``
    (case-insensitive substring); ``include_title`` extends the matching
    (not the exclusions) to the issue title.  A match is kept unless a
    label also contains one of ``EXCLUSION_KEYWORDS``, in which case it
    is appended to ``excluded`` when that is a list.  The filter is
    idempotent.
    """
    defect, exclusion = _DEFECT_SEARCH, _EXCLUSION_SEARCH
    kept = []
    for issue in issues:
        labels = _LABEL_SEPARATOR.join(issue.labels).lower()
        if not (defect(labels) or (include_title and defect(issue.title.lower()))):
            continue
        if exclusion(labels):
            if excluded is not None:
                excluded.append(issue)
        else:
            kept.append(issue)
    return kept


def build_series(
    issues: Sequence[IssueRecord],
    window: ReleaseWindow | None = None,
    label: str | None = None,
) -> FailureSeries:
    """Failure series of issue creation times, in fractional days.

    With a window only issues in [start, end) count and time zero is the
    window start; otherwise time zero is the first issue and the horizon
    is the last one.  Times of exactly zero are shifted to 1e-6 so the
    series stays strictly positive.
    """
    # only series building needs it; keep ingest's start-up light
    from .series import FailureSeries

    ordered = sorted(issues, key=_CHRONOLOGICAL)
    if window is not None:
        ordered = [r for r in ordered if window.start <= r.created_at < window.end]
    if not ordered:
        scope = f"window {window.name!r}" if window else "input"
        raise EmptySeriesError(f"no issues in {scope}")

    start = window.start if window is not None else ordered[0].created_at
    days = [(r.created_at - start).total_seconds() / SECONDS_PER_DAY for r in ordered]
    times = [d if d != 0.0 else TIME_EPSILON for d in days]
    if window is not None:
        horizon = (window.end - window.start).total_seconds() / SECONDS_PER_DAY
    else:
        horizon = times[-1]
    name = label if label is not None else (window.name if window else "all")
    return FailureSeries(times=times, horizon=horizon, label=name)


def segment_releases(
    issues: Sequence[IssueRecord],
    windows: Sequence[ReleaseWindow],
    min_faults: int = DEFAULT_MIN_FAULTS,
) -> SegmentationResult:
    """Per-release failure series, dropping releases with too few faults.

    Windows must not overlap.  Releases whose windows hold fewer than
    ``min_faults`` issues are not turned into series; they are reported in
    ``dropped`` as (name, count) instead.
    """
    ordered = sorted(windows, key=lambda w: w.start)
    for before, after in zip(ordered, ordered[1:]):
        if after.start < before.end:
            raise ValueError(
                f"release windows {before.name!r} and {after.name!r} overlap"
            )
    records = sorted(issues, key=_CHRONOLOGICAL)
    created = [r.created_at for r in records]
    series = []
    dropped = []
    for window in ordered:
        # the records in [start, end) are one slice of the sorted list
        lo, hi = bisect_left(created, window.start), bisect_left(created, window.end)
        count = hi - lo
        if count < min_faults or count == 0:
            dropped.append((window.name, count))
            continue
        series.append(build_series(records[lo:hi], window))
    return SegmentationResult(series=series, dropped=dropped)


def classify_attribute(metric: str, value: int) -> str:
    """S/M/L size class of a project attribute value.

    Values below the lower cut are S, values above the upper cut are L,
    and everything in between, boundaries included, is M.
    """
    name = metric.upper()
    if name not in _ATTRIBUTE_CUTS:
        raise ValueError(f"unknown attribute {metric!r}; expected one of {ATTRIBUTE_METRICS}")
    if value < 0:
        raise ValueError(f"attribute {name} must be nonnegative, got {value}")
    low, high = _ATTRIBUTE_CUTS[name]
    if value < low:
        return "S"
    if value <= high:
        return "M"
    return "L"


# ---------------------------------------------------------------------------
# CSV side inputs
# ---------------------------------------------------------------------------


def load_releases_csv(path: str | Path) -> list[ReleaseWindow]:
    """Read release windows from a CSV with header name,start,end; each
    window needs a name of its own."""
    windows: dict[str, ReleaseWindow] = {}
    for row in read_csv(path, ("name", "start", "end")):
        name = row["name"]
        if name in windows:
            raise ValueError(f"{path}: release {name!r} is named twice")
        try:
            windows[name] = ReleaseWindow(
                name=name,
                start=parse_timestamp(row["start"]),
                end=parse_timestamp(row["end"]),
            )
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
    return list(windows.values())


def load_attributes_csv(path: str | Path) -> dict[str, ProjectAttributes]:
    """Read project attributes from a CSV with the columns project,
    category and, in lower case, each of ``ATTRIBUTE_METRICS``; each
    project may have one row."""
    columns = {metric: metric.lower() for metric in ATTRIBUTE_METRICS}
    table: dict[str, ProjectAttributes] = {}
    for row in read_csv(path, ("project", "category", *columns.values())):
        project, category = row["project"], row["category"].strip()
        if project in table:
            raise ValueError(f"{path}: project {project!r} has two rows")
        if not _CATEGORY_RE.match(category):
            raise ValueError(
                f"{path}: category must be C1..C8, got {category!r} "
                f"for project {project!r}"
            )
        try:
            metrics = {metric: int(row[column]) for metric, column in columns.items()}
        except ValueError as exc:
            raise ValueError(f"{path}: bad attribute row for {project!r}: {exc}") from exc
        table[project] = ProjectAttributes(project, category, metrics)
    return table
