"""Issue mining: parse, fetch, filter, and turn issues into failure series.

The pipeline turns issue-tracker exports (or the live REST listing) into
the ``FailureSeries`` objects the fit engine consumes:

    parse_issues -> filter_defects -> build_series / segment_releases

plus ``classify_attribute`` for bucketing projects into S/M/L size classes
by their structural metrics.
"""

from __future__ import annotations

import json
import os
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
from .reporting import ATTRIBUTE_CUTS, ATTRIBUTE_METRICS, DEFAULT_MIN_FAULTS, read_csv

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

_API_URL = "https://api.github.com"
# rate-limit sleeps a fetch takes before it gives up
RATE_LIMIT_WAITS = 3

_CATEGORY_RE = re.compile(r"^C[1-8]$")


class IssueRecord(NamedTuple):
    """One issue; a named tuple, which is cheaper to build than a frozen
    dataclass, and parsing builds one per raw record."""

    id: int
    created_at: datetime
    labels: tuple[str, ...] = ()
    title: str = ""
    state: str = ""


class ParseResult(NamedTuple):
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


class SegmentationResult(NamedTuple):
    series: list[FailureSeries]
    dropped: list[tuple[str, int]]


class ProjectAttributes(NamedTuple):
    """A project's domain category and its value of each of
    ``ATTRIBUTE_METRICS``, keyed by that upper-case name."""

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
    """``raw`` as an id: an int, an integral float or a string of ASCII
    digits; None for a bool, a non-integral or non-finite float, any other
    string (a sign, a blank, an underscore or a non-ASCII digit), or
    anything else."""
    if isinstance(raw, bool) or (isinstance(raw, float) and not raw.is_integer()):
        return None
    if isinstance(raw, str) and not (raw.isascii() and raw.isdigit()):
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


_RAW_DECODE = json.JSONDecoder().raw_decode
_SKIP_WHITESPACE = json.decoder.WHITESPACE.match


def _decode_line(line: str):
    """``json.loads(line)`` through one reused decoder, cheaper per line: the
    same value, or the same ``JSONDecodeError`` with its message and position."""
    if line.startswith("\ufeff"):
        raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", line, 0)
    obj, end = _RAW_DECODE(line, _SKIP_WHITESPACE(line, 0).end())
    end = _SKIP_WHITESPACE(line, end).end()
    if end != len(line):
        raise json.JSONDecodeError("Extra data", line, end)
    return obj


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
                obj = _decode_line(content)
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


# the escaper json.dumps uses for each string under its default ensure_ascii
_QUOTE = json.encoder.encode_basestring_ascii


def _ndjson_line(record: IssueRecord) -> str:
    """``json.dumps(issue_to_json(record)) + "\n"``, built without the dict;
    about half the cost per record.  An ISO timestamp needs no escaping."""
    return (
        f'{{"created_at": "{record.created_at.isoformat()}", "id": {record.id}, '
        f'"labels": [{", ".join(map(_QUOTE, record.labels))}], '
        f'"state": {_QUOTE(record.state)}, "title": {_QUOTE(record.title)}}}\n'
    )


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
    is the last one.  Times under 1e-6 days (86.4 ms) are raised to 1e-6,
    so the series stays strictly positive and nondecreasing.
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
    times = [max(d, TIME_EPSILON) for d in days]
    if window is not None:
        horizon = (window.end - window.start).total_seconds() / SECONDS_PER_DAY
    else:
        horizon = times[-1]
    name = label if label is not None else (window.name if window else "all")
    return FailureSeries(times=times, horizon=horizon, label=name)


def _disjoint(windows: Sequence[ReleaseWindow]) -> list[ReleaseWindow]:
    """``windows`` by start; ``ValueError`` when two of them overlap."""
    ordered = sorted(windows, key=lambda w: w.start)
    for before, after in zip(ordered, ordered[1:]):
        if after.start < before.end:
            raise ValueError(
                f"release windows {before.name!r} and {after.name!r} overlap"
            )
    return ordered


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
    ordered = _disjoint(windows)
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
    if name not in ATTRIBUTE_CUTS:
        raise ValueError(f"unknown attribute {metric!r}; expected one of {ATTRIBUTE_METRICS}")
    if value < 0:
        raise ValueError(f"attribute {name} must be nonnegative, got {value}")
    low, high = ATTRIBUTE_CUTS[name]
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
    window needs a name of its own, and no two may overlap."""
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
    try:
        _disjoint(windows.values())
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
        table[project] = ProjectAttributes(category, metrics)
    return table


# ---------------------------------------------------------------------------
# the verbs' input stage, dealt over processes
# ---------------------------------------------------------------------------

# Input bytes that pay for one more process, set for `ingest`.  Measured on
# a 2-vCPU Linux host, 16 alternating CLI runs of one process and of two at
# each size; medians one -> two, and the runs two processes won:
#   `ingest` of two raw exports: 2 x 100 kB 139 -> 144 ms (2 of 16),
#   2 x 200 kB 157 -> 154 ms (11) and 2 x 400 kB 184 -> 169 ms (13);
#   `trend` of two normalized files: 2 x 200 kB 106 -> 113 ms (1),
#   2 x 400 kB 123 -> 128 ms (4) and, again, 173 -> 160 ms (10), and
#   2 x 800 kB 154 -> 146 ms (16).
# Ingest breaks even near 200 kB a process, trend, which does less per
# byte, near 400 kB.  A process per full 256 KiB keeps smaller inputs in
# one process; trend and fit pay a few ms on 256-400 kB a process.
_SHARE_BYTES = 256 * 1024


def _process_count(sizes: list[int]) -> int:
    """Processes for inputs of ``sizes`` bytes: at most one per CPU this
    process may run on, per non-empty input and per full ``_SHARE_BYTES``;
    one where the platform cannot fork or tell its CPUs.  With no more
    processes than non-empty inputs, dealing largest first gives each
    process one of them, so no share is left empty."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    filled = sum(1 for size in sizes if size)
    return max(1, min(len(os.sched_getaffinity(0)), filled, sum(sizes) // _SHARE_BYTES))


def _file_size(path) -> int:
    # a file that cannot be read fails when its turn comes, as in a serial loop
    try:
        return os.stat(path).st_size
    except OSError:
        return 0


def _run_share(func, items, share, started=None) -> list:
    """``(index, (True, result))``, or ``(index, (False, exception))`` for a
    call that raised, per index of ``share``."""
    outcomes = []
    for index in share:
        if started is not None:
            started(index)
        try:
            outcomes.append((index, (True, func(items[index]))))
        except Exception as exc:
            outcomes.append((index, (False, exc)))
    return outcomes


def _fork(func, items, share, pipes):
    """Fork a child that runs ``share`` and pickles to a pipe each index it
    starts, then all its outcomes; returns its pid and the pipe's read end,
    or None when no process could be made.  The child closes ``pipes``, its
    siblings' read ends, so that a child whose parent died fails its next
    write and exits."""
    import pickle

    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # at a process or memory limit
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid:
        os.close(write_fd)
        return pid, open(read_fd, "rb")
    status = 1
    try:
        os.close(read_fd)
        for pipe in pipes:
            pipe.close()
        with open(write_fd, "wb") as pipe:

            def started(index):
                pickle.dump(index, pipe)
                pipe.flush()

            pickle.dump(_run_share(func, items, share, started), pipe)
        status = 0
    finally:
        os._exit(status)  # no buffer, atexit handler or caller's finally runs twice


def _collect(pid, pipe, share, items, outcomes) -> None:
    """Read a child's outcomes into ``outcomes`` and reap it.  Each index a
    child that died left without an outcome gets an error naming the item
    the child was on."""
    import pickle

    current = share[0]
    with pipe:
        while True:
            try:
                frame = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):
                break
            if isinstance(frame, int):
                current = frame
            else:
                outcomes.update(frame)
    _, status = os.waitpid(pid, 0)
    missing = [index for index in share if index not in outcomes]
    if missing:
        error = ChildProcessError(
            f"the process reading {items[current]} ended with exit status "
            f"{os.waitstatus_to_exitcode(status)} before its result"
        )
        outcomes.update((index, (False, error)) for index in missing)


def _map_inputs(func, items):
    """Yield ``func(item)`` for each of the ``items`` (input file paths), in
    input order.

    The files are dealt largest first to the least-loaded of this process
    and up to ``_process_count - 1`` forked children, so this process takes
    the largest; with one process everything runs here.  Every module
    ``func`` uses is imported before this is called, so that no child
    imports one again.  Every child is reaped before the first result is
    yielded.  A call that raised re-raises its exception when its turn
    comes, as in a serial loop, so a caller that writes each result as it
    comes writes what a serial run would have.
    """
    sizes = [_file_size(item) for item in items]
    shares: list[list[int]] = [[] for _ in range(_process_count(sizes))]
    loads = [0] * len(shares)
    for index in sorted(range(len(items)), key=sizes.__getitem__, reverse=True):
        least = loads.index(min(loads))
        shares[least].append(index)
        loads[least] += sizes[index]
    outcomes: dict = {}
    children: list = []
    mine = shares[0]
    try:
        for share in shares[1:]:
            child = _fork(func, items, share, [pipe for _, pipe, _ in children])
            if child is None:
                mine = mine + share
            else:
                children.append((*child, share))
        outcomes.update(_run_share(func, items, mine))
        while children:
            _collect(*children[0], items, outcomes)
            del children[0]
    finally:
        for pid, pipe, _ in children:  # left only when this process failed
            from signal import SIGKILL

            pipe.close()
            os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)
    for index in range(len(items)):
        ok, value = outcomes[index]
        if not ok:
            raise value
        yield value


def _ingest_outcome(parsed: ParseResult, include_title: bool) -> tuple[str, dict]:
    """The NDJSON text of a parsed export's kept defects and the export's
    ingest summary counts."""
    excluded: list[IssueRecord] = []
    kept = filter_defects(parsed.records, include_title=include_title, excluded=excluded)
    counts = {
        "total": len(parsed.records),
        "parse_skipped": len(parsed.skipped),
        "parse_skip_notes": parsed.skipped,
        "defect_matched": len(kept) + len(excluded),
        "excluded": len(excluded),
        "kept": len(kept),
    }
    return "".join(map(_ndjson_line, kept)), counts


def _ingest_file(path: Path, include_title: bool) -> tuple[str, dict]:
    return _ingest_outcome(parse_issues(path.read_bytes()), include_title)


def _ingest_files(paths: list[Path], include_title: bool):
    """``_ingest_file`` of each of ``paths``, in order, over ``_map_inputs``."""
    return _map_inputs(lambda path: _ingest_file(path, include_title), paths)


def _project_series(path: Path, windows: list[ReleaseWindow] | None, min_faults: int):
    """A normalized project file's segmentation into ``windows``, each named
    after the project; without windows its whole series, or None when it
    has no issues."""
    project = path.stem
    records = parse_issues(path.read_bytes()).records
    if windows is None:
        try:
            return build_series(records, label=project)
        except EmptySeriesError:
            return None
    named = [ReleaseWindow(f"{project}:{w.name}", w.start, w.end) for w in windows]
    return segment_releases(records, named, min_faults=min_faults)


def _series_files(paths: list[Path], windows: list[ReleaseWindow] | None, min_faults: int):
    """``_project_series`` of each of ``paths``, in order, over ``_map_inputs``."""
    from .series import FailureSeries  # noqa: F401  (build_series's, imported before a fork)

    return _map_inputs(lambda path: _project_series(path, windows, min_faults), paths)
