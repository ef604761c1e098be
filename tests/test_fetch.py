# Issue fetching against a scripted fake HTTP session.

import json

import pytest
import requests

from srgrowth.errors import NetworkError, RateLimitError, UnknownRepoError
from srgrowth.pipeline import fetch_issues


class FakeResponse:
    def __init__(self, status_code=200, payload=None, headers=None):
        self.status_code = status_code
        self._payload = payload if payload is not None else []
        self.headers = headers or {}

    def json(self):
        if isinstance(self._payload, Exception):
            raise self._payload
        return self._payload


class FakeSession:
    """Returns scripted responses in order and records every request."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = []

    def get(self, url, params=None, headers=None, timeout=None):
        self.calls.append({"url": url, "params": dict(params or {}),
                           "headers": dict(headers or {})})
        action = self.responses.pop(0)
        if isinstance(action, Exception):
            raise action
        return action


def entry(i, created="2022-01-01T00:00:00Z", **extra):
    d = {"id": i, "created_at": created, "labels": [{"name": "bug"}],
         "title": f"issue {i}", "state": "open"}
    d.update(extra)
    return d


def test_fetch_paginates_until_short_page():
    page1 = [entry(i) for i in range(3)]
    page2 = [entry(10)]
    session = FakeSession([FakeResponse(payload=page1), FakeResponse(payload=page2)])
    records = fetch_issues("owner/repo", page_size=3, session=session).records
    assert len(records) == 4
    assert [c["params"]["page"] for c in session.calls] == [1, 2]
    assert session.calls[0]["params"]["per_page"] == 3
    assert session.calls[0]["url"].endswith("/repos/owner/repo/issues")


def test_fetch_drops_an_issue_repeated_across_pages():
    # An issue created mid-walk shifts the listing by one, so page 2 opens
    # with the last issue of page 1 again.
    page1 = [entry(5, "2022-01-05T00:00:00Z"), entry(4, "2022-01-04T00:00:00Z"),
             entry(3, "2022-01-03T00:00:00Z")]
    page2 = [entry(3, "2022-01-03T00:00:00Z"), entry(2, "2022-01-02T00:00:00Z")]
    session = FakeSession([FakeResponse(payload=page1), FakeResponse(payload=page2)])
    fetched = fetch_issues("o/r", page_size=3, session=session)
    assert [r.id for r in fetched.records] == [2, 3, 4, 5]
    assert fetched.skipped == ["id 3: duplicate id, keeping first occurrence"]
    assert len(session.calls) == 2


def test_fetch_notes_malformed_and_repeated_items():
    payload = [entry(1), entry(2, created_at=None), entry(1)]
    session = FakeSession([FakeResponse(payload=payload)])
    fetched = fetch_issues("o/r", page_size=50, session=session)
    assert [r.id for r in fetched.records] == [1]
    assert fetched.skipped == [
        "page 1 item 1: missing created_at",
        "id 1: duplicate id, keeping first occurrence",
    ]


def test_fetch_single_full_stop_at_short_page():
    # An exactly full page forces one more request that comes back empty.
    session = FakeSession([
        FakeResponse(payload=[entry(1), entry(2)]),
        FakeResponse(payload=[]),
    ])
    records = fetch_issues("o/r", page_size=2, session=session).records
    assert len(records) == 2
    assert len(session.calls) == 2


def test_fetch_skips_pull_requests():
    payload = [entry(1), entry(2, pull_request={"url": "..."}), entry(3)]
    session = FakeSession([FakeResponse(payload=payload)])
    records = fetch_issues("o/r", page_size=50, session=session).records
    assert [r.id for r in records] == [1, 3]


def test_fetch_sends_bearer_token():
    session = FakeSession([FakeResponse(payload=[])])
    fetch_issues("o/r", auth_token="sekrit", session=session)
    assert session.calls[0]["headers"]["Authorization"] == "Bearer sekrit"


def test_fetch_no_token_no_auth_header():
    session = FakeSession([FakeResponse(payload=[])])
    fetch_issues("o/r", session=session)
    assert "Authorization" not in session.calls[0]["headers"]


def test_fetch_unknown_repo():
    session = FakeSession([FakeResponse(status_code=404)])
    with pytest.raises(UnknownRepoError):
        fetch_issues("o/missing", session=session)


def test_fetch_rate_limit_waits_then_succeeds():
    sleeps = []
    session = FakeSession([
        FakeResponse(status_code=403, headers={"Retry-After": "7"}),
        FakeResponse(payload=[entry(1)]),
    ])
    records = fetch_issues("o/r", session=session, sleep=sleeps.append).records
    assert [r.id for r in records] == [1]
    assert sleeps == [7.0]
    # the retry re-requests the same page
    assert [c["params"]["page"] for c in session.calls] == [1, 1]


def test_fetch_rate_limit_reset_header():
    sleeps = []
    session = FakeSession([
        FakeResponse(status_code=429, headers={
            "X-RateLimit-Remaining": "0",
            "X-RateLimit-Reset": "2000000000",
        }),
        FakeResponse(payload=[]),
    ])
    fetch_issues("o/r", session=session, sleep=sleeps.append)
    assert len(sleeps) == 1
    assert sleeps[0] > 0.0


def test_fetch_rate_limit_budget_exhausted():
    responses = [
        FakeResponse(status_code=403, headers={"Retry-After": "1"})
        for _ in range(4)
    ]
    session = FakeSession(responses)
    sleeps = []
    with pytest.raises(RateLimitError):
        fetch_issues("o/r", session=session, sleep=sleeps.append)
    assert len(sleeps) == 3


def test_fetch_403_without_rate_headers_is_network_error():
    session = FakeSession([FakeResponse(status_code=403)])
    with pytest.raises(NetworkError):
        fetch_issues("o/r", session=session)


def test_fetch_transport_failure():
    session = FakeSession([requests.ConnectionError("nope")])
    with pytest.raises(NetworkError):
        fetch_issues("o/r", session=session)


def test_fetch_server_error():
    session = FakeSession([FakeResponse(status_code=500)])
    with pytest.raises(NetworkError):
        fetch_issues("o/r", session=session)


def test_fetch_unreadable_json():
    session = FakeSession([
        FakeResponse(payload=json.JSONDecodeError("bad", "doc", 0)),
    ])
    with pytest.raises(NetworkError):
        fetch_issues("o/r", session=session)


def test_fetch_non_list_payload():
    session = FakeSession([FakeResponse(payload={"message": "nope"})])
    with pytest.raises(NetworkError):
        fetch_issues("o/r", session=session)


def test_fetch_sorts_across_pages():
    session = FakeSession([
        FakeResponse(payload=[entry(5, "2022-02-01T00:00:00Z"),
                              entry(4, "2022-01-15T00:00:00Z")]),
        FakeResponse(payload=[entry(1, "2022-01-01T00:00:00Z")]),
    ])
    records = fetch_issues("o/r", page_size=2, session=session).records
    assert [r.id for r in records] == [1, 4, 5]


def test_fetch_skips_ids_that_are_not_integers():
    """A bool, a non-integral or a non-finite number is no id, nor a string
    that is more than ASCII digits; an int, an integral float and a string
    of ASCII digits are."""
    bad = [True, 1.7, 2.9, float("inf"), float("nan"), "1.5", None]
    bad += ["1_000", " 12 ", "+7", "-3", "\u0663"]
    page = [entry(i) for i in (*bad, 3, 4.0, "5")]
    session = FakeSession([FakeResponse(payload=page)])
    result = fetch_issues("owner/repo", page_size=100, session=session)
    assert [r.id for r in result.records] == [3, 4, 5]
    assert [note.split(": ", 1)[1] for note in result.skipped] == [
        f"unreadable id {value!r}" for value in bad
    ]
