from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import requests

from trajmem.errors import EndpointError
from trajmem.llm import ChatEndpoint


class _FakeResponse:
    def __init__(self, payload, status_ok=True):
        self._payload = payload
        self._status_ok = status_ok

    def raise_for_status(self):
        if not self._status_ok:
            raise RuntimeError("HTTP 500")

    def json(self):
        return self._payload


def _endpoint(payload, capture=None, **kwargs):
    def post(url, json=None, headers=None, timeout=None):
        if capture is not None:
            capture.append({"url": url, "json": json, "headers": headers})
        return _FakeResponse(payload)

    return ChatEndpoint("http://fake/chat", post=post, **kwargs)


def test_chat_endpoint_extracts_openai_shape():
    endpoint = _endpoint({"choices": [{"message": {"content": "hello"}}]})
    assert endpoint.complete("hi") == "hello"


def test_chat_endpoint_extracts_flat_shapes():
    assert _endpoint({"content": "a"}).complete("x") == "a"
    assert _endpoint({"text": "b"}).complete("x") == "b"
    assert _endpoint({"completion": "c"}).complete("x") == "c"


def test_chat_endpoint_sends_auth_from_environment(monkeypatch):
    calls = []
    monkeypatch.setenv("TRAJMEM_API_KEY", "secret-token")
    endpoint = _endpoint({"content": "ok"}, capture=calls)
    endpoint.complete("prompt", system="be brief")
    assert calls[0]["headers"]["Authorization"] == "Bearer secret-token"
    roles = [m["role"] for m in calls[0]["json"]["messages"]]
    assert roles == ["system", "user"]


def test_chat_endpoint_retries_then_raises():
    attempts = []

    def post(url, json=None, headers=None, timeout=None):
        attempts.append(1)
        raise OSError("refused")

    endpoint = ChatEndpoint("http://fake", retries=2, post=post, sleep=lambda _: None)
    with pytest.raises(EndpointError):
        endpoint.complete("x")
    assert len(attempts) == 3


def test_chat_endpoint_rejects_unparseable_payload():
    endpoint = _endpoint({"weird": True}, retries=0)
    with pytest.raises(EndpointError):
        endpoint.complete("x")


def _http_response(status, body=b'{"content": "ok"}'):
    response = requests.Response()
    response.status_code = status
    response._content = body
    response.url = "http://fake"
    return response


def _counting_endpoint(outcomes, retries=2, delays=None):
    """An endpoint whose post returns or raises the next outcome in turn;
    its backoff delays are appended to ``delays`` instead of slept."""
    attempts = []
    delays = [] if delays is None else delays

    def post(url, json=None, headers=None, timeout=None):
        outcome = outcomes[min(len(attempts), len(outcomes) - 1)]
        attempts.append(1)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    endpoint = ChatEndpoint("http://fake", retries=retries, post=post, sleep=delays.append)
    return endpoint, attempts


@pytest.mark.parametrize(
    "failure",
    [
        requests.ConnectionError("refused"),
        requests.Timeout("slow"),
        TimeoutError("slow"),
        _http_response(503),
    ],
    ids=["connection", "timeout", "socket-timeout", "http-503"],
)
def test_chat_endpoint_retries_transient_failures(failure):
    endpoint, attempts = _counting_endpoint([failure])
    with pytest.raises(EndpointError):
        endpoint.complete("x")
    assert len(attempts) == 3


def test_chat_endpoint_recovers_after_server_error():
    endpoint, attempts = _counting_endpoint([_http_response(500), _http_response(200)])
    assert endpoint.complete("x") == "ok"
    assert len(attempts) == 2


@pytest.mark.parametrize(
    "outcome",
    [
        _http_response(400),
        _http_response(401),
        _http_response(404),
        _http_response(200, b'{"weird": true}'),
        _http_response(200, b'{"choices": ["not an object"]}'),
        _http_response(200, b"<html>not json</html>"),
        requests.exceptions.InvalidURL("bad url"),
        RuntimeError("bug in transport"),
    ],
    ids=[
        "http-400", "http-401", "http-404", "no-text", "bad-choice", "not-json",
        "invalid-url", "other",
    ],
)
def test_chat_endpoint_does_not_retry_permanent_failures(outcome):
    endpoint, attempts = _counting_endpoint([outcome])
    with pytest.raises(EndpointError):
        endpoint.complete("x")
    assert len(attempts) == 1


def test_chat_endpoint_backs_off_exponentially_up_to_a_cap():
    delays = []
    endpoint, attempts = _counting_endpoint(
        [requests.ConnectionError("refused")], retries=7, delays=delays
    )
    with pytest.raises(EndpointError):
        endpoint.complete("x")
    assert len(attempts) == 8
    assert delays == [0.5, 1.0, 2.0, 4.0, 8.0, 8.0, 8.0]


def test_chat_endpoint_sleeps_only_between_attempts():
    delays = []
    endpoint, _ = _counting_endpoint(
        [_http_response(500), _http_response(200)], retries=5, delays=delays
    )
    assert endpoint.complete("x") == "ok"
    assert delays == [0.5]
    delays.clear()
    endpoint, _ = _counting_endpoint([_http_response(404)], retries=5, delays=delays)
    with pytest.raises(EndpointError):
        endpoint.complete("x")
    assert delays == []


_IMPORT_PROBE = """
import json, sys
HTTP = ("requests", "urllib3", "ssl", "http.client")
import trajmem, trajmem.cli
from trajmem.llm import ChatEndpoint
after_import = [name for name in HTTP if name in sys.modules]

class Reply:
    def raise_for_status(self):
        pass

    def json(self):
        return {"content": "ok"}

text = ChatEndpoint("http://fake/chat", post=lambda *args, **kwargs: Reply()).complete("hi")
after_complete = [name for name in HTTP if name in sys.modules]
ChatEndpoint("http://fake/chat")
print(json.dumps([after_import, text, after_complete, "requests" in sys.modules]))
"""


def test_the_http_client_is_imported_only_for_an_endpoint_that_posts_through_it():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    probe = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    after_import, text, after_complete, requests_loaded = json.loads(probe.stdout)
    assert (after_import, text, after_complete) == ([], "ok", [])
    assert requests_loaded
