from __future__ import annotations

import json
import os
import subprocess
import sys
import urllib.request
from pathlib import Path

import pytest

from trajmem.errors import EndpointError
from trajmem.llm import ChatEndpoint

from helpers import chat_server, refused_url


def _reply(payload):
    """The text a loopback endpoint answering 200 with ``payload`` gives."""
    with chat_server((200, payload)) as (url, _):
        return ChatEndpoint(url).complete("hi")


def test_chat_endpoint_extracts_openai_shape():
    assert _reply({"choices": [{"message": {"content": "hello"}}]}) == "hello"
    assert _reply({"choices": [{"text": "legacy"}]}) == "legacy"


def test_chat_endpoint_extracts_flat_shapes():
    assert _reply({"content": "a"}) == "a"
    assert _reply({"text": "b"}) == "b"
    assert _reply({"completion": "c"}) == "c"


def test_chat_endpoint_sends_auth_from_environment(monkeypatch):
    monkeypatch.setenv("TRAJMEM_API_KEY", "secret-token")
    with chat_server((200, {"content": "ok"})) as (url, posts):
        assert ChatEndpoint(url, model="m1").complete("prompt", system="be brief") == "ok"
    (post,) = posts
    assert post["headers"]["Authorization"] == "Bearer secret-token"
    assert post["headers"]["Content-Type"] == "application/json"
    assert post["json"] == {
        "model": "m1",
        "messages": [
            {"role": "system", "content": "be brief"},
            {"role": "user", "content": "prompt"},
        ],
    }


def test_chat_endpoint_sends_no_auth_header_without_a_token(monkeypatch):
    monkeypatch.delenv("TRAJMEM_API_KEY", raising=False)
    with chat_server((200, {"content": "ok"})) as (url, posts):
        ChatEndpoint(url).complete("prompt")
    assert "Authorization" not in posts[0]["headers"]
    assert [m["role"] for m in posts[0]["json"]["messages"]] == ["user"]


def _failed_attempts(url, retries=2, timeout=5.0):
    """How many attempts a failing ``complete`` made, and its backoff delays."""
    delays = []
    endpoint = ChatEndpoint(url, retries=retries, timeout=timeout, sleep=delays.append)
    with pytest.raises(EndpointError):
        endpoint.complete("x")
    return 1 + len(delays), delays


@pytest.mark.parametrize(
    "reply",
    [(500, {"error": "boom"}), (503, b"unavailable"), None],
    ids=["http-500", "http-503", "read-timeout"],
)
def test_chat_endpoint_retries_transient_failures(reply):
    with chat_server(reply) as (url, posts):
        attempts, _ = _failed_attempts(url, timeout=0.3)
    assert attempts == len(posts) == 3


@pytest.mark.parametrize(
    "reply",
    [b"garbage\r\n\r\n", b"HTTP/1.1 abc Broken\r\n\r\n", b""],
    ids=["no-status-line", "bad-status-code", "closed-without-reply"],
)
def test_chat_endpoint_retries_a_garbled_or_dropped_reply(reply):
    with chat_server(reply) as (url, posts):
        attempts, _ = _failed_attempts(url)
    assert attempts == len(posts) == 3


def test_chat_endpoint_retries_a_refused_connection_then_raises():
    assert _failed_attempts(refused_url())[0] == 3


def test_chat_endpoint_recovers_after_server_error():
    with chat_server((500, b"boom"), (200, {"content": "ok"})) as (url, posts):
        assert ChatEndpoint(url, sleep=lambda _: None).complete("x") == "ok"
    assert len(posts) == 2


@pytest.mark.parametrize(
    "reply",
    [
        (400, {"error": "bad"}),
        (401, {"error": "unauthorized"}),
        (404, b"not found"),
        (200, {"weird": True}),
        (200, {"choices": ["not an object"]}),
        (200, b"<html>not json</html>"),
        (200, b"\xff\xfe"),
    ],
    ids=[
        "http-400", "http-401", "http-404", "no-text", "bad-choice",
        "not-json", "not-utf8",
    ],
)
def test_chat_endpoint_does_not_retry_permanent_failures(reply):
    with chat_server(reply) as (url, posts):
        attempts, _ = _failed_attempts(url)
    assert attempts == len(posts) == 1


def test_chat_endpoint_does_not_retry_an_unexpected_error(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("bug in transport")

    monkeypatch.setattr(urllib.request.OpenerDirector, "open", broken)
    assert _failed_attempts("http://127.0.0.1/chat")[0] == 1


@pytest.mark.parametrize("status", [301, 302, 303, 307, 308])
def test_chat_endpoint_follows_no_redirect(monkeypatch, status):
    monkeypatch.setenv("TRAJMEM_API_KEY", "secret-token")
    with chat_server((200, {"content": "elsewhere"})) as (elsewhere, followed):
        with chat_server((status, b"", {"Location": elsewhere})) as (url, posts):
            attempts, _ = _failed_attempts(url)
    assert attempts == len(posts) == 1
    assert followed == []


@pytest.mark.parametrize(
    "url",
    ["file:///etc/hostname", "ftp://127.0.0.1/chat", "http:///chat", "https://", "127.0.0.1/chat"],
    ids=["file", "ftp", "no-host", "bare-scheme", "no-scheme"],
)
def test_a_url_that_is_not_http_with_a_host_is_refused_before_any_request(url):
    with pytest.raises(EndpointError, match="not http"):
        ChatEndpoint(url)


def test_chat_endpoint_backs_off_exponentially_up_to_a_cap():
    attempts, delays = _failed_attempts(refused_url(), retries=7)
    assert attempts == 8
    assert delays == [0.5, 1.0, 2.0, 4.0, 8.0, 8.0, 8.0]


def test_chat_endpoint_sleeps_only_between_attempts():
    delays = []
    with chat_server((500, b"boom"), (200, {"content": "ok"})) as (url, _):
        assert ChatEndpoint(url, retries=5, sleep=delays.append).complete("x") == "ok"
    assert delays == [0.5]
    with chat_server((404, b"not found")) as (url, _):
        assert _failed_attempts(url, retries=5)[1] == []


_IMPORT_PROBE = """
import json, sys
HTTP = ("urllib.request", "http.client", "ssl")
import trajmem, trajmem.cli
from trajmem.llm import ChatEndpoint
endpoint = ChatEndpoint(sys.argv[1])
built = [name for name in HTTP if name in sys.modules]
text = endpoint.complete("hi")
print(json.dumps([built, text, [name for name in HTTP if name in sys.modules]]))
"""


def _probe(code: str, *args: str) -> str:
    """What ``code`` prints, run by a new interpreter that imports this checkout."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    ).stdout


def test_the_http_client_is_imported_only_for_an_endpoint_that_posts_through_it():
    with chat_server((200, {"content": "ok"})) as (url, posts):
        printed = _probe(_IMPORT_PROBE, url)
    assert json.loads(printed) == [[], "ok", ["urllib.request", "http.client", "ssl"]]
    assert len(posts) == 1


def test_importing_the_package_loads_no_thread_pool_and_no_uuid():
    # Only run_suite(workers > 1) starts a thread pool, and it imports its own.
    printed = _probe(
        "import json, sys, trajmem, trajmem.cli; "
        "print(json.dumps([m for m in ('concurrent.futures', 'uuid') if m in sys.modules]))"
    )
    assert json.loads(printed) == []
