"""Minimal JSON chat-endpoint client behind ``HttpPolicy`` (``--policy http:``).

It posts through the standard library's ``urllib.request``, imported on the
first ``complete``, so importing the package, and so every CLI command that
takes no ``--policy http:``, loads no HTTP stack. Like ``urlopen`` it honours
the ``HTTP(S)_PROXY`` and ``NO_PROXY`` environment variables and verifies
HTTPS certificates against the system store (``SSL_CERT_FILE`` names another
CA bundle). Unlike ``urlopen`` it follows no redirect: a 3xx reply is an
``EndpointError``, so the bearer token is sent only to the configured URL.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Callable
from urllib.parse import urlsplit

from .errors import EndpointError

# Delay before retry n (n = 1, 2, ...): base * 2 ** (n - 1) seconds, capped.
_BACKOFF_BASE_S = 0.5
_BACKOFF_CAP_S = 8.0


class ChatEndpoint:
    """POSTs chat messages to a JSON endpoint and extracts the reply text.

    The URL must be ``http`` or ``https`` and name a host. The auth token is
    read from the environment variable named by ``auth_env`` and sent as a
    bearer header when present. ``timeout`` bounds each socket operation,
    not the whole call. A transient failure (no connection, a dropped or
    garbled reply, a timeout, a 5xx status) is retried up to ``retries`` times after a capped exponential
    backoff; ``sleep`` is injectable for tests.
    """

    def __init__(
        self,
        url: str,
        model: str = "default",
        auth_env: str = "TRAJMEM_API_KEY",
        timeout: float = 30.0,
        retries: int = 2,
        sleep: Callable[[float], None] | None = None,
    ) -> None:
        parts = urlsplit(url)
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise EndpointError(f"chat endpoint URL is not http(s) with a host: {url!r}")
        self.url = url
        self.model = model
        self.auth_env = auth_env
        self.timeout = timeout
        self.retries = retries
        self._sleep = sleep or time.sleep

    def complete(self, prompt: str, system: str | None = None) -> str:
        from http.client import HTTPException
        from urllib.error import HTTPError
        from urllib.request import HTTPRedirectHandler, Request, build_opener

        class RefuseRedirects(HTTPRedirectHandler):
            def redirect_request(self, *args: Any) -> None:  # so a 3xx is an HTTPError
                return None

        messages = [{"role": "system", "content": system}] if system else []
        messages.append({"role": "user", "content": prompt})
        payload = {"model": self.model, "messages": messages}
        headers = {"Content-Type": "application/json"}
        token = os.environ.get(self.auth_env)
        if token:
            headers["Authorization"] = f"Bearer {token}"
        request = Request(self.url, json.dumps(payload).encode("utf-8"), headers)
        last_error: Exception | None = None
        for attempt in range(self.retries + 1):
            if attempt:
                self._sleep(min(_BACKOFF_CAP_S, _BACKOFF_BASE_S * 2 ** (attempt - 1)))
            try:
                with build_opener(RefuseRedirects).open(request, timeout=self.timeout) as response:
                    return _extract_text(json.loads(response.read()))
            # Refused, reset, timed out, a garbled reply, or an HTTP error status.
            except (OSError, HTTPException) as exc:
                if isinstance(exc, HTTPError):
                    exc.close()
                    if exc.code < 500:
                        raise EndpointError(f"chat endpoint {self.url} failed: {exc}") from exc
                last_error = exc
            except Exception as exc:  # noqa: BLE001 - not JSON, no text, or a bug
                raise EndpointError(f"chat endpoint {self.url} failed: {exc}") from exc
        raise EndpointError(f"chat endpoint {self.url} failed: {last_error}")


def _extract_text(data: Any) -> str:
    if isinstance(data, dict):
        choices = data.get("choices")
        if isinstance(choices, list) and choices and isinstance(choices[0], dict):
            message = choices[0].get("message", {})
            if isinstance(message, dict) and isinstance(message.get("content"), str):
                return message["content"]
            if isinstance(choices[0].get("text"), str):
                return choices[0]["text"]
        for key in ("content", "text", "completion"):
            if isinstance(data.get(key), str):
                return data[key]
    raise EndpointError("chat endpoint response has no text content")
