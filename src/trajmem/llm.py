"""Minimal JSON chat-endpoint client behind ``HttpPolicy`` (``--policy http:``).

``requests`` is imported on first use, by a ``ChatEndpoint`` built without
an injected ``post`` or when a failure has to be classified, so importing
the package, and so every CLI command that takes no ``--policy http:``,
loads no HTTP stack.
"""

from __future__ import annotations

import os
import time
from typing import Any, Callable

from .errors import EndpointError

# Delay before retry n (n = 1, 2, ...): base * 2 ** (n - 1) seconds, capped.
_BACKOFF_BASE_S = 0.5
_BACKOFF_CAP_S = 8.0


class ChatEndpoint:
    """POSTs chat messages to a JSON endpoint and extracts the reply text.

    The auth token is read from the environment variable named by
    ``auth_env`` and sent as a bearer header when present. A transient
    failure is retried up to ``retries`` times after a capped exponential
    backoff. ``post`` and ``sleep`` are injectable for tests.
    """

    def __init__(
        self,
        url: str,
        model: str = "default",
        auth_env: str = "TRAJMEM_API_KEY",
        timeout: float = 30.0,
        retries: int = 2,
        post: Callable[..., Any] | None = None,
        sleep: Callable[[float], None] | None = None,
    ) -> None:
        self.url = url
        self.model = model
        self.auth_env = auth_env
        self.timeout = timeout
        self.retries = retries
        if post is None:
            import requests

            post = requests.post
        self._post = post
        self._sleep = sleep or time.sleep

    def complete(self, prompt: str, system: str | None = None) -> str:
        messages = []
        if system:
            messages.append({"role": "system", "content": system})
        messages.append({"role": "user", "content": prompt})
        payload = {"model": self.model, "messages": messages}
        headers = {"Content-Type": "application/json"}
        token = os.environ.get(self.auth_env)
        if token:
            headers["Authorization"] = f"Bearer {token}"
        last_error: Exception | None = None
        for attempt in range(self.retries + 1):
            if attempt:
                self._sleep(min(_BACKOFF_CAP_S, _BACKOFF_BASE_S * 2 ** (attempt - 1)))
            try:
                response = self._post(
                    self.url, json=payload, headers=headers, timeout=self.timeout
                )
                response.raise_for_status()
                return _extract_text(response.json())
            except Exception as exc:  # noqa: BLE001 - only transient failures retried
                if not _transient(exc):
                    raise EndpointError(f"chat endpoint {self.url} failed: {exc}") from exc
                last_error = exc
        raise EndpointError(f"chat endpoint {self.url} failed: {last_error}")


def _transient(exc: Exception) -> bool:
    """Connection failures, timeouts and 5xx responses; a retry may succeed."""
    import requests

    if isinstance(exc, requests.HTTPError):
        return exc.response is not None and exc.response.status_code >= 500
    if isinstance(exc, requests.RequestException):
        return isinstance(exc, (requests.ConnectionError, requests.Timeout))
    return isinstance(exc, OSError)


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
