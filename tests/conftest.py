"""Shared test configuration: acceptance summary reporting and the
``opened`` fixture."""

from __future__ import annotations

import sqlite3

import pytest

ACCEPTANCE_RESULTS: list[tuple[str, bool, str]] = []


def record_acceptance(name: str, passed: bool, detail: str = "") -> None:
    ACCEPTANCE_RESULTS.append((name, passed, detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):  # noqa: ANN001
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name, passed, detail in ACCEPTANCE_RESULTS:
        status = "PASS" if passed else "FAIL"
        suffix = f"  ({detail})" if detail else ""
        terminalreporter.write_line(f"[{status}] {name}{suffix}")


@pytest.fixture()
def opened(monkeypatch):
    """Each connection ``sqlite3.connect`` opens, with its database argument."""
    connections: list[tuple[str, sqlite3.Connection]] = []
    original = sqlite3.connect

    def connect(database, *args, **kwargs):
        conn = original(database, *args, **kwargs)
        connections.append((str(database), conn))
        return conn

    monkeypatch.setattr(sqlite3, "connect", connect)
    yield connections
    for _, conn in connections:
        conn.close()
