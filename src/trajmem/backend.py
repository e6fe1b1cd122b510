"""Single-file relational backend (SQLite) with self-refining execution.

A failed or empty-result query is fed back to a refiner callback for one or
more corrected attempts; every attempt is recorded so the invocation output
can show the full trail. Each query is bounded in time, in rows and in
result size: one that runs past its time limit is interrupted, and one that
returns more rows than ``QUERY_MAX_ROWS``, or more than
``QUERY_MAX_RESULT_BYTES`` of text and blob cells (``len()`` of each, summed
as rows are fetched in batches of ``_FETCH_ROWS``), raises rather than being
cut, so a runaway query fails like any other broken one. A string or blob
past ``QUERY_MAX_VALUE_BYTES`` fails the query too, and a rendered cell is
cut at ``_RENDERED_CELL_CHARS``.
"""

from __future__ import annotations

import sqlite3
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable
from urllib.parse import quote

from .errors import ConfigurationError

Refiner = Callable[[str, str], "str | None"]

_RENDERED_ROWS = 50
# Characters of one cell an observation shows; the rest is cut and counted.
_RENDERED_CELL_CHARS = 1_000
QUERY_TIME_LIMIT_S = 10.0
QUERY_MAX_ROWS = 100_000
# Text and blob in one result, by len() of each cell: what one query may hold
# in memory, on every Python version.
QUERY_MAX_RESULT_BYTES = 32_000_000
# Rows fetched between two checks of the caps; small, so that a result of
# large values stops soon after it passes the byte budget.
_FETCH_ROWS = 16
# Bytes in one string or blob value (SQLite's length limit).
QUERY_MAX_VALUE_BYTES = 1_000_000
# SQLite virtual-machine instructions between two checks of the time limit.
_PROGRESS_INTERVAL = 10_000


@dataclass
class QueryResult:
    columns: list[str]
    rows: list[tuple]


def _deny_attach(action: int, *_: object) -> int:
    return sqlite3.SQLITE_DENY if action == sqlite3.SQLITE_ATTACH else sqlite3.SQLITE_OK


class SqliteBackend:
    """Thin wrapper over one SQLite database file."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        if not self.path.is_file():
            raise ConfigurationError(f"database file not found: {self.path}")
        self._deadline = 0.0
        # Read-only, and no ATTACH (which also covers VACUUM INTO): agent SQL
        # can neither change the database nor create a file.
        uri = f"file:{quote(str(self.path))}?mode=ro"
        self._conn = sqlite3.connect(uri, uri=True)
        self._conn.set_authorizer(_deny_attach)
        self._conn.setlimit(sqlite3.SQLITE_LIMIT_LENGTH, QUERY_MAX_VALUE_BYTES)
        # A true return interrupts the running statement, which then raises
        # sqlite3.OperationalError("interrupted").
        self._conn.set_progress_handler(
            lambda: time.monotonic() > self._deadline, _PROGRESS_INTERVAL
        )

    def execute(self, query: str) -> QueryResult:
        """Rows of one query; raises ``sqlite3.OperationalError`` when the query
        runs past ``QUERY_TIME_LIMIT_S``, returns over ``QUERY_MAX_ROWS`` rows
        or holds over ``QUERY_MAX_RESULT_BYTES`` of text and blob."""
        self._deadline = time.monotonic() + QUERY_TIME_LIMIT_S
        cursor = self._conn.execute(query)
        try:
            columns = [d[0] for d in cursor.description] if cursor.description else []
            rows: list[tuple] = []
            size = 0
            while batch := cursor.fetchmany(_FETCH_ROWS):
                rows += batch
                if len(rows) > QUERY_MAX_ROWS:
                    raise sqlite3.OperationalError(f"result has more than {QUERY_MAX_ROWS} rows")
                size += sum(
                    len(cell) for row in batch for cell in row if isinstance(cell, (str, bytes))
                )
                if size > QUERY_MAX_RESULT_BYTES:
                    raise sqlite3.OperationalError(
                        f"result has more than {QUERY_MAX_RESULT_BYTES} bytes of text and blob"
                    )
                if len(batch) < _FETCH_ROWS:
                    break
        finally:
            cursor.close()
        return QueryResult(columns=columns, rows=rows)

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "SqliteBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def render_result(result: QueryResult) -> str:
    """Deterministic plain-text table for observations."""
    if not result.columns and not result.rows:
        return "(no result set)"
    lines = [" | ".join(result.columns)]
    for row in result.rows[:_RENDERED_ROWS]:
        lines.append(" | ".join(_render_cell(cell) for cell in row))
    if len(result.rows) > _RENDERED_ROWS:
        lines.append(f"... ({len(result.rows) - _RENDERED_ROWS} more rows)")
    lines.append(f"({len(result.rows)} rows)")
    return "\n".join(lines)


def _render_cell(cell: object) -> str:
    if cell is None:
        return "NULL"
    if isinstance(cell, float):
        return f"{cell:g}"
    text = str(cell)
    cut = len(text) - _RENDERED_CELL_CHARS
    return text if cut <= 0 else f"{text[:_RENDERED_CELL_CHARS]} [truncated {cut} characters]"


@dataclass
class RefinementAttempt:
    query: str
    error: str | None
    row_count: int | None


@dataclass
class SqlOutcome:
    """Final result of executing a query with optional self-refinement."""

    result: QueryResult | None
    error: str | None
    attempts: list[RefinementAttempt] = field(default_factory=list)

    @property
    def succeeded(self) -> bool:
        return self.error is None

    @property
    def refinements(self) -> int:
        return max(0, len(self.attempts) - 1)


def execute_sql_with_refinement(
    query: str,
    backend: SqliteBackend,
    refine: Refiner | None = None,
    retry_limit: int = 1,
) -> SqlOutcome:
    """Execute a query, asking the refiner for corrections on failure.

    Both execution errors and empty result sets trigger refinement, up to
    ``retry_limit`` corrected attempts. An empty result that survives all
    attempts still counts as success; an execution error does not.
    """
    if retry_limit < 0:
        raise ValueError("retry_limit must be nonnegative")
    attempts: list[RefinementAttempt] = []
    current = query
    result: QueryResult | None = None
    error: str | None = None
    for attempt_index in range(retry_limit + 1):
        try:
            result = backend.execute(current)
            error = None
        except sqlite3.Error as exc:
            result = None
            error = str(exc)
        attempts.append(
            RefinementAttempt(
                query=current,
                error=error,
                row_count=len(result.rows) if result is not None else None,
            )
        )
        if error is None and result is not None and result.rows:
            return SqlOutcome(result=result, error=None, attempts=attempts)
        if attempt_index == retry_limit:
            break
        feedback = error if error is not None else "empty result"
        corrected = refine(current, feedback) if refine is not None else None
        if not corrected or corrected == current:
            break
        current = corrected
    if error is None:
        return SqlOutcome(result=result, error=None, attempts=attempts)
    return SqlOutcome(result=None, error=error, attempts=attempts)
