"""Tool registry, workspace file access, and the builtin tool bindings.

Action code is restricted call syntax: each top-level ``tool_name(arg=value)``
statement in a step's action code becomes one tool invocation. Values must be
literals; anything else is treated as reasoning-only text.
"""

from __future__ import annotations

import ast
import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Sequence

from .backend import SqliteBackend, execute_sql_with_refinement, render_result
from .errors import ConfigurationError, ToolError, WorkspaceSecurityError
from .model import ID_PATTERN, Question, ToolInvocation, ToolParam, ToolSpec


_DDL_QUERY = (
    "SELECT sql FROM main.sqlite_master WHERE type = 'table' "
    "AND name NOT LIKE 'sqlite_%' ORDER BY name"
)


class Workspace:
    """Rooted file-system view: databases, knowledge files, and outputs.

    All relative paths resolve under the root, and database ids must match
    ID_PATTERN; escapes raise WorkspaceSecurityError.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root).resolve()
        if not self.root.is_dir():
            raise ConfigurationError(f"workspace root is not a directory: {self.root}")

    def resolve(self, relative: str) -> Path:
        candidate = (self.root / relative).resolve()
        if not candidate.is_relative_to(self.root):
            raise WorkspaceSecurityError(f"path escapes the workspace: {relative!r}")
        return candidate

    def db_dir(self, database_id: str) -> Path:
        if not ID_PATTERN.fullmatch(database_id):
            raise WorkspaceSecurityError(f"not a workspace database id: {database_id!r}")
        return self.root / "dbs" / database_id

    def db_path(self, database_id: str) -> Path:
        return self.db_dir(database_id) / f"{database_id}.sqlite"

    def database_ids(self) -> list[str]:
        dbs = self.root / "dbs"
        if not dbs.is_dir():
            return []
        return sorted(p.name for p in dbs.iterdir() if p.is_dir())

    def list_directory(self, relative: str = ".") -> str:
        target = self.resolve(relative)
        if not target.is_dir():
            raise ToolError(f"not a directory: {relative!r}")
        names = sorted(
            entry.name + ("/" if entry.is_dir() else "") for entry in target.iterdir()
        )
        return "\n".join(names) if names else "(empty directory)"

    def read_file(self, relative: str) -> str:
        target = self.resolve(relative)
        if not target.is_file():
            raise ToolError(f"no such file: {relative!r}")
        return target.read_text(encoding="utf-8")

    def ddl(self, database_id: str, backend: SqliteBackend | None = None) -> str:
        """All table definitions of the main schema in canonical (name) order.

        The schema is read through ``backend`` when it is open on this
        database, so the query has the episode's time limit and row cap, and
        otherwise through a read-only backend opened for the call alone. TEMP
        tables and views, which an agent can make on a read-only connection,
        are not part of the main schema and never show.
        """
        path = self.db_path(database_id)
        if not path.is_file():
            raise ToolError(f"unknown database: {database_id!r}")
        if backend is not None and backend.path == path:
            rows = backend.execute(_DDL_QUERY).rows
        else:
            with SqliteBackend(path) as own:
                rows = own.execute(_DDL_QUERY).rows
        return "\n\n".join(f"{sql};" for (sql,) in rows if sql)

    def knowledge(self, database_id: str) -> str:
        path = self.db_dir(database_id) / "knowledge.md"
        if not path.is_file():
            return f"(no external knowledge file for database {database_id!r})"
        return path.read_text(encoding="utf-8")


@dataclass
class EpisodeContext:
    """Mutable per-episode state shared by the tool bindings."""

    workspace: Workspace
    database_id: str
    backend: SqliteBackend
    question: Question
    answer_dir: Path | None = None
    last_sql: str | None = None
    last_columns: list[str] | None = None
    last_rows: list[tuple] | None = None
    saved_rows: list[tuple] | None = None


ToolFn = Callable[..., str]


@dataclass
class Tool:
    spec: ToolSpec
    fn: ToolFn


class ToolRegistry:
    """Named tools visible to one agent; names are unique."""

    def __init__(self, tools: Sequence[Tool] = ()) -> None:
        self._tools: dict[str, Tool] = {}
        for tool in tools:
            self.register(tool)

    def register(self, tool: Tool) -> None:
        if tool.spec.name in self._tools:
            raise ConfigurationError(f"duplicate tool name: {tool.spec.name!r}")
        self._tools[tool.spec.name] = tool

    def get(self, name: str) -> Tool | None:
        return self._tools.get(name)

    def names(self) -> list[str]:
        return sorted(self._tools)

    def specs(self) -> list[ToolSpec]:
        return [self._tools[name].spec for name in self.names()]

    def __contains__(self, name: str) -> bool:
        return name in self._tools

    def __len__(self) -> int:
        return len(self._tools)


# -- builtin tools -----------------------------------------------------------


def _list_directory(ctx: EpisodeContext, path: str = ".") -> str:
    return ctx.workspace.list_directory(path)


def _read_file(ctx: EpisodeContext, path: str = "") -> str:
    if not path:
        raise ToolError("read_file requires a path")
    return ctx.workspace.read_file(path)


def _get_ddl(ctx: EpisodeContext, database: str = "") -> str:
    return ctx.workspace.ddl(database or ctx.database_id, ctx.backend)


def _get_ext(ctx: EpisodeContext, database: str = "") -> str:
    return ctx.workspace.knowledge(database or ctx.database_id)


def file_tools() -> list[Tool]:
    return [
        Tool(
            ToolSpec(
                "list_directory",
                "List the entries of a workspace directory.",
                (ToolParam("path", "directory relative to the workspace root"),),
            ),
            _list_directory,
        ),
        Tool(
            ToolSpec(
                "read_file",
                "Read a text file from the workspace.",
                (ToolParam("path", "file relative to the workspace root"),),
            ),
            _read_file,
        ),
    ]


def database_tools() -> list[Tool]:
    return [
        Tool(
            ToolSpec(
                "get_ddl",
                "Fetch all table definitions of a database in canonical order.",
                (ToolParam("database", "database id; defaults to the episode database"),),
            ),
            _get_ddl,
        ),
        Tool(
            ToolSpec(
                "get_ext",
                "Read the external knowledge file of a database.",
                (ToolParam("database", "database id; defaults to the episode database"),),
            ),
            _get_ext,
        ),
    ]


def sql_tool(refine: Callable[[str, str], str | None] | None, retry_limit: int) -> Tool:
    def _sql_execute(ctx: EpisodeContext, query: str = "") -> str:
        if not query.strip():
            raise ToolError("sql_execute requires a query")
        outcome = execute_sql_with_refinement(
            query, ctx.backend, refine=refine, retry_limit=retry_limit
        )
        trail = []
        if len(outcome.attempts) > 1 or not outcome.succeeded:
            for number, attempt in enumerate(outcome.attempts, start=1):
                status = (
                    f"error: {attempt.error}"
                    if attempt.error is not None
                    else f"{attempt.row_count} rows"
                )
                trail.append(f"attempt {number}: {attempt.query}\n  -> {status}")
        if not outcome.succeeded:
            raise ToolError(
                f"query failed after {len(outcome.attempts)} attempt(s)\n" + "\n".join(trail)
            )
        assert outcome.result is not None
        ctx.last_sql = outcome.attempts[-1].query
        ctx.last_columns = outcome.result.columns
        ctx.last_rows = outcome.result.rows
        rendered = render_result(outcome.result)
        if trail:
            return "\n".join(trail) + "\n" + rendered
        return rendered

    return Tool(
        ToolSpec(
            "sql_execute",
            "Execute a SQL query; failed or empty runs are self-refined once.",
            (ToolParam("query", "SQL text"),),
        ),
        _sql_execute,
    )


def _validate_result(ctx: EpisodeContext) -> str:
    if ctx.last_sql is None or ctx.last_rows is None:
        raise ToolError("nothing to validate: no query has produced a result yet")
    rerun = ctx.backend.execute(ctx.last_sql)
    if len(rerun.rows) != len(ctx.last_rows):
        raise ToolError(
            f"validation failed: re-execution returned {len(rerun.rows)} rows, "
            f"previous run returned {len(ctx.last_rows)}"
        )
    return f"validation passed: {len(ctx.last_rows)} rows, row count stable on re-execution"


def _save_result(ctx: EpisodeContext) -> str:
    if ctx.last_rows is None or ctx.last_columns is None:
        raise ToolError("nothing to save: no query has produced a result yet")
    if ctx.answer_dir is not None:
        ctx.answer_dir.mkdir(parents=True, exist_ok=True)
        target = ctx.answer_dir / f"{ctx.question.id}.csv"
    else:
        outputs = ctx.workspace.root / "outputs"
        outputs.mkdir(parents=True, exist_ok=True)
        target = outputs / f"{ctx.question.id}.csv"
    with open(target, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(ctx.last_columns)
        writer.writerows(ctx.last_rows)
    ctx.saved_rows = list(ctx.last_rows)
    return f"saved {len(ctx.last_rows)} rows to {target.name}"


def validation_tools() -> list[Tool]:
    return [
        Tool(
            ToolSpec(
                "validate_result",
                "Re-execute the last query and check the row count is stable.",
            ),
            _validate_result,
        ),
        Tool(
            ToolSpec(
                "save_result",
                "Write the last result rows as an RFC-4180 CSV file.",
            ),
            _save_result,
        ),
    ]


# -- action parsing and execution --------------------------------------------


def parse_action_code(code: str) -> list[tuple[str, dict[str, Any]]]:
    """Extract ``name(kw=literal, ...)`` calls from action code, in order.

    Non-call statements and calls with positional or non-literal arguments
    are ignored, so free-form reasoning text yields no invocations.
    """
    try:
        tree = ast.parse(code)
    except SyntaxError:
        return []
    calls: list[tuple[str, dict[str, Any]]] = []
    for node in tree.body:
        if not isinstance(node, ast.Expr) or not isinstance(node.value, ast.Call):
            continue
        call = node.value
        if not isinstance(call.func, ast.Name) or call.args:
            continue
        args: dict[str, Any] = {}
        valid = True
        for keyword in call.keywords:
            if keyword.arg is None:
                valid = False
                break
            try:
                args[keyword.arg] = ast.literal_eval(keyword.value)
            except (ValueError, SyntaxError):
                valid = False
                break
        if valid:
            calls.append((call.func.id, args))
    return calls


def execute_action(
    registry: ToolRegistry, ctx: EpisodeContext, action_code: str
) -> tuple[list[ToolInvocation], str]:
    """Run every parsed call; failures become failed invocations, not crashes."""
    invocations: list[ToolInvocation] = []
    blocks: list[str] = []
    for name, args in parse_action_code(action_code):
        recorded = {key: str(value) for key, value in args.items()}
        tool = registry.get(name)
        if tool is None:
            output = f"error: unknown tool {name!r}"
            succeeded = False
        else:
            try:
                output = tool.fn(ctx, **args)
                succeeded = True
            except (ToolError, WorkspaceSecurityError) as exc:
                output = f"error: {exc}"
                succeeded = False
            except TypeError as exc:
                output = f"error: invalid arguments for {name}: {exc}"
                succeeded = False
            except Exception as exc:  # noqa: BLE001 - tool crash must not kill episode
                output = f"error: {type(exc).__name__}: {exc}"
                succeeded = False
        invocations.append(
            ToolInvocation(tool_name=name, args=recorded, output=output, succeeded=succeeded)
        )
        blocks.append(f"### {name}\n{output}")
    return invocations, "\n\n".join(blocks)
