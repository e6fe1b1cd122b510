from __future__ import annotations

import gc
import os
import sqlite3
import sys
import threading
import time

import pytest

import trajmem.backend as backend_module
import trajmem.tools as tools_module
from trajmem.backend import (
    QueryResult,
    SqliteBackend,
    execute_sql_with_refinement,
    render_result,
)
from trajmem.errors import ConfigurationError, WorkspaceSecurityError
from trajmem.fixtures import build_fixture_workspace
from trajmem.mining import MinedComposite, ToolSequence, build_composite_tool, name_composite
from trajmem.model import Phase, Question, ToolSpec, render_observation
from trajmem.tools import (
    EpisodeContext,
    Tool,
    ToolRegistry,
    Workspace,
    database_tools,
    execute_action,
    file_tools,
    parse_action_code,
    sql_tool,
    validation_tools,
)


@pytest.fixture()
def workspace(tmp_path):
    return Workspace(build_fixture_workspace(tmp_path / "ws"))


@pytest.fixture()
def ctx(workspace):
    backend = SqliteBackend(workspace.db_path("flights"))
    yield EpisodeContext(
        workspace=workspace,
        database_id="flights",
        backend=backend,
        question=Question(id="q1", text="how many flights?", database_id="flights"),
    )
    backend.close()


def _registry(ctx_policy_refine=None, retry_limit=1):
    registry = ToolRegistry()
    for tool in file_tools() + database_tools() + validation_tools():
        registry.register(tool)
    registry.register(sql_tool(ctx_policy_refine, retry_limit))
    return registry


# -- parsing ------------------------------------------------------------------


def test_parse_single_call():
    calls = parse_action_code('sql_execute(query="SELECT 1")')
    assert calls == [("sql_execute", {"query": "SELECT 1"})]


def test_parse_multiline_string_argument():
    code = 'sql_execute(query="""SELECT 1\nFROM t""")'
    calls = parse_action_code(code)
    assert calls[0][1]["query"] == "SELECT 1\nFROM t"


def test_parse_multiple_calls_in_order():
    code = "get_ext(database='flights')\nget_ddl(database='flights')"
    assert [name for name, _ in parse_action_code(code)] == ["get_ext", "get_ddl"]


def test_parse_ignores_comments_and_prose():
    assert parse_action_code("# thinking\njust words, not python") == []
    assert parse_action_code("") == []


def test_parse_ignores_positional_and_non_literal_args():
    assert parse_action_code("tool(1)") == []
    assert parse_action_code("tool(x=variable)") == []
    assert parse_action_code("get_ddl()\ntool(x=1, y=2, x=3)") == [("get_ddl", {})]


def test_two_parses_of_one_text_are_equal_and_share_no_container():
    code = "get_ddl(database='flights')\nsql_execute(query='SELECT 1')"
    first, second = parse_action_code(code), parse_action_code(code)
    assert first == second == [
        ("get_ddl", {"database": "flights"}),
        ("sql_execute", {"query": "SELECT 1"}),
    ]
    assert first is not second
    for (_, first_args), (_, second_args) in zip(first, second):
        assert first_args is not second_args


def test_a_call_of_immutable_scalars_gets_a_fresh_shallow_copy_each_time():
    code = "f(s='x', b=b'y', i=1, r=2.5, c=3j, t=True, n=None)"
    (_, held, immutable), = tools_module._parse_calls(code)
    assert immutable
    handed = [args for _ in range(3) for (_, args) in parse_action_code(code)]
    assert all(args == held for args in handed)
    assert len({id(args) for args in handed + [held]}) == 4
    handed[0]["s"] = "changed"
    handed[1]["extra"] = True
    assert parse_action_code(code) == [("f", held)]
    assert held["s"] == "x" and "extra" not in held
    # One container among the values: the whole call is deep-copied.
    (_, _, immutable), = tools_module._parse_calls("f(s='x', l=[1])")
    assert not immutable


def test_mutating_a_parse_leaves_the_next_parse_unchanged():
    code = "f(a=[1, [2]], d={'k': [3]}, s={4}, t=(5, [6]), n='x')"
    expected = [("f", {"a": [1, [2]], "d": {"k": [3]}, "s": {4}, "t": (5, [6]), "n": "x"})]
    (_, args), = parse_action_code(code)
    args["a"][1].append(0)
    args["d"]["k"].append(0)
    args["d"]["new"] = 1
    args["s"].add(0)
    args["t"][1].append(0)
    args["n"] = "changed"
    args["extra"] = True
    assert parse_action_code(code) == expected


def _run_threads(work, count):
    """Run ``work(offset)`` in ``count`` threads that switch as often as the
    interpreter allows; return the exceptions they raised."""
    raised = []

    def recorded(offset):
        try:
            work(offset)
        except BaseException as exc:  # noqa: BLE001 - the test reports it
            raised.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=recorded, args=(offset,)) for offset in range(count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    return raised


def test_threads_sharing_the_parse_memo_never_see_each_others_mutations():
    codes = [f"stress(a=[{n}, [{n}]], d={{'k': {{{n}}}}}, n={n})" for n in range(16)]
    expected = {code: [("stress", {"a": [n, [n]], "d": {"k": {n}}, "n": n})]
                for n, code in enumerate(codes)}
    mismatches = []

    def work(offset):
        for round_ in range(400):
            code = codes[(offset + round_) % len(codes)]
            calls = parse_action_code(code)
            if calls != expected[code]:
                mismatches.append(code)
            (_, args), = calls
            args["a"][1].append(-1)
            args["d"]["k"].add(-1)
            args["n"] = -1

    assert _run_threads(work, 8) == []
    assert mismatches == []


class _Finalized:
    def __del__(self):
        pass


def test_threads_parsing_new_texts_at_once_all_get_their_calls():
    # Each text misses the memo, so threads parse at the same time; the
    # garbage cycles make the collector run finalizers, and so switch
    # threads, while a parse builds its tree.
    def work(offset):
        for n in range(600):
            nested = "[" * 20 + str(n) + "]" * 20
            code = (f"deep(a={nested}, b=[{offset}, [{n}]], d={{'k': {{{n}}}}})\n"
                    f"other(x=({n}, ({offset},)))")
            assert [name for name, _ in parse_action_code(code)] == ["deep", "other"]
            for _ in range(5):
                cycle = [_Finalized()]
                cycle.append(cycle)

    thresholds = gc.get_threshold()
    gc.set_threshold(50, 2, 2)
    try:
        assert _run_threads(work, 8) == []
    finally:
        gc.set_threshold(*thresholds)


@pytest.mark.parametrize("error", [MemoryError, RecursionError])
def test_a_parse_the_process_could_not_finish_is_not_memoized(monkeypatch, error):
    code = "get_ddl(database='not_memoized')"
    tools_module._parse_calls.cache_clear()
    real_parse = tools_module.ast.parse

    def exhausted(*args, **kwargs):
        raise error

    monkeypatch.setattr(tools_module.ast, "parse", exhausted)
    assert parse_action_code(code) == []
    monkeypatch.setattr(tools_module.ast, "parse", real_parse)
    assert parse_action_code(code) == [("get_ddl", {"database": "not_memoized"})]


def test_the_parse_memo_is_bounded():
    assert tools_module._parse_calls.cache_info().maxsize == tools_module._PARSE_MEMO_SIZE
    for number in range(tools_module._PARSE_MEMO_SIZE + 10):
        assert parse_action_code(f"f(x={number})") == [("f", {"x": number})]
    assert tools_module._parse_calls.cache_info().currsize == tools_module._PARSE_MEMO_SIZE


# -- workspace ------------------------------------------------------------------


def test_list_directory_sorted(workspace):
    listing = workspace.list_directory("dbs/flights")
    assert listing.splitlines() == ["flights.sqlite", "knowledge.md", "schema.sql"]


def test_read_file_contents(workspace):
    text = workspace.read_file("dbs/flights/knowledge.md")
    assert "delay" in text


def test_path_escape_raises_security_error(workspace):
    with pytest.raises(WorkspaceSecurityError):
        workspace.read_file("../outside.txt")
    with pytest.raises(WorkspaceSecurityError):
        workspace.resolve("/etc/passwd/../passwd")
    # Twice: an id that does not match is never kept.
    for database_id in ("../../sec", "..", "/etc", "a/b", "") * 2:
        with pytest.raises(WorkspaceSecurityError):
            workspace.db_dir(database_id)


def test_database_ids_lists_only_names_that_are_ids(workspace):
    for name in (".cache", "not an id", "-x"):
        (workspace.root / "dbs" / name).mkdir()
    (workspace.root / "dbs" / "file").write_text("")
    assert workspace.database_ids() == ["flights", "retail"]


def test_get_ddl_contains_every_table(workspace):
    ddl = workspace.ddl("flights")
    for table in ("airports", "carriers", "flights"):
        assert f"CREATE TABLE {table}" in ddl
    # Canonical order: table names sorted.
    assert ddl.index("airports") < ddl.index("carriers") < ddl.index("flights")


def test_get_ddl_shows_no_temp_table_or_view_an_agent_made(ctx, workspace):
    code = (
        'sql_execute(query="CREATE TEMP TABLE zz(a)")\n'
        'sql_execute(query="CREATE TEMP VIEW zv AS SELECT 1 AS b")\n'
        "get_ddl()"
    )
    invocations, _ = execute_action(_registry(), ctx, code)
    assert [inv.succeeded for inv in invocations] == [True, True, True]
    assert ctx.backend.execute("SELECT name FROM temp.sqlite_master ORDER BY name").rows == [
        ("zv",),
        ("zz",),
    ]
    assert invocations[2].output == workspace.ddl("flights")
    assert "zz" not in invocations[2].output and "zv" not in invocations[2].output


def test_get_ddl_reads_through_the_episode_backend(ctx, workspace, monkeypatch):
    monkeypatch.setattr(
        backend_module.sqlite3, "connect", lambda *args, **kwargs: pytest.fail("new connection")
    )
    invocations, _ = execute_action(_registry(), ctx, "get_ddl()")
    assert invocations[0].succeeded and "CREATE TABLE flights" in invocations[0].output


def test_get_ddl_of_an_unknown_database_is_a_failed_invocation(ctx):
    invocations, observation = execute_action(_registry(), ctx, "get_ddl(database='nowhere')")
    assert invocations[0].succeeded is False
    assert "unknown database: 'nowhere'" in observation


def test_get_ext_missing_knowledge_gives_notice(tmp_path):
    root = build_fixture_workspace(tmp_path / "ws")
    (root / "dbs" / "flights" / "knowledge.md").unlink()
    workspace = Workspace(root)
    assert "no external knowledge file" in workspace.knowledge("flights")


def test_knowledge_is_read_again_when_the_file_stamp_changes(workspace, monkeypatch):
    path = workspace.db_dir("flights") / "knowledge.md"
    first = workspace.knowledge("flights")
    with monkeypatch.context() as patched:
        patched.setattr(type(path), "read_text", lambda *args, **kwargs: pytest.fail("read"))
        assert workspace.knowledge("flights") == first

    # An in-place edit that keeps the size and sets the mtime back; past one
    # tick of a coarse file-system clock, so the status-change time moves.
    before = os.stat(path)
    time.sleep(0.05)
    edited = first.replace("delay", "DELAY")
    assert edited != first
    path.write_text(edited, encoding="utf-8")
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = os.stat(path)
    assert (after.st_ino, after.st_mtime_ns, after.st_size) == (
        before.st_ino, before.st_mtime_ns, before.st_size
    )
    assert workspace.knowledge("flights") == edited

    # Replaced by another file of the same size and mtime.
    other = path.with_name("other.md")
    other.write_text(first, encoding="utf-8")
    os.utime(other, ns=(after.st_atime_ns, after.st_mtime_ns))
    os.replace(other, path)
    assert workspace.knowledge("flights") == first

    path.unlink()
    notice = "(no external knowledge file for database 'flights')"
    assert workspace.knowledge("flights") == notice
    path.mkdir()
    assert workspace.knowledge("flights") == notice


@pytest.fixture()
def nested_ctx(tmp_path):
    """An episode context whose workspace is two levels below ``tmp_path``,
    with knowledge files and a database where escaping ids resolve to."""
    workspace = Workspace(build_fixture_workspace(tmp_path / "x" / "ws"))
    for folder in (tmp_path / "x", tmp_path / "x" / "sec", tmp_path / "sec"):
        folder.mkdir(exist_ok=True)
        (folder / "knowledge.md").write_text("outside knowledge", encoding="utf-8")
    # db_path('../../sec') and db_path(<tmp_path>/sec) both name this file.
    conn = sqlite3.connect(tmp_path / "sec.sqlite")
    conn.execute("CREATE TABLE outside_secrets (v TEXT)")
    conn.close()
    backend = SqliteBackend(workspace.db_path("flights"))
    yield EpisodeContext(
        workspace=workspace,
        database_id="flights",
        backend=backend,
        question=Question(id="q1", text="how many flights?", database_id="flights"),
    )
    backend.close()


@pytest.mark.parametrize(
    "action",
    [
        "get_ext(database='../..')",
        "get_ext(database='../../sec')",
        "get_ddl(database='../../sec')",
        "get_ext(database={absolute!r})",
        "get_ddl(database={absolute!r})",
    ],
)
def test_database_tools_cannot_read_outside_the_workspace(nested_ctx, tmp_path, action):
    code = action.format(absolute=str(tmp_path / "sec"))
    invocations, observation = execute_action(_registry(), nested_ctx, code)
    assert invocations[0].succeeded is False
    assert "outside knowledge" not in observation
    assert "outside_secrets" not in observation


def test_workspace_requires_existing_root(tmp_path):
    with pytest.raises(ConfigurationError):
        Workspace(tmp_path / "missing")


# -- execution ---------------------------------------------------------------------


def test_execute_action_unknown_tool_is_failed_invocation(ctx):
    registry = _registry()
    invocations, observation = execute_action(registry, ctx, "nonexistent(x=1)")
    assert invocations[0].succeeded is False
    assert "unknown tool" in invocations[0].output
    assert "unknown tool" in observation


def test_execute_action_tool_crash_is_failed_invocation(ctx):
    registry = ToolRegistry()

    def boom(ctx):
        raise RuntimeError("kaput")

    registry.register(Tool(ToolSpec("crashy"), boom))
    invocations, _ = execute_action(registry, ctx, "crashy()")
    assert invocations[0].succeeded is False
    assert "RuntimeError" in invocations[0].output


def test_execute_action_observation_is_the_rendering_of_its_outputs(ctx):
    registry = _registry()

    def boom(ctx):
        raise RuntimeError("kaput")

    registry.register(Tool(ToolSpec("crashy"), boom))
    for tools in (("get_ext", "get_ddl"), ("get_ext", "crashy")):
        sequence = ToolSequence(tools=tools, phase=Phase.EXPLORATION)
        name, description = name_composite(sequence)
        build_composite_tool(MinedComposite(sequence, 2, 1.0, name, description), registry)
    action = (
        "get_ext_then_get_ddl(database='flights')\n"
        "get_ext_then_crashy(database='flights')\n"
        "crashy()\nnonexistent(x=1)\nget_ddl(database='nowhere')"
    )
    invocations, observation = execute_action(registry, ctx, action)
    assert [inv.succeeded for inv in invocations] == [True, False, False, False, False]
    assert observation == render_observation(
        (inv.tool_name, inv.output) for inv in invocations
    )
    pieces, _ = execute_action(
        registry, ctx, "get_ext(database='flights')\nget_ddl(database='flights')"
    )
    assert invocations[0].output == render_observation(
        (inv.tool_name, inv.output) for inv in pieces
    )
    assert f"partial outputs:\n{render_observation([('get_ext', pieces[0].output)])}" in (
        invocations[1].output
    )


def test_execute_action_observation_has_per_tool_headers(ctx):
    registry = _registry()
    _, observation = execute_action(
        registry, ctx, "get_ext(database='flights')\nget_ddl(database='flights')"
    )
    assert observation.index("### get_ext") < observation.index("### get_ddl")


def test_registry_rejects_duplicate_names():
    registry = ToolRegistry()
    registry.register(Tool(ToolSpec("a"), lambda ctx: ""))
    with pytest.raises(ConfigurationError):
        registry.register(Tool(ToolSpec("a"), lambda ctx: ""))


def test_sql_tool_success_records_context(ctx):
    registry = _registry()
    invocations, _ = execute_action(
        registry, ctx, 'sql_execute(query="SELECT COUNT(*) AS n FROM flights")'
    )
    assert invocations[0].succeeded
    assert ctx.last_rows == [(36,)]
    assert ctx.last_sql == "SELECT COUNT(*) AS n FROM flights"


def test_validate_before_query_fails(ctx):
    registry = _registry()
    invocations, _ = execute_action(registry, ctx, "validate_result()")
    assert invocations[0].succeeded is False


def test_validate_and_save_flow(ctx, tmp_path):
    registry = _registry()
    ctx.answer_dir = tmp_path / "answers"
    execute_action(registry, ctx, 'sql_execute(query="SELECT COUNT(*) AS n FROM flights")')
    invocations, _ = execute_action(registry, ctx, "validate_result()\nsave_result()")
    assert all(inv.succeeded for inv in invocations)
    saved = (tmp_path / "answers" / "q1.csv").read_text()
    assert saved.splitlines()[0] == "n"
    assert saved.splitlines()[1] == "36"
    assert ctx.saved_rows == [(36,)]


def test_save_result_cannot_overwrite_workspace_files(ctx, workspace, tmp_path):
    registry = _registry()
    ctx.answer_dir = tmp_path / "answers"
    targets = [workspace.root / "gold" / "f1.csv", workspace.db_path("flights")]
    before = [target.read_bytes() for target in targets]
    execute_action(registry, ctx, 'sql_execute(query="SELECT COUNT(*) AS n FROM flights")')
    invocations, _ = execute_action(
        registry,
        ctx,
        'save_result(path="gold/f1.csv")\n'
        'save_result(path="dbs/flights/flights.sqlite")',
    )
    assert [inv.succeeded for inv in invocations] == [False, False]
    assert [target.read_bytes() for target in targets] == before
    assert ctx.saved_rows is None


@pytest.mark.parametrize(
    "statement",
    [
        "DROP TABLE carriers",
        "DELETE FROM carriers",
        "CREATE TABLE extra (a INT)",
        "ATTACH DATABASE '{outside}' AS outside",
        "VACUUM INTO '{outside}'",
    ],
)
def test_sql_execute_cannot_change_the_workspace(ctx, workspace, tmp_path, statement):
    registry = _registry()
    outside = tmp_path / "outside" / "x.sqlite"
    outside.parent.mkdir()
    db_before = workspace.db_path("flights").read_bytes()
    invocations, _ = execute_action(
        registry, ctx, f"sql_execute(query={statement.format(outside=outside)!r})"
    )
    assert invocations[0].succeeded is False
    assert not outside.exists()
    assert workspace.db_path("flights").read_bytes() == db_before
    with sqlite3.connect(str(workspace.db_path("flights"))) as conn:
        assert conn.execute("SELECT COUNT(*) FROM carriers").fetchone()[0] > 0


def test_backend_opens_a_path_with_uri_characters(tmp_path):
    path = tmp_path / "a?b #%20" / "x.sqlite"
    path.parent.mkdir()
    with sqlite3.connect(str(path)) as conn:
        conn.execute("CREATE TABLE t (a INT)")
        conn.execute("INSERT INTO t VALUES (1)")
    with SqliteBackend(path) as backend:
        assert backend.execute("SELECT a FROM t").rows == [(1,)]


_COUNT_TO = "WITH RECURSIVE c(n) AS (SELECT 1 UNION ALL SELECT n + 1 FROM c WHERE n < {}) "


def test_backend_interrupts_a_query_past_its_time_limit(workspace, monkeypatch):
    monkeypatch.setattr(backend_module, "QUERY_TIME_LIMIT_S", 0.2)
    runaway = _COUNT_TO.format(10**10) + "SELECT MAX(n) FROM c"
    with SqliteBackend(workspace.db_path("flights")) as backend:
        started = time.monotonic()
        with pytest.raises(sqlite3.OperationalError, match="interrupted"):
            backend.execute(runaway)
        assert time.monotonic() - started < 5.0
        assert backend.execute("SELECT COUNT(*) FROM flights").rows == [(36,)]


def test_interrupted_query_goes_through_refinement(workspace, monkeypatch):
    monkeypatch.setattr(backend_module, "QUERY_TIME_LIMIT_S", 0.2)
    runaway = _COUNT_TO.format(10**10) + "SELECT MAX(n) FROM c"
    with SqliteBackend(workspace.db_path("flights")) as backend:
        outcome = execute_sql_with_refinement(
            runaway, backend, refine=lambda query, feedback: "SELECT COUNT(*) FROM flights"
        )
    assert outcome.succeeded and outcome.result.rows == [(36,)]
    assert "interrupted" in outcome.attempts[0].error


def test_backend_raises_instead_of_truncating_a_large_result(workspace):
    with SqliteBackend(workspace.db_path("flights")) as backend:
        with pytest.raises(sqlite3.OperationalError, match="more than 100000 rows"):
            backend.execute(_COUNT_TO.format(300_000) + "SELECT n FROM c")
        assert len(backend.execute(_COUNT_TO.format(100_000) + "SELECT n FROM c").rows) == 100_000


def test_backend_row_cap_is_exact(workspace, monkeypatch):
    monkeypatch.setattr(backend_module, "QUERY_MAX_ROWS", 5)
    with SqliteBackend(workspace.db_path("flights")) as backend:
        assert backend.execute(_COUNT_TO.format(5) + "SELECT n FROM c").rows == [
            (1,), (2,), (3,), (4,), (5,)
        ]
        outcome = execute_sql_with_refinement(
            _COUNT_TO.format(6) + "SELECT n FROM c", backend, retry_limit=0
        )
    assert not outcome.succeeded and "more than 5 rows" in outcome.error


def test_backend_fails_a_result_past_its_byte_budget(workspace, monkeypatch):
    monkeypatch.setattr(backend_module, "QUERY_MAX_RESULT_BYTES", 5_000)
    blobs = _COUNT_TO + "SELECT n, zeroblob(100) FROM c"
    texts = _COUNT_TO + "SELECT n, printf('%.2000c', 'x') FROM c"
    with SqliteBackend(workspace.db_path("flights")) as backend:
        # 50 blobs of 100 bytes are the whole budget; integers count for nothing.
        assert len(backend.execute(blobs.format(50)).rows) == 50
        with pytest.raises(sqlite3.OperationalError, match="more than 5000 bytes"):
            backend.execute(blobs.format(51))
        assert backend.execute(texts.format(2)).rows == [(1, "x" * 2000), (2, "x" * 2000)]
        outcome = execute_sql_with_refinement(texts.format(3), backend, retry_limit=0)
        assert backend.execute("SELECT COUNT(*) FROM flights").rows == [(36,)]
    assert not outcome.succeeded and "more than 5000 bytes" in outcome.error


def test_render_result_cuts_a_long_cell_and_marks_the_cut():
    cap = backend_module._RENDERED_CELL_CHARS
    rows = [("x" * cap, "y" * (cap + 7), b"\x00" * cap)]
    lines = render_result(QueryResult(columns=["a", "b", "c"], rows=rows)).splitlines()
    a, b, c = lines[1].split(" | ")
    assert a == "x" * cap
    assert b == "y" * cap + " [truncated 7 characters]"
    assert c.startswith("b'\\x00") and c.endswith(f" [truncated {3 * cap + 3} characters]")


def test_backend_fails_a_value_past_the_length_limit(workspace):
    limit = backend_module.QUERY_MAX_VALUE_BYTES
    with SqliteBackend(workspace.db_path("flights")) as backend:
        assert backend.execute(f"SELECT length(zeroblob({limit}))").rows == [(limit,)]
        with pytest.raises(sqlite3.DataError, match="too big"):
            backend.execute(f"SELECT zeroblob({limit + 1})")


# -- SQL self-refinement --------------------------------------------------------------


@pytest.fixture()
def backend(workspace):
    b = SqliteBackend(workspace.db_path("flights"))
    yield b
    b.close()


def test_refinement_not_needed_for_valid_query(backend):
    outcome = execute_sql_with_refinement(
        "SELECT COUNT(*) FROM flights", backend, refine=None, retry_limit=1
    )
    assert outcome.succeeded and outcome.refinements == 0
    assert outcome.result.rows == [(36,)]


def test_refinement_fixes_misspelled_column(backend):
    def refine(query, feedback):
        assert "distnace_km" in query
        assert "no such column" in feedback
        return query.replace("distnace_km", "distance_km")

    outcome = execute_sql_with_refinement(
        "SELECT MAX(distnace_km) FROM flights", backend, refine=refine, retry_limit=1
    )
    assert outcome.succeeded
    assert outcome.refinements == 1
    assert len(outcome.attempts) == 2
    assert outcome.attempts[0].error is not None


def test_refinement_exhausts_and_fails(backend):
    def refine(query, feedback):
        return "SELECT also_wrong FROM flights"

    outcome = execute_sql_with_refinement(
        "SELECT wrong FROM flights", backend, refine=refine, retry_limit=1
    )
    assert not outcome.succeeded
    assert len(outcome.attempts) == 2


def test_refinement_disabled_fails_immediately(backend):
    def refine(query, feedback):
        return query.replace("distnace_km", "distance_km")

    outcome = execute_sql_with_refinement(
        "SELECT MAX(distnace_km) FROM flights", backend, refine=refine, retry_limit=0
    )
    assert not outcome.succeeded
    assert len(outcome.attempts) == 1


def test_empty_result_triggers_refinement_feedback(backend):
    feedbacks = []

    def refine(query, feedback):
        feedbacks.append(feedback)
        return None

    outcome = execute_sql_with_refinement(
        "SELECT * FROM flights WHERE year = 1900", backend, refine=refine, retry_limit=1
    )
    assert outcome.succeeded  # empty but executable
    assert outcome.result.rows == []
    assert feedbacks == ["empty result"]


def test_sql_tool_records_attempt_trail_in_output(ctx):
    def refine(query, feedback):
        return query.replace("distnace_km", "distance_km")

    registry = ToolRegistry()
    registry.register(sql_tool(refine, 1))
    invocations, _ = execute_action(
        registry, ctx, 'sql_execute(query="SELECT MAX(distnace_km) AS m FROM flights")'
    )
    assert invocations[0].succeeded
    assert "attempt 1" in invocations[0].output
    assert "attempt 2" in invocations[0].output
