"""Every SQLite connection the package opens is closed by the call that opened
it, and an episode reaches its database through one read-only connection."""

from __future__ import annotations

import sqlite3

import pytest

from trajmem.fixtures import build_fixture_workspace
from trajmem.harness import EpisodeConfig, run_episode
from trajmem.mining import MinedComposite, ToolSequence
from trajmem.model import Phase, Question
from trajmem.policies import QuestionScript, ScriptedPolicy
from trajmem.store import MemoryStore
from trajmem.synthesis import synthesize_memory
from trajmem.tools import Workspace


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


def _is_closed(conn: sqlite3.Connection) -> bool:
    try:
        conn.total_changes
    except sqlite3.ProgrammingError:
        return True
    return False


def test_every_connection_is_closed_and_an_episode_opens_one_read_only(opened, tmp_path):
    workspace = Workspace(build_fixture_workspace(tmp_path / "ws"))
    assert opened, "building the fixtures opens the databases it writes"

    composite = MinedComposite(
        sequence=ToolSequence(tools=("get_ext", "get_ddl"), phase=Phase.EXPLORATION),
        support_count=4,
        support_ratio=1.0,
        name="get_ext_then_get_ddl",
        description="knowledge then schema",
    )
    script = QuestionScript(
        probes=["SELECT * FROM flights LIMIT 5"],
        main_sql="SELECT COUNT(*) AS n FROM flights",
        answer="36 flights in total",
    )
    question = Question(id="f1", text="How many flights are there?", database_id="flights")
    before = len(opened)
    result = run_episode(
        question,
        workspace,
        EpisodeConfig(memory_enabled=False, composites_enabled=True),
        ScriptedPolicy({"f1": script}),
        composites=[composite],
    )
    tools = {inv.tool_name for step in result.trajectory.steps for inv in step.invocations}
    assert "get_ext_then_get_ddl" in tools
    episode = opened[before:]
    assert len(episode) == 1
    assert episode[0][0].startswith("file:") and episode[0][0].endswith("?mode=ro")

    synthetic = Question(id="syn-1", text="How many rows are in flights?",
                         database_id="flights", synthetic=True)
    before = len(opened)
    synthesize_memory([synthetic], workspace, MemoryStore(tmp_path / "store"))
    assert [database.endswith("?mode=ro") for database, _ in opened[before:]] == [True]

    before = len(opened)
    assert "CREATE TABLE products" in workspace.ddl("retail")
    assert [database.endswith("?mode=ro") for database, _ in opened[before:]] == [True]

    still_open = [database for database, conn in opened if not _is_closed(conn)]
    assert still_open == []
