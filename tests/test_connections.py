"""An episode reaches its database through at most one read-only connection,
which the workspace keeps for the next episode, and every connection the
package opens is closed by the time its workspace is."""

from __future__ import annotations

import gc

from trajmem.fixtures import build_fixture_workspace
from trajmem.harness import EpisodeConfig, run_episode
from trajmem.mining import MinedComposite, ToolSequence
from trajmem.model import Phase, Question
from trajmem.policies import QuestionScript, ScriptedPolicy
from trajmem.store import MemoryStore
from trajmem.synthesis import synthesize_memory
from trajmem.tools import Workspace

from helpers import still_open


def test_an_episode_opens_at_most_one_read_only_connection_and_close_leaves_none_open(
    opened, tmp_path
):
    workspace = Workspace(build_fixture_workspace(tmp_path / "ws"))
    assert opened, "building the fixtures opens the databases it writes"
    assert still_open(opened) == []

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

    def episode():
        return run_episode(
            question,
            workspace,
            EpisodeConfig(memory_enabled=False, composites_enabled=True),
            ScriptedPolicy({"f1": script}),
            composites=[composite],
        )

    before = len(opened)
    result = episode()
    tools = {inv.tool_name for step in result.trajectory.steps for inv in step.invocations}
    assert "get_ext_then_get_ddl" in tools
    first = opened[before:]
    assert len(first) == 1
    assert first[0][0].startswith("file:") and first[0][0].endswith("?mode=ro")

    # A clean episode, synthesis and get_ddl take the session the first left.
    before = len(opened)
    episode()
    synthetic = Question(id="syn-1", text="How many rows are in flights?",
                         database_id="flights", synthetic=True)
    synthesize_memory([synthetic], workspace, MemoryStore(tmp_path / "store"))
    assert "CREATE TABLE flights" in workspace.ddl("flights")
    assert opened[before:] == []

    # Another database gets a read-only session of its own, kept as well.
    assert "CREATE TABLE products" in workspace.ddl("retail")
    assert "CREATE TABLE products" in workspace.ddl("retail")
    assert [database.endswith("?mode=ro") for database, _ in opened[before:]] == [True]

    workspace.close()
    workspace.close()
    assert still_open(opened) == []
    # A closed workspace still runs episodes, on sessions it closes at their end.
    before = len(opened)
    episode()
    assert len(opened) - before == 1
    assert still_open(opened) == []


def test_a_workspace_closes_its_sessions_at_the_end_of_a_with_block_or_when_collected(
    opened, tmp_path
):
    root = build_fixture_workspace(tmp_path / "ws")
    with Workspace(root) as workspace:
        workspace.ddl("flights")
        assert len(still_open(opened)) == 1
    assert still_open(opened) == []

    workspace = Workspace(root)
    workspace.ddl("flights")
    assert len(still_open(opened)) == 1
    del workspace
    gc.collect()
    assert still_open(opened) == []

