from __future__ import annotations

import dataclasses

import pytest

from oracles import reference_playbook
from trajmem.errors import StateError
from trajmem.mining import ToolSequence, name_composite
from trajmem.model import Phase, Question, Step, ToolSpec
from trajmem.policies import (
    BOOTSTRAP_COMPOSITE,
    ExplorerPolicy,
    HttpPolicy,
    PolicyDecision,
    QuestionScript,
    RecordingPolicy,
    ReplayPolicy,
    ScriptedPolicy,
    Transcript,
    schema_tables,
    transcript_fingerprint,
)

QUESTION = Question(id="f1", text="How many flights?", database_id="flights")

BASE_TOOLS = [
    ToolSpec("get_ext"),
    ToolSpec("get_ddl"),
    ToolSpec("sql_execute"),
    ToolSpec("validate_result"),
    ToolSpec("save_result"),
]
COMPOSITE_TOOLS = BASE_TOOLS + [ToolSpec(BOOTSTRAP_COMPOSITE)]

SCRIPT = QuestionScript(
    probes=["SELECT * FROM flights LIMIT 5", "SELECT COUNT(*) AS c FROM airports LIMIT 1"],
    main_sql="SELECT COUNT(*) AS n FROM flights",
    answer="36 flights",
)


def _drive(policy, tools, prefix=""):
    """Run the policy to completion, returning the decision list."""
    steps: list[Step] = []
    transcript = Transcript(question=QUESTION, context_prefix=prefix, steps=steps)
    decisions = []
    for _ in range(30):
        decision = policy.next_action(transcript, tools)
        decisions.append(decision)
        if decision.final_answer is not None:
            break
        steps.append(
            Step(
                index=len(steps),
                thought=decision.thought,
                action_code=decision.action_code,
                observation="ok",
            )
        )
    return decisions


def test_scripted_policy_base_flow_length():
    policy = ScriptedPolicy({"f1": SCRIPT})
    decisions = _drive(policy, BASE_TOOLS)
    # ext, ddl, 2 probes, plan, main, validate, save, answer
    assert len(decisions) == 9
    assert decisions[-1].final_answer == "36 flights"


def test_scripted_policy_uses_bootstrap_composite():
    policy = ScriptedPolicy({"f1": SCRIPT})
    decisions = _drive(policy, COMPOSITE_TOOLS)
    assert len(decisions) == 8
    assert BOOTSTRAP_COMPOSITE in decisions[0].action_code


def test_scripted_policy_condensed_memory_flow():
    policy = ScriptedPolicy({"f1": SCRIPT})
    decisions = _drive(policy, COMPOSITE_TOOLS, prefix="## [exploration] prior work")
    # bootstrap, main, validate, save, answer
    assert len(decisions) == 5
    assert BOOTSTRAP_COMPOSITE in decisions[0].action_code
    assert "sql_execute" in decisions[1].action_code


def test_scripted_policy_check_step_adds_reasoning():
    script = QuestionScript(probes=[], main_sql="SELECT 1", answer="x", check=True)
    decisions = _drive(ScriptedPolicy({"f1": script}), BASE_TOOLS)
    # ext, ddl, plan, main, check, validate, save, answer
    assert len(decisions) == 8
    assert decisions[4].action_code == ""


def test_scripted_policy_refine_lookup():
    script = QuestionScript(
        main_sql="SELECT wrong FROM t", refine={"SELECT wrong FROM t": "SELECT right FROM t"}
    )
    policy = ScriptedPolicy({"f1": script})
    assert policy.refine_sql("SELECT wrong FROM t", "err") == "SELECT right FROM t"
    assert policy.refine_sql("SELECT other FROM t", "err") is None


def test_scripted_policy_unknown_question_raises():
    with pytest.raises(StateError):
        ScriptedPolicy({}).next_action(Transcript(question=QUESTION), BASE_TOOLS)


@pytest.mark.parametrize("bootstrap_visible", [False, True])
@pytest.mark.parametrize("prefix", ["", "## [exploration] prior work"])
@pytest.mark.parametrize("check", [False, True])
@pytest.mark.parametrize("probes", [0, 1, 2])
def test_scripted_policy_matches_reference_playbook(probes, check, prefix, bootstrap_visible):
    script = QuestionScript(
        probes=["SELECT * FROM flights LIMIT 5", "SELECT 'it''s' AS s"][:probes],
        main_sql="SELECT COUNT(*) AS n FROM flights",
        answer="36 flights",
        check=check,
    )
    policy = ScriptedPolicy({"f1": script})
    tools = COMPOSITE_TOOLS if bootstrap_visible else BASE_TOOLS
    expected = reference_playbook(script, "flights", bool(prefix), bootstrap_visible)
    expected.append(("Script exhausted.", "", "(no answer)"))
    for position, wanted in enumerate(expected):
        steps = [Step(index=index) for index in range(position)]
        transcript = Transcript(question=QUESTION, context_prefix=prefix, steps=steps)
        decision = policy.next_action(transcript, tools)
        assert (decision.thought, decision.action_code, decision.final_answer) == wanted, position


def test_scripted_policy_builds_each_episode_playbook_once(monkeypatch):
    built = []
    build = ScriptedPolicy._playbook

    def counted(self, transcript, tools):
        built.append(transcript)
        return build(self, transcript, tools)

    monkeypatch.setattr(ScriptedPolicy, "_playbook", counted)
    policy = ScriptedPolicy({"f1": SCRIPT})
    assert len(_drive(policy, BASE_TOOLS)) == 9
    assert len(built) == 1
    # A script changed between episodes plays from the next episode on.
    policy.scripts["f1"] = QuestionScript(main_sql="SELECT 2", answer="two")
    decisions = _drive(policy, BASE_TOOLS)
    assert len(built) == 2
    assert decisions[3].action_code == "sql_execute(query='SELECT 2')"
    assert decisions[-1].final_answer == "two"
    # One transcript shown another tool list plays that list's playbook.
    transcript = Transcript(question=QUESTION)
    assert policy.next_action(transcript, BASE_TOOLS).action_code == "get_ext(database='flights')"
    assert BOOTSTRAP_COMPOSITE in policy.next_action(transcript, COMPOSITE_TOOLS).action_code


def test_scripted_policy_steps_of_interleaved_episodes_follow_their_own_playbooks():
    # As two worker threads sharing one policy may call it.
    other = Question(id="r1", text="How many orders?", database_id="retail")
    policy = ScriptedPolicy({"f1": SCRIPT, "r1": QuestionScript(main_sql="SELECT 3")})
    episodes = [
        (Transcript(question=QUESTION, context_prefix="memory", steps=[]), COMPOSITE_TOOLS),
        (Transcript(question=other, steps=[]), BASE_TOOLS),
    ]
    decisions = {0: [], 1: []}
    for _ in range(5):
        for number, (transcript, tools) in enumerate(episodes):
            decision = policy.next_action(transcript, tools)
            decisions[number].append(decision)
            transcript.steps.append(Step(index=len(transcript.steps)))
    assert decisions[0] == _drive(ScriptedPolicy({"f1": SCRIPT}), COMPOSITE_TOOLS, "memory")
    assert [d.action_code for d in decisions[1]] == [
        "get_ext(database='retail')", "get_ddl(database='retail')", "",
        "sql_execute(query='SELECT 3')", "validate_result()",
    ]


def test_bootstrap_composite_is_the_mined_name_of_the_exploration_fetch():
    fetch = ToolSequence(("get_ext", "get_ddl"), Phase.EXPLORATION)
    assert name_composite(fetch)[0] == BOOTSTRAP_COMPOSITE


def test_question_script_round_trip():
    restored = QuestionScript.from_dict(SCRIPT.to_dict())
    assert restored == SCRIPT


def test_question_script_has_no_field_that_picks_the_opening():
    names = [f.name for f in dataclasses.fields(QuestionScript)]
    assert names == ["probes", "main_sql", "answer", "check", "refine"]
    assert list(SCRIPT.to_dict()) == names
    with pytest.raises(TypeError):
        QuestionScript(main_sql="SELECT 1", memory_mode="condensed")


# -- fingerprints and replay ------------------------------------------------------


def test_fingerprint_is_stable_and_sensitive():
    t1 = Transcript(question=QUESTION, context_prefix="", steps=[])
    t2 = Transcript(question=QUESTION, context_prefix="", steps=[])
    assert transcript_fingerprint(t1) == transcript_fingerprint(t2)
    with_prefix = Transcript(question=QUESTION, context_prefix="memory", steps=[])
    assert transcript_fingerprint(with_prefix) != transcript_fingerprint(t1)


def test_record_then_replay_reproduces_decisions(tmp_path):
    recorder = RecordingPolicy(ScriptedPolicy({"f1": SCRIPT}))
    recorded = _drive(recorder, BASE_TOOLS)
    path = tmp_path / "script.json"
    recorder.save(path)

    replay = ReplayPolicy.from_file(path)
    replayed = _drive(replay, BASE_TOOLS)
    assert [d.to_dict() for d in replayed] == [d.to_dict() for d in recorded]


def test_replay_missing_fingerprint_raises(tmp_path):
    replay = ReplayPolicy({})
    with pytest.raises(StateError):
        replay.next_action(Transcript(question=QUESTION), BASE_TOOLS)


# -- explorer ----------------------------------------------------------------------


def test_explorer_policy_flow():
    policy = ExplorerPolicy()
    steps: list[Step] = []
    transcript = Transcript(question=QUESTION, context_prefix="", steps=steps)
    observations = {
        1: "CREATE TABLE airports (code TEXT);\n\nCREATE TABLE flights (id INTEGER)",
    }
    decisions = []
    for index in range(10):
        decision = policy.next_action(transcript, BASE_TOOLS)
        decisions.append(decision)
        if decision.final_answer is not None:
            break
        steps.append(
            Step(
                index=len(steps),
                thought=decision.thought,
                action_code=decision.action_code,
                observation=observations.get(index, "ok"),
            )
        )
    assert [d.to_dict() for d in decisions[:2]] == [
        {
            "thought": "Read the external knowledge file.",
            "action_code": "get_ext(database='flights')",
            "final_answer": None,
        },
        {
            "thought": "Fetch the schema definition.",
            "action_code": "get_ddl(database='flights')",
            "final_answer": None,
        },
    ]
    codes = [d.action_code for d in decisions]
    assert "get_ext" in codes[0]
    assert "get_ddl" in codes[1]
    assert "SELECT * FROM airports LIMIT 5" in codes[2]
    assert "SELECT * FROM flights LIMIT 5" in codes[3]
    assert "GROUP BY" in codes[4]
    assert decisions[5].final_answer is not None


@pytest.mark.parametrize(
    "ddl, expected",
    [
        ("CREATE TABLE t (a, b)", [("t", "a")]),
        ("CREATE TABLE t (\n    a INTEGER PRIMARY KEY,\n    b TEXT\n);", [("t", "a")]),
        ("CREATE TABLE t (\n  -- the key\n  a INTEGER\n);", [("t", "a")]),
        ("CREATE TABLE t (/* the key;\n */ a INTEGER)", [("t", "a")]),
        ("create table t(a)", [("t", "a")]),
        # No plain name follows: no word of the comment is taken for one.
        ('CREATE TABLE t (\n  -- the key\n  "a b" INTEGER\n);', [("t", "rowid")]),
        ("CREATE TABLE t", []),
        ("CREATE TABLE s (x);\n\nCREATE TABLE t (\n  y TEXT\n);", [("s", "x"), ("t", "y")]),
    ],
    ids=["untyped", "typed", "line-comment", "block-comment", "lower-case", "quoted",
         "no-columns", "two-tables"],
)
def test_schema_tables_reads_each_table_and_its_first_column(ddl, expected):
    assert schema_tables(ddl) == expected


def _explorer_attempt(ddl):
    """The explorer's aggregate query after it read ``ddl`` and probed."""
    steps = [Step(index=0), Step(index=1, observation=ddl)]
    transcript = Transcript(question=QUESTION, steps=steps)
    policy = ExplorerPolicy()
    while True:
        decision = policy.next_action(transcript, BASE_TOOLS)
        if "GROUP BY" in decision.action_code:
            return decision.action_code
        assert decision.final_answer is None
        steps.append(Step(index=len(steps)))


@pytest.mark.parametrize(
    "ddl, column",
    [
        ("CREATE TABLE t (a, b)", "a"),
        ("CREATE TABLE t (\n  -- the key\n  a INTEGER,\n  b TEXT\n);", "a"),
        ("CREATE TABLE t (\n    a INTEGER PRIMARY KEY,\n    b TEXT\n);", "a"),
        ("CREATE TABLE t (/* the key;\n */ a INTEGER, b TEXT)", "a"),
        ("create table t(a, b)", "a"),
        ('CREATE TABLE t (\n  "a b" INTEGER\n);', "rowid"),
    ],
    ids=["untyped", "comment", "typed", "block-comment", "lower-case", "quoted"],
)
def test_explorer_aggregates_the_first_column_the_templates_read(ddl, column):
    assert _explorer_attempt(ddl) == (
        f"sql_execute(query='SELECT {column}, COUNT(*) AS n FROM t GROUP BY {column} "
        "ORDER BY n DESC')"
    )


# -- http policy --------------------------------------------------------------------


class _Endpoint:
    """Stands in for a ``ChatEndpoint`` that always replies ``reply``."""

    def __init__(self, reply):
        self.reply = reply

    def complete(self, prompt, system=None):
        return self.reply


def test_http_policy_parses_thought_action():
    policy = HttpPolicy(_Endpoint('Thought: probe first\nAction:\nsql_execute(query="SELECT 1")'))
    decision = policy.next_action(Transcript(question=QUESTION), BASE_TOOLS)
    assert decision.final_answer is None
    assert decision.thought == "probe first"
    assert 'sql_execute(query="SELECT 1")' in decision.action_code


def test_http_policy_parses_final_answer():
    policy = HttpPolicy(_Endpoint("Final Answer: 42 rows"))
    decision = policy.next_action(Transcript(question=QUESTION), BASE_TOOLS)
    assert decision.final_answer == "42 rows"


def test_http_policy_refines_sql():
    policy = HttpPolicy(_Endpoint("SELECT fixed FROM t"))
    assert policy.refine_sql("SELECT broken FROM t", "err") == "SELECT fixed FROM t"
