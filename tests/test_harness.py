from __future__ import annotations

import csv
import dataclasses
import json
import os
import re

import pytest

import trajmem.backend as backend_module
from trajmem.errors import ConfigurationError
from trajmem.fixtures import build_fixture_workspace
from trajmem.harness import (
    EpisodeConfig,
    build_planner_registry,
    load_questions_file,
    run_episode,
    run_suite,
)
import trajmem.harness as harness_module
from trajmem.mining import MinedComposite, ToolSequence, export_manifest, load_manifest
from trajmem.model import Phase, Question, Step, Trajectory
from trajmem.policies import (
    Policy, PolicyDecision, QuestionScript, ScriptedPolicy, Transcript
)
from trajmem.retrieval import select_trajectory
import trajmem.store as store_module
from trajmem.store import MemoryStore
from trajmem.synthesis import synthesize_memory
from trajmem.tools import Workspace

from helpers import trajectory


@pytest.fixture()
def workspace(tmp_path):
    return Workspace(build_fixture_workspace(tmp_path / "ws"))


@pytest.fixture()
def memory(tmp_path, workspace):
    store = MemoryStore(tmp_path / "store")
    question = Question(
        id="syn-flights-001",
        text="How many rows are in flights?",
        database_id="flights",
        synthetic=True,
    )
    synthesize_memory([question], workspace, store)
    return store


UNIT_SCRIPT = QuestionScript(
    probes=["SELECT * FROM flights LIMIT 5"],
    main_sql="SELECT COUNT(*) AS n FROM flights",
    answer="36 flights in total",
)

UNIT_QUESTION = Question(id="f1", text="How many flights are recorded in total?",
                         database_id="flights")


def _config(**kwargs):
    defaults = dict(memory_enabled=False, composites_enabled=False)
    defaults.update(kwargs)
    return EpisodeConfig(**defaults)


def test_scripted_episode_base_path(workspace):
    policy = ScriptedPolicy({"f1": UNIT_SCRIPT})
    result = run_episode(UNIT_QUESTION, workspace, _config(), policy)
    assert len(result.trajectory.steps) == 8
    assert result.answer == "36 flights in total"
    assert result.answer_rows == [(36,)]
    assert result.trajectory.final_answer == result.answer


def test_memory_prefix_skips_the_probes_and_the_plan(workspace, memory):
    policy = ScriptedPolicy({"f1": UNIT_SCRIPT})
    result = run_episode(
        UNIT_QUESTION,
        workspace,
        _config(memory_enabled=True),
        policy,
        memory_store=memory,
    )
    assert len(result.trajectory.steps) == 6  # 8 minus probe and plan
    assert result.answer == "36 flights in total"


def test_memory_prefix_is_the_exploration_segment(workspace, memory):
    entry = memory.load_entries("flights")[0]
    expected = memory.load_phase_segment(entry, Phase.EXPLORATION)
    seen = {}

    class Spy(Policy):
        def next_action(self, transcript, tools):
            seen["prefix"] = transcript.context_prefix
            return PolicyDecision(thought="", final_answer="stop")

    run_episode(
        UNIT_QUESTION,
        workspace,
        _config(memory_enabled=True),
        Spy(),
        memory_store=memory,
    )
    assert seen["prefix"] == expected
    assert expected.startswith("## [exploration]")


def test_memory_disabled_never_touches_store(workspace, tmp_path):
    seen = {}

    class Spy(Policy):
        def next_action(self, transcript, tools):
            seen["prefix"] = transcript.context_prefix
            seen["tools"] = {t.name for t in tools}
            return PolicyDecision(thought="", final_answer="stop")

    # Store root does not even exist; memory disabled must not look at it.
    run_episode(
        UNIT_QUESTION,
        workspace,
        _config(memory_enabled=False),
        Spy(),
        memory_store=None,
    )
    assert seen["prefix"] == ""
    assert "retrieve_trajectory" not in seen["tools"]


def test_budget_exhaustion_returns_no_answer(workspace):
    class NeverAnswer(Policy):
        def next_action(self, transcript, tools):
            return PolicyDecision(thought="loop", action_code="get_ddl()")

    config = _config(max_planner_steps=6)
    result = run_episode(UNIT_QUESTION, workspace, config, NeverAnswer())
    assert len(result.trajectory.steps) == 6
    assert result.answer is None
    assert result.trajectory.final_answer is None


def test_tool_crash_is_recorded_and_episode_continues(workspace):
    class CrashThenAnswer(Policy):
        def next_action(self, transcript, tools):
            if not transcript.steps:
                return PolicyDecision(thought="try", action_code="read_file(path='missing.txt')")
            return PolicyDecision(thought="", final_answer="gave up")

    result = run_episode(UNIT_QUESTION, workspace, _config(), CrashThenAnswer())
    first = result.trajectory.steps[0]
    assert first.invocations[0].succeeded is False
    assert "error" in first.observation
    assert result.answer == "gave up"


class _ActThenAnswer(Policy):
    """Emit one fixed action, then answer."""

    def __init__(self, action_code):
        self.action_code = action_code

    def next_action(self, transcript, tools):
        if not transcript.steps:
            return PolicyDecision(thought="try", action_code=self.action_code)
        return PolicyDecision(thought="", final_answer="gave up")


@pytest.mark.parametrize(
    "action_code",
    [
        "sql_execute(query={['a']: 1})",  # unhashable dict key: TypeError
        "sql_execute(query={1, [2]})",  # unhashable set member: TypeError
        "sql_execute(query=" + "-" * 100000 + "1)",  # too deep for the parser
        "sql_execute(query='SELECT 1', query='SELECT 2')",  # compile: keyword repeated
    ],
    ids=["unhashable-key", "unhashable-member", "deep-nesting", "repeated-keyword"],
)
def test_a_literal_that_fails_to_evaluate_is_reasoning_text(workspace, action_code):
    result = run_episode(UNIT_QUESTION, workspace, _config(), _ActThenAnswer(action_code))
    first = result.trajectory.steps[0]
    assert first.action_code == action_code
    assert first.invocations == []
    assert result.answer == "gave up"


def test_an_argument_too_large_to_show_is_a_failed_invocation(workspace):
    action_code = "sql_execute(query=0x" + "f" * 5000 + ")"
    result = run_episode(UNIT_QUESTION, workspace, _config(), _ActThenAnswer(action_code))
    (invocation,) = result.trajectory.steps[0].invocations
    assert invocation.tool_name == "sql_execute"
    assert invocation.succeeded is False
    assert invocation.args == {"query": "<int too large to show>"}
    assert "invalid arguments for sql_execute" in invocation.output
    assert result.answer == "gave up"
    json.loads(result.trajectory.to_json())


@pytest.mark.parametrize("length_limit", ["sqlite", "none"])
def test_a_huge_sql_value_keeps_the_observation_small(workspace, monkeypatch, length_limit):
    if length_limit == "none":  # a value the length limit lets through: the cell cut bounds it
        monkeypatch.setattr(backend_module, "QUERY_MAX_VALUE_BYTES", 10**9)
    action_code = 'sql_execute(query="SELECT zeroblob(20000000) AS b")'
    result = run_episode(UNIT_QUESTION, workspace, _config(), _ActThenAnswer(action_code))
    (invocation,) = result.trajectory.steps[0].invocations
    assert len(result.trajectory.steps[0].observation) < 10_000
    assert len(result.trajectory.to_json()) < 20_000
    assert invocation.succeeded is (length_limit == "none")


def test_episode_determinism_modulo_wall_time(workspace):
    policy = ScriptedPolicy({"f1": UNIT_SCRIPT})
    results = [
        run_episode(UNIT_QUESTION, workspace, _config(), policy) for _ in range(2)
    ]
    dumps = []
    for result in results:
        clone = dataclasses.replace(result.trajectory, wall_time_ms=0)
        dumps.append(clone.to_json().encode())
    assert dumps[0] == dumps[1]


def test_planner_registry_hygiene():
    config = EpisodeConfig()
    registry = build_planner_registry(config, ScriptedPolicy({}))
    assert "vector_search" not in registry
    for name in ("sql_execute", "get_ddl", "get_ext", "validate_result", "save_result"):
        assert name in registry


def test_vector_search_never_invoked_at_planner_level(workspace):
    class TryVectorSearch(Policy):
        def next_action(self, transcript, tools):
            if not transcript.steps:
                return PolicyDecision(thought="", action_code="vector_search(query='x')")
            return PolicyDecision(thought="", final_answer="done")

    result = run_episode(UNIT_QUESTION, workspace, _config(), TryVectorSearch())
    invocation = result.trajectory.steps[0].invocations[0]
    assert invocation.succeeded is False
    assert "unknown tool" in invocation.output


def test_retrieve_trajectory_tool_pulls_phase_segments(workspace, memory):
    class PullValidation(Policy):
        def next_action(self, transcript, tools):
            if not transcript.steps:
                return PolicyDecision(
                    thought="check prior execution work",
                    action_code="retrieve_trajectory(phase='execution')",
                )
            return PolicyDecision(thought="", final_answer="done")

    result = run_episode(
        UNIT_QUESTION,
        workspace,
        _config(memory_enabled=True),
        PullValidation(),
        memory_store=memory,
    )
    invocation = result.trajectory.steps[0].invocations[0]
    assert invocation.succeeded
    assert "retrieved trajectory" in invocation.output


def test_episode_config_validation():
    with pytest.raises(ValueError):
        EpisodeConfig(max_planner_steps=0)
    with pytest.raises(ValueError):
        EpisodeConfig(sql_retry_limit=-1)
    assert EpisodeConfig().max_planner_steps == 30


# -- composites in episodes ----------------------------------------------------------


def _bootstrap_composite():
    return MinedComposite(
        sequence=ToolSequence(tools=("get_ext", "get_ddl"), phase=Phase.EXPLORATION),
        support_count=4,
        support_ratio=1.0,
        name="get_ext_then_get_ddl",
        description="knowledge then schema",
    )


def test_composite_merges_exactly_one_boundary(workspace):
    policy = ScriptedPolicy({"f1": UNIT_SCRIPT})
    without = run_episode(UNIT_QUESTION, workspace, _config(), policy)
    with_composites = run_episode(
        UNIT_QUESTION,
        workspace,
        _config(composites_enabled=True),
        policy,
        composites=[_bootstrap_composite()],
    )
    merged_pairs = 1  # (get_ext, get_ddl) is the only mined pair in the flow
    assert len(without.trajectory.steps) - len(with_composites.trajectory.steps) == merged_pairs
    used = {
        inv.tool_name
        for step in with_composites.trajectory.steps
        for inv in step.invocations
    }
    assert "get_ext_then_get_ddl" in used


def test_no_composites_flag_keeps_tool_names_primitive(workspace):
    policy = ScriptedPolicy({"f1": UNIT_SCRIPT})
    result = run_episode(
        UNIT_QUESTION,
        workspace,
        _config(composites_enabled=False),
        policy,
        composites=[_bootstrap_composite()],
    )
    used = {
        inv.tool_name for step in result.trajectory.steps for inv in step.invocations
    }
    assert "get_ext_then_get_ddl" not in used


# -- run_suite ------------------------------------------------------------------------


def test_run_suite_writes_records_and_trajectories(workspace, tmp_path):
    records = load_questions_file(workspace.root / "questions.jsonl")[:3]
    suite = run_suite(
        records,
        workspace,
        tmp_path / "runs",
        _config(),
    )
    assert len(suite.records) == 3
    for record in records:
        qid = record.question.id
        assert (tmp_path / "runs" / "records" / f"{qid}.json").is_file()
        assert (tmp_path / "runs" / "trajectories" / f"{qid}.json").is_file()
        assert (tmp_path / "runs" / "answers" / f"{qid}.csv").is_file()
    assert all(r.correct is True for r in suite.records)


def test_run_suite_records_a_blob_answer_as_its_csv_text(workspace, tmp_path):
    script = QuestionScript(main_sql="SELECT x'00ff' AS b, 'text' AS t, 2 AS n")
    record = harness_module.QuestionRecord(UNIT_QUESTION, script, "gold/f1.csv")
    suite = run_suite([record], workspace, tmp_path / "runs", _config())
    with open(tmp_path / "runs" / "answers" / "f1.csv", encoding="utf-8", newline="") as handle:
        header, *rows = csv.reader(handle)
    assert header == ["b", "t", "n"] and rows == [["b'\\x00\\xff'", "text", "2"]]
    written = json.loads((tmp_path / "runs" / "records" / "f1.json").read_text("utf-8"))
    assert written["answer_rows"] == [["b'\\x00\\xff'", "text", 2]]
    assert suite.records[0].answer_rows == written["answer_rows"]
    assert written["correct"] is False


def test_run_suite_parallel_matches_serial(workspace, tmp_path):
    records = load_questions_file(workspace.root / "questions.jsonl")[:4]
    serial = run_suite(records, workspace, tmp_path / "serial", _config())
    parallel = run_suite(records, workspace, tmp_path / "parallel", _config(), workers=3)
    strip = lambda rs: [
        {**r.to_dict(), "wall_time_ms": 0} for r in rs
    ]
    assert strip(serial.records) == strip(parallel.records)


def test_run_suite_parallel_matches_serial_with_memory(workspace, tmp_path, monkeypatch):
    store = MemoryStore(tmp_path / "store")
    questions = [
        Question(id=f"syn-{db}-{i:03d}", text=text, database_id=db, synthetic=True)
        for db, texts in (
            ("flights", ["How many rows are in flights?", "List the airports by country."]),
            ("retail", ["What is the total quantity of orders?", "Which products cost most?"]),
        )
        for i, text in enumerate(texts, start=1)
    ]
    synthesize_memory(questions, workspace, store)
    parsed = []
    original = store_module._read_meta
    monkeypatch.setattr(
        store_module,
        "_read_meta",
        lambda entry_dir, stamp=None: parsed.append(os.path.basename(entry_dir))
        or original(entry_dir, stamp),
    )
    records = load_questions_file(workspace.root / "questions.jsonl")
    config = _config(memory_enabled=True)
    serial = run_suite(records, workspace, tmp_path / "serial", config, store_root=store.root)
    assert sorted(parsed) == sorted(q.id for q in questions)
    parsed.clear()
    parallel = run_suite(
        records, workspace, tmp_path / "parallel", config, store_root=store.root, workers=4
    )
    # Four threads share one store, which reads each meta.json once.
    assert sorted(parsed) == sorted(q.id for q in questions)
    strip = lambda rs: [{**r.to_dict(), "wall_time_ms": 0} for r in rs]
    assert strip(serial.records) == strip(parallel.records)
    memory_off = run_suite(records, workspace, tmp_path / "off", _config())
    assert sum(r.steps for r in serial.records) < sum(r.steps for r in memory_off.records)


def _count_registry_builds(monkeypatch):
    builds = []
    original = harness_module.build_planner_registry

    def counted(*args, **kwargs):
        builds.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(harness_module, "build_planner_registry", counted)
    return builds


@pytest.mark.parametrize("workers", [1, 3])
def test_run_suite_builds_the_planner_registry_once(workspace, tmp_path, monkeypatch, workers):
    builds = _count_registry_builds(monkeypatch)
    records = load_questions_file(workspace.root / "questions.jsonl")
    suite = run_suite(records, workspace, tmp_path / "runs", _config(), workers=workers)
    assert len(suite.records) == len(records)
    assert len(builds) == 1
    run_suite(records, workspace, tmp_path / "again", _config(), workers=workers)
    assert len(builds) == 2


def _latency_blanked(path):
    return re.sub(rb'"wall_time_ms": \d+', b'"wall_time_ms": 0', path.read_bytes())


def test_a_shared_registry_writes_what_per_episode_registries_write(
    workspace, memory, tmp_path, monkeypatch
):
    manifest = export_manifest([_bootstrap_composite()], tmp_path / "manifest.json")
    records = load_questions_file(workspace.root / "questions.jsonl")
    config = _config(memory_enabled=True, composites_enabled=True)
    paths = dict(store_root=memory.root, manifest_path=manifest)
    run_suite(records, workspace, tmp_path / "shared", config, **paths)
    # As before one registry per suite: each episode builds its own.
    original = harness_module.run_episode
    composites = load_manifest(manifest)
    monkeypatch.setattr(
        harness_module,
        "run_episode",
        lambda *args, registry, **kwargs: original(*args, composites=composites, **kwargs),
    )
    builds = _count_registry_builds(monkeypatch)
    run_suite(records, workspace, tmp_path / "own", config, **paths)
    assert len(builds) == 1 + len(records)
    shared = sorted(p.relative_to(tmp_path / "shared") for p in (tmp_path / "shared").rglob("*.*"))
    own = sorted(p.relative_to(tmp_path / "own") for p in (tmp_path / "own").rglob("*.*"))
    assert shared == own and len(shared) == 3 * len(records)
    for relative in shared:
        assert _latency_blanked(tmp_path / "shared" / relative) == _latency_blanked(
            tmp_path / "own" / relative
        ), relative
    used = {
        inv["tool_name"]
        for relative in shared
        if relative.parts[0] == "trajectories"
        for step in json.loads((tmp_path / "shared" / relative).read_text())["steps"]
        for inv in step["invocations"]
    }
    assert "get_ext_then_get_ddl" in used


def test_run_suite_scores_wrong_answer_false(workspace, tmp_path):
    records = [
        r for r in load_questions_file(workspace.root / "questions.jsonl")
        if r.question.id == "f7"
    ]
    suite = run_suite(records, workspace, tmp_path / "runs", _config())
    assert suite.records[0].correct is False


def test_run_suite_refinement_question_succeeds(workspace, tmp_path):
    records = [
        r for r in load_questions_file(workspace.root / "questions.jsonl")
        if r.question.id == "f6"
    ]
    suite = run_suite(records, workspace, tmp_path / "runs", _config())
    assert suite.records[0].correct is True
    # The refinement trail can be read back from what the run wrote.
    written = (suite.out_dir / "trajectories" / "f6.json").read_text(encoding="utf-8")
    trajectory = Trajectory.from_json(written)
    main_steps = [
        s for s in trajectory.steps
        for inv in s.invocations
        if inv.tool_name == "sql_execute" and "attempt 2" in inv.output
    ]
    assert main_steps, "refinement trail missing from invocation output"


# -- questions files ----------------------------------------------------------------


def _questions_file(tmp_path, ids):
    path = tmp_path / "questions.jsonl"
    path.write_text(
        "".join(
            json.dumps({"id": qid, "text": f"question {qid}", "database_id": "flights"}) + "\n"
            for qid in ids
        ),
        encoding="utf-8",
    )
    return path


@pytest.mark.parametrize("bad_id", ["../../escaped", "a/b", "", ".hidden", "-x", "f1\n"])
def test_questions_file_rejects_unsafe_ids(tmp_path, bad_id):
    with pytest.raises(ConfigurationError, match="question id"):
        load_questions_file(_questions_file(tmp_path, ["f1", bad_id]))


@pytest.mark.parametrize("bad_db", ["../../sec", "/tmp/sec", "..", "", 5])
def test_questions_file_rejects_unsafe_database_ids(tmp_path, bad_db):
    path = tmp_path / "questions.jsonl"
    line = {"id": "f1", "text": "question", "database_id": bad_db}
    path.write_text(json.dumps(line) + "\n", encoding="utf-8")
    with pytest.raises(ConfigurationError, match="database id"):
        load_questions_file(path)


@pytest.mark.parametrize(
    "line",
    [
        "[1, 2]",
        '"just text"',
        '{"id": "f2", "database_id": "flights"}',
        '{"text": "question", "database_id": "flights"}',
        '{"id": "f2", "text": "question"}',
        '{"id": "f2", ',
    ],
)
def test_questions_file_rejects_malformed_lines(tmp_path, line):
    path = _questions_file(tmp_path, ["f1"])
    with path.open("a", encoding="utf-8") as handle:
        handle.write(line + "\n")
    with pytest.raises(ConfigurationError, match=r"questions\.jsonl line 2"):
        load_questions_file(path)


_MISTYPED_FIELDS = [
    {"text": None},
    {"text": 5},
    {"gold_csv": 5},
    {"gold_csv": ["gold/f2.csv"]},
    {"script": [1]},
    {"script": "main_sql"},
    {"synthetic": "false"},
    {"synthetic": 0},
    {"synthetic": None},
    {"script": {"probes": 5}},
    {"script": {"probes": "SELECT 1"}},
    {"script": {"probes": ["SELECT 1", 2]}},
    {"script": {"main_sql": 5}},
    {"script": {"answer": None}},
    {"script": {"check": "false"}},
    {"script": {"check": 1}},
    {"script": {"refine": []}},
    {"script": {"refine": "SELECT 1"}},
    {"script": {"refine": {"SELECT 1": 5}}},
]


@pytest.mark.parametrize("fields", _MISTYPED_FIELDS)
def test_questions_file_rejects_mistyped_fields(tmp_path, fields):
    path = _questions_file(tmp_path, ["f1"])
    line = {"id": "f2", "text": "question", "database_id": "flights", **fields}
    with path.open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(line) + "\n")
    with pytest.raises(ConfigurationError, match=r"questions\.jsonl line 2: " + next(iter(fields))):
        load_questions_file(path)


def test_fixture_questions_file_names_the_five_script_fields(workspace):
    path = workspace.root / "questions.jsonl"
    lines = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    records = load_questions_file(path)
    assert len(lines) == len(records) == 12
    for line, record in zip(lines, records):
        assert list(line["script"]) == ["probes", "main_sql", "answer", "check", "refine"]
        assert record.script.to_dict() == line["script"]


@pytest.mark.parametrize(
    "mode", ["condensed", "skip_exploration", "skip-exploration", "bogus", "", ["condensed"]]
)
def test_a_memory_mode_in_a_script_is_ignored(tmp_path, mode):
    # Older questions files name a memory_mode; any value loads and plays
    # the one opening, the fetch alone under a memory prefix.
    path = tmp_path / "questions.jsonl"
    script = {"main_sql": "SELECT 1", "memory_mode": mode}
    line = {"id": "f1", "text": "question", "database_id": "flights", "script": script}
    path.write_text(json.dumps(line) + "\n", encoding="utf-8")
    (record,) = load_questions_file(path)
    assert record.script == QuestionScript(main_sql="SELECT 1")
    policy = harness_module.scripted_policy_from_records([record])
    transcript = Transcript(question=record.question, context_prefix="## [exploration]")
    codes = []
    for index in range(3):
        codes.append(policy.next_action(transcript, []).action_code)
        transcript.steps.append(Step(index=index))
    assert codes == [
        "get_ext(database='flights')", "get_ddl(database='flights')",
        "sql_execute(query='SELECT 1')",
    ]


@pytest.mark.parametrize("index", ["kept", "deleted"])
@pytest.mark.parametrize(
    "fields",
    [f for f in _MISTYPED_FIELDS if next(iter(f)) in {"text", "synthetic"}]
    + [{"id": bad} for bad in ("../../escaped", "", 5)]
    + [{"database_id": bad} for bad in ("..", "/tmp/sec", None)],
)
def test_a_stored_question_with_a_field_a_questions_file_rejects_is_skipped(
    tmp_path, fields, index
):
    store = MemoryStore(tmp_path / "store")
    for qid in ("q1", "q2"):
        question = Question(id=qid, text=f"question {qid}", database_id="flights")
        entry = store_module.MemoryEntry(question, store_module.StructuredTrajectory([]))
        store.persist(entry, trajectory([], qid, "flights"))
    meta_path = tmp_path / "store" / "flights" / "q2" / "meta.json"
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    meta["question"].update(fields)
    meta_path.write_text(json.dumps(meta), encoding="utf-8")
    if index == "deleted":
        (tmp_path / "store" / "flights" / ".index.jsonl").unlink()
    cold = MemoryStore(tmp_path / "store")
    probe = Question(id="probe", text="question q2", database_id="flights")
    assert select_trajectory(probe, cold).question.id == "q1"
    assert cold.counts.corrupt == 1
    assert [e.question.id for e in cold.load_entries("flights")] == ["q1"]


def test_questions_file_reads_synthetic_as_a_json_bool(tmp_path):
    path = tmp_path / "questions.jsonl"
    lines = [
        {"id": "a", "text": "t", "database_id": "flights"},
        {"id": "b", "text": "t", "database_id": "flights", "synthetic": False},
        {"id": "c", "text": "t", "database_id": "flights", "synthetic": True},
    ]
    path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
    assert [r.question.synthetic for r in load_questions_file(path)] == [False, False, True]


def test_questions_file_rejects_duplicate_ids(tmp_path):
    with pytest.raises(ConfigurationError, match="duplicate question id 'f1'"):
        load_questions_file(_questions_file(tmp_path, ["f1", "f2", "f1"]))


def test_questions_file_accepts_store_safe_ids(tmp_path):
    ids = ["f1", "syn-flights-001", "Q.2_b"]
    records = load_questions_file(_questions_file(tmp_path, ids))
    assert [r.question.id for r in records] == ids


def test_escaping_question_id_writes_nothing_outside_run_dir(workspace, tmp_path):
    line = json.loads((workspace.root / "questions.jsonl").read_text().splitlines()[0])
    line["id"] = "../../escaped"
    path = tmp_path / "questions.jsonl"
    path.write_text(json.dumps(line) + "\n", encoding="utf-8")
    out = tmp_path / "deep" / "runs"
    with pytest.raises(ConfigurationError):
        run_suite(load_questions_file(path), workspace, out, _config())
    assert not list(tmp_path.rglob("escaped*"))
