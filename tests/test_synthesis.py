from __future__ import annotations

import hashlib
import random

import pytest

from oracles import reference_allocate
from trajmem import cli
from trajmem.errors import BudgetError, SynthesisError
from trajmem.fixtures import build_fixture_workspace
from trajmem.harness import EpisodeConfig
from trajmem.mining import MinerConfig, mine_composites
from trajmem.model import Phase, Question
from trajmem.policies import ExplorerPolicy, Policy, PolicyDecision
from trajmem.store import MemoryStore
from trajmem.synthesis import (
    QueryDistribution,
    allocate,
    generate_questions,
    synthesize_memory,
)
from trajmem.tools import Workspace


def test_distribution_requires_normalized_weights():
    with pytest.raises(ValueError):
        QueryDistribution(weights={"a": 0.7, "b": 0.7})
    with pytest.raises(ValueError):
        QueryDistribution(weights={"a": -0.5, "b": 1.5})


def test_distribution_uniform():
    dist = QueryDistribution.uniform(["a", "b", "c", "d"])
    assert sum(dist.weights.values()) == pytest.approx(1.0, abs=1e-12)
    assert dist.weights["a"] == pytest.approx(0.25)


def test_distribution_from_workload_lines():
    dist = QueryDistribution.from_workload_lines(
        ["q1 flights", "q2\tflights", "q3,retail", "", "# comment"]
    )
    assert dist.weights["flights"] == pytest.approx(2 / 3)
    assert dist.weights["retail"] == pytest.approx(1 / 3)


@pytest.mark.parametrize("count", [1, 2, 3, 6, 7])
def test_distribution_uniform_equals_one_workload_line_per_database(count):
    databases = [f"db{i}" for i in range(count)]
    lines = [f"q{i} {db}" for i, db in enumerate(databases)]
    assert QueryDistribution.uniform(databases) == QueryDistribution.from_workload_lines(lines)


def test_allocate_floor_only():
    dist = QueryDistribution.uniform(["a", "b", "c"])
    assert allocate(["a", "b", "c"], dist, 3) == {"a": 1, "b": 1, "c": 1}


def test_allocate_largest_remainder_example():
    # Quotas 1 + 7*p: 4.5 / 3.1 / 2.4. One seat beyond the floors goes to
    # the 0.5-weight database (remainder 0.5 beats 0.1 and 0.4).
    dist = QueryDistribution(weights={"a": 0.5, "b": 0.3, "c": 0.2})
    assert allocate(["a", "b", "c"], dist, 10) == {"a": 5, "b": 3, "c": 2}


def test_allocate_budget_below_coverage_floor():
    dist = QueryDistribution.uniform(["a", "b"])
    with pytest.raises(BudgetError):
        allocate(["a", "b"], dist, 1)


def test_allocate_rejects_unlisted_database_weight():
    dist = QueryDistribution(weights={"a": 0.5, "b": 0.5})
    with pytest.raises(ValueError):
        allocate(["a"], dist, 3)


def test_allocate_rejects_missing_weight():
    dist = QueryDistribution(weights={"a": 1.0})
    with pytest.raises(ValueError):
        allocate(["a", "b"], dist, 3)


def test_allocate_remainder_ties_break_by_database_id():
    dist = QueryDistribution(weights={"a": 0.5, "b": 0.5})
    # One extra seat; equal remainders 0.5 -> goes to "a".
    assert allocate(["b", "a"], dist, 5) == {"a": 3, "b": 2}


def test_allocate_breaks_exact_ties_from_counts_by_database_id():
    # One seat beyond the floors and three exact thirds: it goes to "a".
    dist = QueryDistribution.uniform(["a", "b", "c"])
    assert allocate(["a", "b", "c"], dist, 4) == {"a": 2, "b": 1, "c": 1}


def test_allocate_from_workload_counts_matches_integer_reference():
    rng = random.Random(41)
    for _ in range(2000):
        databases = [f"db{i}" for i in range(rng.randint(1, 8))]
        counts = {db: rng.randint(1, 12) for db in databases}
        lines = [f"q {db}" for db, count in counts.items() for _ in range(count)]
        n = rng.randint(len(databases), 60)
        dist = QueryDistribution.from_workload_lines(lines)
        assert allocate(databases, dist, n) == reference_allocate(counts, n), (counts, n)


def test_allocate_properties_on_random_inputs():
    rng = random.Random(23)
    for _ in range(300):
        count = rng.randint(1, 20)
        databases = [f"db{i:02d}" for i in range(count)]
        raw = [rng.random() + 1e-9 for _ in databases]
        total = sum(raw)
        weights = {db: value / total for db, value in zip(databases, raw)}
        last = sorted(weights)[-1]
        weights[last] = 1.0 - sum(v for k, v in weights.items() if k != last)
        dist = QueryDistribution(weights=weights)
        n = rng.randint(count, 500)
        counts = allocate(databases, dist, n)
        assert sum(counts.values()) == n
        assert all(value >= 1 for value in counts.values())
        for db in databases:
            quota = 1 + (n - count) * weights[db]
            assert abs(counts[db] - quota) < 1.0


def test_allocate_is_order_independent():
    rng = random.Random(31)
    databases = [f"db{i}" for i in range(6)]
    raw = [rng.random() for _ in databases]
    total = sum(raw)
    weights = {db: value / total for db, value in zip(databases, raw)}
    last = sorted(weights)[-1]
    weights[last] = 1.0 - sum(v for k, v in weights.items() if k != last)
    dist = QueryDistribution(weights=weights)
    base = allocate(databases, dist, 50)
    shuffled = databases[:]
    rng.shuffle(shuffled)
    assert allocate(shuffled, dist, 50) == base


SCHEMA = "CREATE TABLE flights (\n  id INTEGER,\n  carrier TEXT\n);"


def test_generate_questions_zero():
    assert generate_questions("db", SCHEMA, [], 0) == []


def test_template_generator_produces_distinct_texts():
    questions = generate_questions("db", SCHEMA, [], 3)
    texts = [q.text for q in questions]
    assert len(set(texts)) == 3
    assert all(q.synthetic for q in questions)
    assert [q.id for q in questions] == ["syn-db-001", "syn-db-002", "syn-db-003"]


def test_constant_generator_gets_uniqueness_suffixes():
    # One table fills the five templates once; later questions reuse the first.
    texts = [q.text for q in generate_questions("db", SCHEMA, [], 7)]
    assert len(set(texts)) == 7
    assert texts[0] == "How many rows are in flights?"
    assert texts[5] == "How many rows are in flights? (2)"
    assert texts[6] == "How many rows are in flights? (3)"


def test_synth_without_a_workload_skips_a_directory_that_is_no_database_id(tmp_path):
    ws = build_fixture_workspace(tmp_path / "ws")
    (ws / "dbs" / ".cache").mkdir()
    store = tmp_path / "store"
    assert cli.main(["synth", "--workspace", str(ws), "--budget", "4", "--store", str(store)]) == 0
    assert MemoryStore(store).database_ids() == ["flights", "retail"]


@pytest.mark.parametrize(
    "schema, column",
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
def test_templates_read_the_first_column_the_explorer_reads(schema, column):
    texts = [q.text for q in generate_questions("db", schema, [], 2)]
    assert texts == [
        "How many rows are in t?", f"What is the count of each distinct {column} in t?"
    ]


def test_failing_generator_raises_synthesis_error_naming_database():
    with pytest.raises(SynthesisError) as excinfo:
        generate_questions("flights", "", [], 1)
    assert "flights" in str(excinfo.value)


def test_question_ids_continue_after_existing(tmp_path):
    existing = [
        Question(id="syn-db-004", text="earlier", database_id="db", synthetic=True)
    ]
    questions = generate_questions("db", SCHEMA, existing, 1)
    assert questions[0].id == "syn-db-005"


# -- synthesize_memory ----------------------------------------------------------


@pytest.fixture()
def fixture_workspace(tmp_path):
    return Workspace(build_fixture_workspace(tmp_path / "ws"))


def test_synthesize_memory_persists_exploration(tmp_path, fixture_workspace):
    store = MemoryStore(tmp_path / "store")
    question = Question(
        id="syn-flights-001",
        text="How many rows are in flights?",
        database_id="flights",
        synthetic=True,
    )
    entries = synthesize_memory([question], fixture_workspace, store)
    assert len(entries) == 1
    assert store.load_phase_segment(entries[0], Phase.EXPLORATION)
    assert store.load_phase_segment(entries[0], None)


def test_synthesize_skips_crashing_episode(tmp_path, fixture_workspace, caplog):
    store = MemoryStore(tmp_path / "store")

    class CrashOnSecond(Policy):
        def next_action(self, transcript, tools):
            if transcript.question.id.endswith("002"):
                raise RuntimeError("episode crash")
            return ExplorerPolicy().next_action(transcript, tools)

    questions = [
        Question(id=f"syn-flights-{i:03d}", text=f"q {i}", database_id="flights",
                 synthetic=True)
        for i in (1, 2, 3)
    ]
    entries = synthesize_memory(questions, fixture_workspace, store, policy=CrashOnSecond())
    assert [e.question.id for e in entries] == ["syn-flights-001", "syn-flights-003"]


def test_budget_exhausted_episode_still_persisted(tmp_path, fixture_workspace):
    store = MemoryStore(tmp_path / "store")

    class NeverAnswer(Policy):
        def next_action(self, transcript, tools):
            return PolicyDecision(thought="poking", action_code="get_ddl()")

    question = Question(
        id="syn-flights-001", text="q", database_id="flights", synthetic=True
    )
    config = EpisodeConfig(max_planner_steps=4, memory_enabled=False, composites_enabled=False)
    entries = synthesize_memory(
        [question], fixture_workspace, store, policy=NeverAnswer(), config=config
    )
    assert len(entries) == 1
    trajectories = store.load_trajectories("flights")
    assert len(trajectories[0].steps) == 4
    assert trajectories[0].final_answer is None


def test_synthetic_corpus_uses_restricted_registry(tmp_path, fixture_workspace):
    store = MemoryStore(tmp_path / "store")
    question = Question(
        id="syn-retail-001", text="orders overview", database_id="retail", synthetic=True
    )
    synthesize_memory([question], fixture_workspace, store)
    trajectory = store.load_trajectories("retail")[0]
    used = {inv.tool_name for step in trajectory.steps for inv in step.invocations}
    assert used <= {"sql_execute", "list_directory", "read_file", "get_ddl", "get_ext"}
    assert "vector_search" not in used and "validate_result" not in used


FIXTURE_QUESTIONS_AT_7 = {
    "flights": [
        "How many rows are in airports?",
        "How many rows are in carriers?",
        "How many rows are in flights?",
        "What is the count of each distinct code in airports?",
        "What is the count of each distinct code in carriers?",
        "What is the count of each distinct id in flights?",
        "List the first rows of airports ordered by code.",
    ],
    "retail": [
        "How many rows are in products?",
        "How many rows are in orders?",
        "What is the count of each distinct sku in products?",
        "What is the count of each distinct order_id in orders?",
        "List the first rows of products ordered by sku.",
        "List the first rows of orders ordered by order_id.",
        "What are the distinct values of sku in products?",
    ],
}
FIXTURE_FULL_MD_SHA256 = {
    "flights": "534a884bd7a1dec639ef0976e0fc3bcd8d90fdacaa220e6ead2b0377a10368f0",
    "retail": "e656811cbed82fe5d5d3b503a7fecd64290aa7e4b4f2f73bcdd4a9c9d8705e23",
}


def test_synthesized_fixture_memory_is_pinned(tmp_path, fixture_workspace, capsysbinary):
    """Questions, headers, the document ``trajmem show`` prints (the bytes
    that stores once wrote as ``full.md``) and composite names of the
    fixture synthesis."""
    store = MemoryStore(tmp_path / "store")
    for database_id, expected_texts in FIXTURE_QUESTIONS_AT_7.items():
        schema = (fixture_workspace.db_dir(database_id) / "schema.sql").read_text(encoding="utf-8")
        questions = generate_questions(database_id, schema, [], 7)
        assert [q.text for q in questions] == expected_texts
        entries = synthesize_memory(questions, fixture_workspace, store)
        assert len(entries) == 7
        first = entries[0]
        assert [(seg.phase, seg.header) for seg in first.structured.segments] == [
            (Phase.EXPLORATION, "Read the external knowledge file."),
            (Phase.EXECUTION, "Attempt an aggregate query for the question."),
        ]
        capsysbinary.readouterr()
        shown = cli.main(["show", "--store", str(store.root), "--db", database_id,
                          "--id", first.question.id])
        assert shown == 0
        digest = hashlib.sha256(capsysbinary.readouterr().out).hexdigest()
        assert digest == FIXTURE_FULL_MD_SHA256[database_id]
    corpus = [t for db in store.database_ids() for t in store.load_trajectories(db)]
    assert [c.name for c in mine_composites(corpus, MinerConfig())] == ["get_ext_then_get_ddl"]
