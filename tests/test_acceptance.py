"""Acceptance criteria, one test per criterion.

Each test records a PASS/FAIL line that the terminal summary prints. The
desk-scale criteria run the whole pipeline (synthesize, mine, run, report)
with scripted policies and the reference embedder; no network is touched.
"""

from __future__ import annotations

import dataclasses
import json
import random
import socket
import statistics
import time
from pathlib import Path

import pytest

from trajmem.backend import SqliteBackend, execute_sql_with_refinement
from trajmem.classifier import classify_trajectory
from trajmem.fixtures import build_fixture_workspace
from trajmem.harness import EpisodeConfig, load_questions_file, run_suite
from trajmem.metrics import report_dict
from trajmem.mining import MinerConfig, export_manifest, mine_composites
from trajmem.model import Phase, Question
from trajmem.retrieval import (
    HashingEmbedder,
    select_from_entries,
    select_trajectory,
)
from trajmem.store import MemoryEntry, MemoryStore, StructuredTrajectory
from trajmem.synthesis import (
    QueryDistribution,
    allocate,
    generate_questions,
    synthesize_memory,
)
from trajmem.tools import Workspace

from conftest import record_acceptance
from helpers import memory_entry, step, tool_trajectory, trajectory
from oracles import brute_force_mine, brute_force_select, exact_similarity

PROVIDER = HashingEmbedder(256)


def check(name: str, condition: bool, detail: str = "") -> None:
    record_acceptance(name, condition, detail)
    assert condition, f"{name}: {detail}"


# -- criterion: mining oracle equivalence -------------------------------------------


def _random_mining_corpus(rng: random.Random):
    # Caps follow the criterion; sizes skew small with periodic large draws.
    if rng.random() < 0.15:
        trajectories = rng.randint(20, 50)
    else:
        trajectories = rng.randint(1, 12)
    tools = [f"t{i}" for i in range(rng.randint(2, 8))]
    corpus = []
    for index in range(trajectories):
        pairs = [
            (rng.choice(tools), rng.choice(list(Phase)))
            for _ in range(rng.randint(1, 12))
        ]
        corpus.append(tool_trajectory(pairs, f"traj{index}"))
    return corpus


def test_acceptance_mining_oracle_equivalence():
    rng = random.Random(20260501)
    taus = (0.2, 0.5, 0.8)
    started = time.monotonic()
    corpora = 0
    for _ in range(500):
        corpus = _random_mining_corpus(rng)
        corpora += 1
        for tau in taus:
            mined = {
                (c.sequence.tools, c.sequence.phase, c.support_count)
                for c in mine_composites(corpus, MinerConfig(tau=tau, max_size=4))
            }
            expected = brute_force_mine(corpus, tau, 4)
            assert mined == expected, f"divergence at tau={tau}"
    elapsed = time.monotonic() - started
    check(
        "mining oracle equivalence",
        corpora >= 500 and elapsed < 10.0,
        f"{corpora} corpora x {len(taus)} taus in {elapsed:.2f}s",
    )


# -- criterion: retrieval oracle equivalence ----------------------------------------


_VOCABULARY = [
    "total revenue per region",
    "average delay per carrier",
    "count of distinct products",
    "list the airports by country",
    "orders per month in the north",
    "which carrier has most flights",
    "sum of distances per year",
    "products in the gadgets category",
    "first rows of the orders table",
    "distinct values of region",
    "group by region",
    "group by region totals",
]


def test_acceptance_retrieval_oracle_equivalence(tmp_path):
    rng = random.Random(20260502)
    stores = 0
    tie_cases = 0
    for _ in range(1000):
        entries = [
            memory_entry(
                f"q{i:02d}", rng.choice("ABC"), rng.choice(_VOCABULARY)
            )
            for i in range(rng.randint(0, 20))
        ]
        question = Question(
            id="probe", text=rng.choice(_VOCABULARY), database_id=rng.choice("ABC")
        )
        got = select_from_entries(question, entries, PROVIDER)
        expected = brute_force_select(question, entries, PROVIDER)
        assert got is expected
        texts = [e.question.text for e in entries if e.database_id == question.database_id]
        if len(texts) != len(set(texts)):
            tie_cases += 1
        stores += 1

    # Self-retrieval: a stored question scores exactly 1 against itself, and
    # over the whole vocabulary its own entry is the one selected.
    vocabulary = [memory_entry(f"v{i:02d}", "A", text) for i, text in enumerate(_VOCABULARY)]
    self_exact = sum(exact_similarity(PROVIDER, text, text) == 1 for text in _VOCABULARY)
    for entry in vocabulary:
        question = Question(id="probe", text=entry.question.text, database_id="A")
        assert select_from_entries(question, vocabulary, PROVIDER) is entry

    # Bind the on-disk path: select_trajectory over a persisted store.
    store = MemoryStore(tmp_path / "store")
    for i, text in enumerate(_VOCABULARY[:6]):
        store.persist(memory_entry(f"q{i:02d}", "A", text), trajectory([], f"q{i:02d}", "A"))
    question = Question(id="probe", text=_VOCABULARY[2], database_id="A")
    selected = select_trajectory(question, store)
    expected = brute_force_select(question, store.load_entries("A"), PROVIDER)
    assert selected.question.id == expected.question.id

    check(
        "retrieval oracle equivalence",
        stores >= 1000 and tie_cases > 0 and self_exact == len(_VOCABULARY),
        f"{stores} stores, {tie_cases} with duplicate texts, "
        f"self-similarity exactly 1 for {self_exact}/{len(_VOCABULARY)} texts",
    )


# -- criterion: allocation properties ------------------------------------------------


def test_acceptance_allocation_properties():
    rng = random.Random(20260503)
    cases = 0
    for _ in range(1000):
        count = rng.randint(1, 20)
        databases = [f"db{i:02d}" for i in range(count)]
        raw = [rng.random() + 1e-9 for _ in databases]
        total = sum(raw)
        weights = {db: value / total for db, value in zip(databases, raw)}
        last = sorted(weights)[-1]
        weights[last] = 1.0 - sum(v for k, v in weights.items() if k != last)
        distribution = QueryDistribution(weights=weights)
        n = rng.randint(count, 500)
        counts = allocate(databases, distribution, n)
        assert sum(counts.values()) == n
        assert all(value >= 1 for value in counts.values())
        for db in databases:
            quota = 1 + (n - count) * weights[db]
            assert abs(counts[db] - quota) < 1.0
        cases += 1
    check("allocation properties", cases >= 1000, f"{cases} random allocations")


# -- criterion: classifier fixture ---------------------------------------------------


def _labeled_fixture_corpus():
    E, X, V = Phase.EXPLORATION, Phase.EXECUTION, Phase.VALIDATION
    planner = trajectory(
        [
            step(0, tools=("get_ext",), action="get_ext(database='flights')"),
            step(1, tools=("get_ddl",), action="get_ddl(database='flights')"),
            step(2, tools=("sql_execute",),
                 action='sql_execute(query="SELECT * FROM flights LIMIT 5")'),
            step(3, action="", thought="plan the main query"),
            step(4, tools=("sql_execute",),
                 action='sql_execute(query="WITH t AS (SELECT 1 AS v) SELECT v FROM t")'),
            step(5, action="", thought="the result looks right"),
            step(6, tools=("sql_execute",),
                 action='sql_execute(query="SELECT a, COUNT(*) AS n FROM t GROUP BY a")'),
            step(7, tools=("validate_result",), action="validate_result()"),
            step(8, tools=("save_result",), action="save_result()"),
            step(9, action="final_answer('done')"),
        ],
        question_id="labeled-planner",
    )
    planner_labels = [E, E, E, E, X, X, X, V, V, X]

    linker = trajectory(
        [
            step(0, tools=("list_directory",), action="list_directory(path='dbs')"),
            step(1, tools=("read_file",), action="read_file(path='dbs/f/knowledge.md')"),
            step(2, tools=("vector_search",), action="vector_search(query='delay', k=3)"),
            step(3, tools=("sql_execute",),
                 action='sql_execute(query="PRAGMA table_info(flights)")'),
            step(4, tools=("sql_execute",),
                 action='sql_execute(query="SELECT name FROM sqlite_master")'),
            step(5, tools=("sql_execute",),
                 action='sql_execute(query="SELECT * FROM flights LIMIT 10")'),
            step(6, tools=("sql_execute",),
                 action='sql_execute(query="SELECT carrier FROM flights")'),
            step(7, action="", thought="summarize findings"),
        ],
        question_id="labeled-linker",
    )
    linker_labels = [E, E, E, E, E, E, X, X]

    edges = trajectory(
        [
            step(0, action="", thought="think before acting"),
            step(1, tools=("mystery_tool",), action="mystery_tool(x=1)"),
            step(2, tools=("get_ext_then_get_ddl",),
                 action="get_ext_then_get_ddl(database='retail')"),
            step(3, tools=("sql_execute",),
                 action='sql_execute(query="SELECT * FROM orders LIMIT 50")'),
            step(4, action="", thought="still reasoning about rows"),
            step(5, tools=("sql_execute",),
                 action='sql_execute(query="SELECT o.sku FROM orders o JOIN products p ON o.sku = p.sku")'),
            step(6, tools=("validate_result",), action="validate_result()"),
            step(7, action="", thought="validation output looks fine"),
            step(8, tools=("save_result",), action="save_result()"),
        ],
        question_id="labeled-edges",
    )
    edges_labels = [E, X, E, X, X, X, V, V, V]

    return [
        (planner, planner_labels),
        (linker, linker_labels),
        (edges, edges_labels),
    ]


def test_acceptance_classifier_fixture_agreement():
    total = 0
    agreed = 0
    for fixture, labels in _labeled_fixture_corpus():
        classified = classify_trajectory(fixture)
        for step_, label in zip(classified.steps, labels):
            total += 1
            if step_.phase is label:
                agreed += 1
    check(
        "classifier fixture agreement",
        total >= 25 and agreed == total,
        f"{agreed}/{total} hand-labeled steps",
    )


# -- desk-scale pipeline ---------------------------------------------------------------


def _forbid_network(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("network access attempted during desk-scale run")

    monkeypatch.setattr(socket, "create_connection", refuse)


def _run_pipeline(base: Path) -> dict:
    """synthesize -> mine -> run all four ablation configs -> report."""
    ws_root = build_fixture_workspace(base / "ws")
    workspace = Workspace(ws_root)
    store = MemoryStore(base / "store")

    distribution = QueryDistribution.from_workload_file(ws_root / "workload.txt")
    databases = sorted(distribution.weights)
    counts = allocate(databases, distribution, 4)
    for database_id in databases:
        questions = generate_questions(
            database_id,
            workspace.ddl(database_id),
            [entry.question for entry in store.load_entries(database_id)],
            counts[database_id],
        )
        synthesize_memory(questions, workspace, store)

    corpus = [
        t for db in store.database_ids() for t in store.load_trajectories(db)
    ]
    composites = mine_composites(corpus, MinerConfig(tau=0.5, max_size=4))
    manifest = export_manifest(composites, base / "manifest.json")

    records = load_questions_file(ws_root / "questions.jsonl")
    configs = {
        "full": EpisodeConfig(),
        "no_memory": EpisodeConfig(memory_enabled=False),
        "no_composites": EpisodeConfig(composites_enabled=False),
        "neither": EpisodeConfig(memory_enabled=False, composites_enabled=False),
    }
    runs = {}
    for label, config in configs.items():
        suite = run_suite(
            records,
            workspace,
            base / f"runs_{label}",
            config,
            store_root=base / "store" if config.memory_enabled else None,
            manifest_path=manifest if config.composites_enabled else None,
        )
        runs[label] = suite.records
    return {
        "runs": runs,
        "composites": [c.name for c in composites],
        "report": report_dict(runs["full"], runs["no_memory"],
                              label="full", baseline_label="no_memory"),
    }


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    started = time.monotonic()
    result = _run_pipeline(tmp_path_factory.mktemp("pipeline"))
    result["elapsed"] = time.monotonic() - started
    return result


def _median_steps(records):
    return statistics.median(r.steps for r in records)


def test_acceptance_desk_scale_step_reductions(pipeline, monkeypatch):
    _forbid_network(monkeypatch)
    runs = pipeline["runs"]
    assert len(runs["full"]) >= 10
    memory_median = _median_steps(runs["full"])
    no_memory_median = _median_steps(runs["no_memory"])
    no_composites_median = _median_steps(runs["no_composites"])
    memory_saving = (no_memory_median - memory_median) / no_memory_median
    composite_saving = (no_composites_median - memory_median) / no_composites_median
    # Secondary reading: composites compared in the memory-off setting.
    neither_median = _median_steps(runs["neither"])
    composite_saving_no_memory = (
        neither_median - no_memory_median
    ) / neither_median
    # Enabling memory never increases any scripted episode's step count.
    by_id = {r.question_id: r.steps for r in runs["no_memory"]}
    memory_monotone = all(r.steps <= by_id[r.question_id] for r in runs["full"])
    elapsed = pipeline["elapsed"]
    check(
        "desk-scale ablation direction",
        memory_saving >= 0.20
        and composite_saving >= 0.10
        and composite_saving_no_memory >= 0.10
        and memory_monotone
        and elapsed < 60.0,
        f"memory {memory_saving:.0%} (median {no_memory_median}->{memory_median}), "
        f"composites {composite_saving:.0%} vs no-composites and "
        f"{composite_saving_no_memory:.0%} memory-off, pipeline {elapsed:.1f}s",
    )


def _median_exploration_steps(records):
    """The median of the runs' exploration step counts; every step of a run
    has a phase."""
    assert all(sum(r.phase_counts.values()) == r.steps for r in records)
    return statistics.median(r.phase_counts.get(Phase.EXPLORATION.value, 0) for r in records)


def test_acceptance_desk_scale_exploration_shift(pipeline):
    runs = pipeline["runs"]
    with_memory = _median_exploration_steps(runs["full"])
    without_memory = _median_exploration_steps(runs["no_memory"])
    check(
        "exploration composition shift",
        with_memory < without_memory,
        f"median exploration steps {with_memory} (memory) vs {without_memory}",
    )


# -- criterion: self-refinement fixture -------------------------------------------------


def test_acceptance_self_refinement(pipeline, tmp_path):
    suite_records = {r.question_id: r for r in pipeline["runs"]["full"]}
    assert suite_records["f6"].correct is True

    ws = Workspace(build_fixture_workspace(tmp_path / "ws"))
    bad = "SELECT MAX(distnace_km) AS longest FROM flights"
    good = "SELECT MAX(distance_km) AS longest FROM flights"

    def refine(query, feedback):
        return good if query == bad else None

    backend = SqliteBackend(ws.db_path("flights"))
    try:
        outcome = execute_sql_with_refinement(bad, backend, refine=refine, retry_limit=1)
        disabled = execute_sql_with_refinement(bad, backend, refine=refine, retry_limit=0)
    finally:
        backend.close()
    check(
        "self-refinement fixture",
        outcome.succeeded
        and outcome.refinements == 1
        and len(outcome.attempts) == 2
        and not disabled.succeeded
        and len(disabled.attempts) == 1,
        f"corrected on attempt {len(outcome.attempts)}, "
        f"{outcome.refinements} refinement; disabled run failed",
    )


# -- criterion: store round-trip and atomicity -------------------------------------------


def test_acceptance_store_round_trip_and_atomicity(tmp_path, monkeypatch):
    store_root = tmp_path / "store"
    store = MemoryStore(store_root)
    ws = Workspace(build_fixture_workspace(tmp_path / "ws"))
    question = Question(
        id="syn-flights-001",
        text="How many rows are in flights?",
        database_id="flights",
        synthetic=True,
    )
    synthesize_memory([question], ws, store)
    entry_dir = store_root / "flights" / "syn-flights-001"
    baseline = {p.name: p.read_bytes() for p in entry_dir.iterdir()}

    stable_cycles = 0
    for _ in range(100):
        loaded = store.load_entries("flights")[0]
        trajectory_ = store.load_trajectories("flights")[0]
        store.persist(loaded, trajectory=trajectory_)
        current = {p.name: p.read_bytes() for p in entry_dir.iterdir()}
        if current != baseline:
            break
        stable_cycles += 1

    loaded = store.load_entries("flights")[0]
    crash_entry = MemoryEntry(
        dataclasses.replace(loaded.question, id="crashy"),
        StructuredTrajectory(segments=loaded.structured.segments),
        loaded.created_at,
    )

    original = MemoryStore._materialize

    def exploding(self, target, entry, trajectory):
        original(self, target, entry, trajectory)
        raise OSError("simulated crash before rename")

    monkeypatch.setattr(MemoryStore, "_materialize", exploding)
    with pytest.raises(Exception):
        store.persist(crash_entry, trajectory_)
    monkeypatch.undo()

    partial_visible = (store_root / "flights" / "crashy").exists()
    leftover = [
        p.name
        for p in (store_root / "flights").iterdir()
        if p.name.startswith((".tmp", ".old"))
    ]
    entries_after = [e.question.id for e in store.load_entries("flights")]
    check(
        "store round-trip and atomicity",
        stable_cycles == 100
        and not partial_visible
        and not leftover
        and entries_after == ["syn-flights-001"],
        f"{stable_cycles}/100 byte-stable cycles, no partial entry after crash",
    )


# -- criterion: pipeline determinism -------------------------------------------------------


def _strip_latency(report: dict) -> dict:
    cleaned = json.loads(json.dumps(report))
    for section in ("current", "baseline"):
        if section in cleaned:
            cleaned[section].pop("avg_latency_ms", None)
    if "deltas" in cleaned:
        cleaned["deltas"].pop("avg_latency_ms", None)
    return cleaned


def test_acceptance_pipeline_determinism(tmp_path):
    first = _run_pipeline(tmp_path / "one")
    second = _run_pipeline(tmp_path / "two")

    reports_equal = _strip_latency(first["report"]) == _strip_latency(second["report"])
    records_equal = True
    for label in ("full", "no_memory", "no_composites", "neither"):
        for a, b in zip(first["runs"][label], second["runs"][label]):
            da, db = a.to_dict(), b.to_dict()
            da.pop("wall_time_ms")
            db.pop("wall_time_ms")
            if da != db:
                records_equal = False
    check(
        "pipeline determinism",
        reports_equal and records_equal and first["composites"] == second["composites"],
        "two full pipelines agree modulo latency fields",
    )
