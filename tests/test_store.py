from __future__ import annotations

import dataclasses
import json
import logging
import shutil

import pytest

from trajmem.classifier import classify_trajectory
from trajmem.errors import ConfigurationError, StateError, StorageError
from trajmem.model import Phase, Question
from trajmem.retrieval import HashingEmbedder
from trajmem.store import (
    MemoryEntry,
    MemoryStore,
    StructuredTrajectory,
    segment_text,
    structure_trajectory,
    summarize,
    truncate_observation,
)

from helpers import step, trajectory


def test_truncate_under_limit_unchanged():
    assert truncate_observation("short text", 50) == "short text"


def test_truncate_over_limit_keeps_prefix_and_marker():
    text = "x" * 100
    result = truncate_observation(text, 50)
    assert result.startswith("x" * 50)
    assert "[truncated 50 characters]" in result


def test_truncate_rejects_nonpositive_limit():
    with pytest.raises(ValueError):
        truncate_observation("text", 0)


def _classified_fixture(phases=None):
    t = trajectory(
        [
            step(0, tools=("get_ext",), action="get_ext()", thought="read notes",
                 observation="notes body"),
            step(1, tools=("get_ddl",), action="get_ddl()", thought="read schema",
                 observation="CREATE TABLE t (a INT)"),
            step(2, tools=("sql_execute",),
                 action='sql_execute(query="SELECT a, COUNT(*) FROM t GROUP BY a")',
                 thought="main query", observation="a | n"),
            step(3, tools=("validate_result",), action="validate_result()",
                 thought="validate", observation="validation passed"),
        ],
        question_id="q001",
        database_id="sqlite_fixture",
    )
    return classify_trajectory(t)


def _question():
    return Question(
        id="q001", text="How many rows?", database_id="sqlite_fixture", synthetic=True
    )


def test_structure_produces_one_segment_per_phase_run():
    structured = structure_trajectory(_classified_fixture())
    assert [seg.phase for seg in structured.segments] == [
        Phase.EXPLORATION,
        Phase.EXECUTION,
        Phase.VALIDATION,
    ]
    assert structured.full_document == "".join(
        segment_text(seg) for seg in structured.segments
    )


def test_segment_headers_carry_phase_tag():
    structured = structure_trajectory(_classified_fixture())
    for seg in structured.segments:
        assert structured.full_document.count(f"## [{seg.phase.value}] {seg.header}") >= 1
        assert seg.header
        assert "\n" not in seg.header
        assert len(seg.header) <= 120


def _blank_summary(body: str) -> str:
    return ""


@pytest.mark.parametrize(
    "summarizer, last_header",
    [(_blank_summary, "Phase execution, steps 2-2"), (summarize, "read schema")],
    ids=["summarizer0", "summarizer1"],
)
def test_summarizer_failure_uses_fallback_header(summarizer, last_header, monkeypatch):
    # An empty summary falls back to "Phase <name>, steps i-j": whether the
    # summarizer yields nothing, or the steps have no thought, action or
    # observation to summarize.
    monkeypatch.setattr("trajmem.store.summarize", summarizer)
    t = trajectory(
        [
            step(0, action="", phase=Phase.EXPLORATION),
            step(1, action="", phase=Phase.EXPLORATION),
            step(2, action="get_ddl()", thought="read schema", phase=Phase.EXECUTION),
        ]
    )
    structured = structure_trajectory(t)
    assert [seg.header for seg in structured.segments] == [
        "Phase exploration, steps 0-1",
        last_header,
    ]


def test_structure_is_byte_stable_across_runs():
    first = structure_trajectory(_classified_fixture())
    second = structure_trajectory(_classified_fixture())
    assert first.full_document.encode() == second.full_document.encode()


def test_heuristic_summarizer_uses_lead_thought():
    header = summarize("**Step 0.** read the schema\n\n```\nget_ddl()\n```")
    assert header == "read the schema"


def _entry(store: MemoryStore):
    question = _question()
    structured = structure_trajectory(_classified_fixture())
    return MemoryEntry(
        question=question,
        database_id=question.database_id,
        structured=structured,
        embedding=HashingEmbedder(store.dimension).embed(question.text),
    )


def test_persist_writes_two_files(tmp_path):
    store = MemoryStore(tmp_path / "store")
    path = store.persist(_entry(store), trajectory=_classified_fixture())
    assert path == tmp_path / "store" / "sqlite_fixture" / "q001"
    assert sorted(p.name for p in path.iterdir()) == ["full.md", "meta.json"]
    assert sorted(json.loads((path / "meta.json").read_text())) == [
        "created_at",
        "database_id",
        "embedding",
        "question",
        "segments",
        "trajectory",
    ]


def test_persist_load_round_trip_is_byte_identical(tmp_path):
    store = MemoryStore(tmp_path / "store")
    entry = _entry(store)
    path = store.persist(entry, trajectory=_classified_fixture())
    original = {p.name: p.read_bytes() for p in path.iterdir()}

    loaded = store.load_entries("sqlite_fixture")[0]
    assert loaded.question.text == entry.question.text
    assert loaded.embedding == entry.embedding  # bitwise float equality
    assert loaded.created_at == entry.created_at

    second = MemoryStore(tmp_path / "second", dimension=store.dimension)
    second_path = second.persist(loaded, trajectory=store.load_trajectories("sqlite_fixture")[0])
    copied = {p.name: p.read_bytes() for p in second_path.iterdir()}
    assert copied == original


def test_full_document_is_ordered_concatenation_of_phase_segments(tmp_path):
    store = MemoryStore(tmp_path / "store")
    path = store.persist(_entry(store))
    entry = store.load_entries("sqlite_fixture")[0]
    full = (path / "full.md").read_text()
    exploration, execution, validation = (
        store.load_phase_segment(entry, phase)
        for phase in (Phase.EXPLORATION, Phase.EXECUTION, Phase.VALIDATION)
    )
    assert all((exploration, execution, validation))
    assert full == exploration + execution + validation  # E run, X run, V run
    assert full == store.load_phase_segment(entry)


def test_load_phase_segment_round_trips_through_persist(tmp_path):
    store = MemoryStore(tmp_path / "store")
    entry = _entry(store)
    phases = [*Phase, None]
    before = {phase: store.load_phase_segment(entry, phase) for phase in phases}
    path = store.persist(entry, trajectory=_classified_fixture())
    loaded = store.load_entries("sqlite_fixture")[0]
    shutil.rmtree(path)  # the segments come from the parsed meta.json, not from files
    assert {phase: store.load_phase_segment(loaded, phase) for phase in phases} == before


def test_older_layout_loads_and_is_rewritten_as_two_files(tmp_path):
    store = MemoryStore(tmp_path / "store")
    path = store.persist(_entry(store), trajectory=_classified_fixture())
    meta = json.loads((path / "meta.json").read_text())
    meta["step_count"] = 4
    (path / "meta.json").write_text(json.dumps(meta))
    for name in ("exploration.md", "execution.md", "validation.md"):
        (path / name).write_text("stale copy")
    loaded = store.load_entries("sqlite_fixture")[0]
    assert store.load_phase_segment(loaded, Phase.EXPLORATION).startswith("## [exploration]")
    store.persist(loaded, trajectory=store.load_trajectories("sqlite_fixture")[0])
    assert sorted(p.name for p in path.iterdir()) == ["full.md", "meta.json"]


def test_load_entries_empty_store(tmp_path):
    store = MemoryStore(tmp_path / "store")
    assert store.load_entries("nowhere") == []


def test_load_entries_sorted_and_skips_corrupt(tmp_path, caplog):
    store = MemoryStore(tmp_path / "store")
    for qid in ("q003", "q001", "q002"):
        question = Question(id=qid, text=f"question {qid}", database_id="db1")
        entry = MemoryEntry(
            question=question,
            database_id="db1",
            structured=StructuredTrajectory(segments=[]),
            embedding=HashingEmbedder(store.dimension).embed(question.text),
        )
        store.persist(entry)
    (tmp_path / "store" / "db1" / "q002" / "meta.json").write_text("{broken")
    with caplog.at_level(logging.WARNING):
        entries = store.load_entries("db1")
    assert [e.question.id for e in entries] == ["q001", "q003"]
    assert any("corrupt" in record.message for record in caplog.records)


@pytest.mark.parametrize(
    "bad_meta",
    [
        "{broken",
        "[]",
        '{"trajectory": 5}',
        '{"trajectory": {"question_id": "q002", "database_id": "sqlite_fixture",'
        ' "steps": [{"index": 3}]}}',
    ],
)
def test_loaders_skip_and_log_corrupt_entry(tmp_path, caplog, bad_meta):
    store = MemoryStore(tmp_path / "store")
    store.persist(_entry(store), trajectory=_classified_fixture())
    corrupt = tmp_path / "store" / "sqlite_fixture" / "q002"
    corrupt.mkdir()
    (corrupt / "meta.json").write_text(bad_meta)
    with caplog.at_level(logging.WARNING):
        entries = store.load_entries("sqlite_fixture")
        trajectories = store.load_trajectories("sqlite_fixture")
    assert [e.question.id for e in entries] == ["q001"]
    assert [t.question_id for t in trajectories] == ["q001"]
    assert sum(str(corrupt) in record.getMessage() for record in caplog.records) == 2


def test_load_entries_skips_entry_whose_database_does_not_match(tmp_path, caplog):
    store = MemoryStore(tmp_path / "store")
    path = store.persist(_entry(store))
    meta = json.loads((path / "meta.json").read_text())
    meta["database_id"] = "other_db"
    (path / "meta.json").write_text(json.dumps(meta))
    with caplog.at_level(logging.WARNING):
        assert store.load_entries("sqlite_fixture") == []
    assert any("corrupt" in record.getMessage() for record in caplog.records)


def test_duplicate_question_id_overwrites(tmp_path):
    store = MemoryStore(tmp_path / "store")
    first = _entry(store)
    first.created_at = "2026-01-01T00:00:00+00:00"
    store.persist(first)
    second = _entry(store)
    second.created_at = "2026-02-02T00:00:00+00:00"
    store.persist(second)
    entries = store.load_entries("sqlite_fixture")
    assert len(entries) == 1
    assert entries[0].created_at == "2026-02-02T00:00:00+00:00"


def test_load_phase_segment_contents(tmp_path):
    store = MemoryStore(tmp_path / "store")
    entry = _entry(store)
    path = store.persist(entry)
    exploration = [seg for seg in entry.structured.segments if seg.phase == Phase.EXPLORATION]
    assert store.load_phase_segment(entry, Phase.EXPLORATION) == "".join(
        segment_text(seg) for seg in exploration
    )
    assert store.load_phase_segment(entry) == (path / "full.md").read_text()


def test_load_phase_segment_absent_phase_is_empty(tmp_path):
    store = MemoryStore(tmp_path / "store")
    t = classify_trajectory(
        trajectory(
            [step(0, tools=("get_ext",), action="get_ext()")],
            question_id="q001",
            database_id="sqlite_fixture",
        )
    )
    question = _question()
    entry = MemoryEntry(
        question=question,
        database_id=question.database_id,
        structured=structure_trajectory(t),
        embedding=HashingEmbedder(store.dimension).embed(question.text),
    )
    store.persist(entry)
    assert store.load_phase_segment(entry, Phase.VALIDATION) == ""


def test_persist_rejects_wrong_dimension(tmp_path):
    store = MemoryStore(tmp_path / "store", dimension=8)
    entry = _entry(MemoryStore(tmp_path / "other", dimension=16))
    with pytest.raises(ConfigurationError):
        store.persist(entry)


@pytest.mark.parametrize("bad_id", ["../escaped", "a/b", ".hidden", "q001\n"])
def test_persist_rejects_unsafe_question_id(tmp_path, bad_id):
    store = MemoryStore(tmp_path / "store")
    entry = _entry(store)
    entry.question = dataclasses.replace(entry.question, id=bad_id)
    with pytest.raises(StorageError):
        store.persist(entry)
    assert not list(tmp_path.rglob("*escaped*"))


def test_store_config_dimension_mismatch(tmp_path):
    store = MemoryStore(tmp_path / "store", dimension=32)
    store.persist(
        MemoryEntry(
            question=Question(id="q1", text="t", database_id="db"),
            database_id="db",
            structured=StructuredTrajectory(segments=[]),
            embedding=HashingEmbedder(32).embed("t"),
        )
    )
    with pytest.raises(ConfigurationError):
        MemoryStore(tmp_path / "store", dimension=64)


def test_entry_database_must_match_question():
    question = _question()
    with pytest.raises(StateError):
        MemoryEntry(
            question=question,
            database_id="some_other_db",
            structured=StructuredTrajectory(segments=[]),
            embedding=[1.0],
        )


def test_crash_before_rename_leaves_no_visible_entry(tmp_path, monkeypatch):
    store = MemoryStore(tmp_path / "store")
    entry = _entry(store)

    def exploding(self, target, entry, trajectory):
        target.mkdir(parents=True, exist_ok=False)
        (target / "meta.json").write_text("{partial")
        raise OSError("disk full")

    monkeypatch.setattr(MemoryStore, "_materialize", exploding)
    with pytest.raises(Exception):
        store.persist(entry)
    assert not (tmp_path / "store" / "sqlite_fixture" / "q001").exists()
    assert store.load_entries("sqlite_fixture") == []
