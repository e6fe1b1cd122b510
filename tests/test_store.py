from __future__ import annotations

import base64
import copy
import dataclasses
import errno
import json
import logging
import os
import pickle
import shutil
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trajmem.store as store_module
from trajmem.classifier import classify_trajectory
from trajmem.errors import StateError, StorageError
from trajmem.model import Phase, Question, Step, ToolInvocation, Trajectory, render_observation
from trajmem.retrieval import HashingEmbedder, select_trajectory
from trajmem.store import (
    MemoryEntry,
    MemoryStore,
    StructuredTrajectory,
    segment_text,
    structure_trajectory,
    summarize,
    truncate_observation,
)

from helpers import (
    DEEP_JSON,
    UNRENDERABLE,
    break_segments,
    memory_entry,
    restamp_index_line,
    step,
    trajectory,
)
from oracles import brute_force_select, entries_on_disk


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


def _entry(created_at: str = "", question_id: str = "q001"):
    question = dataclasses.replace(_question(), id=question_id)
    structured = structure_trajectory(_classified_fixture())
    return MemoryEntry(question=question, structured=structured, created_at=created_at)


def test_persist_writes_one_file(tmp_path):
    store = MemoryStore(tmp_path / "store")
    path = store.persist(_entry(), trajectory=_classified_fixture())
    assert path == tmp_path / "store" / "sqlite_fixture" / "q001"
    assert sorted(p.name for p in path.iterdir()) == ["meta.json"]
    assert sorted(json.loads((path / "meta.json").read_text())) == [
        "created_at",
        "question",
        "trajectory",
    ]


# Ways to leave step 1 of a trajectory unfit for its reader to rebuild.
_UNREBUILDABLE = {
    "step out of place": lambda step_: dataclasses.replace(step_, index=2),
    "index a bool": lambda step_: dataclasses.replace(step_, index=True),
    "no phase": lambda step_: dataclasses.replace(step_, phase=None),
    "phase not a Phase": lambda step_: dataclasses.replace(step_, phase="execution"),
}


@pytest.mark.parametrize("damage", sorted(_UNREBUILDABLE))
def test_persist_refuses_a_trajectory_its_reader_cannot_rebuild(tmp_path, damage):
    store = MemoryStore(tmp_path / "store")
    stored = _entry(created_at="2026-01-01T00:00:00+00:00")
    path = store.persist(stored, _classified_fixture())
    database_dir = path.parent
    before = {p.name: p.read_bytes() for p in path.iterdir()}
    index = (database_dir / ".index.jsonl").read_bytes()
    refused = _classified_fixture()
    refused.steps[1] = _UNREBUILDABLE[damage](refused.steps[1])
    for question_id in ("q001", "q002"):  # over the stored version, and as a new entry
        with pytest.raises(StorageError, match="step 1"):
            store.persist(_entry(question_id=question_id), refused)
    assert {p.name: p.read_bytes() for p in path.iterdir()} == before
    assert sorted(p.name for p in database_dir.iterdir()) == [".index.jsonl", "q001"]
    assert (database_dir / ".index.jsonl").read_bytes() == index
    assert MemoryStore(tmp_path / "store").load_entries("sqlite_fixture") == [stored]


def test_persist_load_round_trip_is_byte_identical(tmp_path):
    store = MemoryStore(tmp_path / "store")
    entry = _entry()
    path = store.persist(entry, trajectory=_classified_fixture())
    original = {p.name: p.read_bytes() for p in path.iterdir()}

    loaded = store.load_entries("sqlite_fixture")[0]
    assert loaded.question.text == entry.question.text
    assert loaded.created_at == entry.created_at

    second = MemoryStore(tmp_path / "second", dimension=store.dimension)
    second_path = second.persist(loaded, trajectory=store.load_trajectories("sqlite_fixture")[0])
    copied = {p.name: p.read_bytes() for p in second_path.iterdir()}
    assert copied == original


def test_full_document_is_ordered_concatenation_of_phase_segments(tmp_path):
    store = MemoryStore(tmp_path / "store")
    store.persist(_entry(), _classified_fixture())
    entry = MemoryStore(tmp_path / "store").load_entries("sqlite_fixture")[0]
    full = structure_trajectory(_classified_fixture()).full_document
    exploration, execution, validation = (
        store.load_phase_segment(entry, phase)
        for phase in (Phase.EXPLORATION, Phase.EXECUTION, Phase.VALIDATION)
    )
    assert all((exploration, execution, validation))
    assert full == exploration + execution + validation  # E run, X run, V run
    assert full == store.load_phase_segment(entry)


def test_load_phase_segment_round_trips_through_persist(tmp_path):
    store = MemoryStore(tmp_path / "store")
    entry = _entry()
    phases = [*Phase, None]
    before = {phase: store.load_phase_segment(entry, phase) for phase in phases}
    store.persist(entry, trajectory=_classified_fixture())
    loaded = store.load_entries("sqlite_fixture")[0]
    assert {phase: store.load_phase_segment(loaded, phase) for phase in phases} == before


def test_older_layout_loads_and_is_rewritten_as_one_file(tmp_path):
    store = MemoryStore(tmp_path / "store")
    path = store.persist(_entry(), trajectory=_classified_fixture())
    meta = json.loads((path / "meta.json").read_text())
    meta["step_count"] = 4
    (path / "meta.json").write_text(json.dumps(meta))
    for name in ("full.md", "exploration.md", "execution.md", "validation.md"):
        (path / name).write_text("stale copy")
    loaded = store.load_entries("sqlite_fixture")[0]
    assert store.load_phase_segment(loaded, Phase.EXPLORATION).startswith("## [exploration]")
    store.persist(loaded, trajectory=store.load_trajectories("sqlite_fixture")[0])
    assert sorted(p.name for p in path.iterdir()) == ["meta.json"]


def test_load_entries_empty_store(tmp_path):
    store = MemoryStore(tmp_path / "store")
    assert store.load_entries("nowhere") == []


def test_load_entries_sorted_and_skips_corrupt(tmp_path, caplog):
    store = MemoryStore(tmp_path / "store")
    for qid in ("q003", "q001", "q002"):
        question = Question(id=qid, text=f"question {qid}", database_id="db1")
        entry = MemoryEntry(question=question, structured=StructuredTrajectory(segments=[]))
        store.persist(entry, trajectory([], qid, "db1"))
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
        '{"trajectory": {"question_id": "q002", "database_id": "sqlite_fixture",'
        ' "steps": [{"index": 0, "observation": ["not", "text"]}]}}',
        '{"trajectory": {"question_id": "q002", "database_id": "sqlite_fixture",'
        ' "steps": [{"index": 0, "thought": 7, "action_code": 5, "observation": 3,'
        ' "invocations": [{"tool_name": 9, "output": 1}]}]}}',
        '{"trajectory": {"question_id": 7, "database_id": "sqlite_fixture", "steps": [],'
        ' "final_answer": 3, "input_tokens": true, "output_tokens": "12",'
        ' "wall_time_ms": 1.9}}',
        pytest.param(DEEP_JSON, id="nested-too-deeply"),
    ],
)
def test_loaders_skip_and_log_corrupt_entry(tmp_path, caplog, bad_meta):
    store = MemoryStore(tmp_path / "store")
    store.persist(_entry(), trajectory=_classified_fixture())
    corrupt = tmp_path / "store" / "sqlite_fixture" / "q002"
    corrupt.mkdir()
    (corrupt / "meta.json").write_text(bad_meta)
    with caplog.at_level(logging.WARNING):
        entries = store.load_entries("sqlite_fixture")
        trajectories = store.load_trajectories("sqlite_fixture")
    assert [e.question.id for e in entries] == ["q001"]
    assert [t.question_id for t in trajectories] == ["q001"]
    assert sum(str(corrupt) in record.getMessage() for record in caplog.records) == 2


@pytest.mark.parametrize("database_id", ["..", ".", "a/b", "", "-x", "db1\n"])
def test_loaders_reject_an_unsafe_database_id(tmp_path, database_id):
    store = MemoryStore(tmp_path / "store")
    store.persist(_entry(), _classified_fixture())
    for load in (store.load_entries, store.load_trajectories):
        with pytest.raises(StorageError, match="unsafe database id"):
            load(database_id)
    assert store.counts == store_module.LoadCounts()


def test_loaded_trajectories_share_equal_texts_and_stay_independent(tmp_path):
    store = MemoryStore(tmp_path / "store")
    persisted = []
    for qid in ("q001", "q003"):
        entry = MemoryEntry(
            question=dataclasses.replace(_question(), id=qid),
            structured=structure_trajectory(_classified_fixture()),
        )
        persisted.append(dataclasses.replace(_classified_fixture(), question_id=qid))
        persisted[-1].steps[2].invocations[0].args = {"query": "SELECT a FROM t", "limit": "5"}
        store.persist(entry, trajectory=persisted[-1])
    corrupt = tmp_path / "store" / "sqlite_fixture" / "q002"
    corrupt.mkdir()
    (corrupt / "meta.json").write_text("{broken")

    first, second = store.load_trajectories("sqlite_fixture")
    assert [first, second] == persisted
    assert store.counts.corrupt == 1
    for one, other in zip(first.steps, second.steps, strict=True):
        assert one.observation is other.observation
        assert one.thought is other.thought and one.action_code is other.action_code
        for a, b in zip(one.invocations, other.invocations, strict=True):
            assert a.output is b.output and a.tool_name is b.tool_name
            assert a.args is not b.args
            for (key, value), (other_key, other_value) in zip(
                a.args.items(), b.args.items(), strict=True
            ):
                assert key is other_key and value is other_value
    assert first.steps[2].invocations[0].args == {"query": "SELECT a FROM t", "limit": "5"}

    first.steps[1].observation = "changed"
    first.steps[1].invocations[0].output = "changed"
    first.steps[2].invocations[0].args["query"] = "changed"
    first.steps[2].invocations[0].args["added"] = "changed"
    assert second == persisted[1]

    assert not hasattr(second, "__dict__")
    assert not hasattr(Step(index=0), "__dict__")
    assert not hasattr(ToolInvocation(tool_name="t"), "__dict__")
    moved = dataclasses.replace(second.steps[0], index=5)
    assert (moved.index, moved.observation) == (5, second.steps[0].observation)
    assert copy.deepcopy(second) == second
    assert pickle.loads(pickle.dumps(second)) == second


def test_database_ids_lists_only_names_that_are_ids(tmp_path):
    store = MemoryStore(tmp_path / "store")
    store.persist(_entry(), _classified_fixture())
    for name in ("not an id", "-x", ".hidden"):
        (tmp_path / "store" / name).mkdir()
    (tmp_path / "store" / "file").write_text("")
    assert store.database_ids() == ["sqlite_fixture"]


def test_duplicate_question_id_overwrites(tmp_path):
    store = MemoryStore(tmp_path / "store")
    first = _entry(created_at="2026-01-01T00:00:00+00:00")
    store.persist(first, _classified_fixture())
    second = _entry(created_at="2026-02-02T00:00:00+00:00")
    store.persist(second, _classified_fixture())
    entries = store.load_entries("sqlite_fixture")
    assert len(entries) == 1
    assert entries[0].created_at == "2026-02-02T00:00:00+00:00"


def test_load_phase_segment_contents(tmp_path):
    store = MemoryStore(tmp_path / "store")
    entry = _entry()
    store.persist(entry, _classified_fixture())
    exploration = [seg for seg in entry.structured.segments if seg.phase == Phase.EXPLORATION]
    assert store.load_phase_segment(entry, Phase.EXPLORATION) == "".join(
        segment_text(seg) for seg in exploration
    )
    (loaded,) = MemoryStore(tmp_path / "store").load_entries("sqlite_fixture")
    assert store.load_phase_segment(entry) == store.load_phase_segment(loaded)


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
    entry = MemoryEntry(question=question, structured=structure_trajectory(t))
    store.persist(entry, t)
    assert store.load_phase_segment(entry, Phase.VALIDATION) == ""


@pytest.mark.parametrize("bad_id", ["../escaped", "a/b", ".hidden", "q001\n"])
def test_persist_rejects_unsafe_question_id(tmp_path, bad_id):
    store = MemoryStore(tmp_path / "store")
    entry = _entry(question_id=bad_id)
    with pytest.raises(StorageError):
        store.persist(entry, _classified_fixture())
    assert not list(tmp_path.rglob("*escaped*"))


def test_crash_before_rename_leaves_no_visible_entry(tmp_path, monkeypatch):
    store = MemoryStore(tmp_path / "store")
    entry = _entry()

    def exploding(self, target, entry, trajectory):
        target.mkdir(parents=True, exist_ok=False)
        (target / "meta.json").write_text("{partial")
        raise OSError("disk full")

    monkeypatch.setattr(MemoryStore, "_materialize", exploding)
    with pytest.raises(Exception):
        store.persist(entry, _classified_fixture())
    assert not (tmp_path / "store" / "sqlite_fixture" / "q001").exists()
    assert store.load_entries("sqlite_fixture") == []


# -- the per-store entry cache ---------------------------------------------------------


def _persist_text(store: MemoryStore, question_id: str, text: str, database_id: str = "db1"):
    steps = _text_steps(text)
    entry = memory_entry(question_id, database_id, text, steps)
    return store.persist(entry, trajectory(steps, question_id, database_id))


def _text_steps(text: str) -> list[Step]:
    """One classified step whose thought is ``text``."""
    return [step(0, thought=text, phase=Phase.EXPLORATION)]


def _selected(store: MemoryStore, text: str) -> str | None:
    entry = select_trajectory(Question(id="probe", text=text, database_id="db1"), store)
    return None if entry is None else entry.question.id


def _meta_reads(monkeypatch) -> list[tuple[str, tuple | None]]:
    """From now on, each ``meta.json`` read: (entry directory name, the stamp
    the reader asked the file to have)."""
    reads = []
    original = store_module._read_meta

    def counting(entry_dir, stamp=None):
        reads.append((os.path.basename(entry_dir), stamp))
        return original(entry_dir, stamp)

    monkeypatch.setattr(store_module, "_read_meta", counting)
    return reads


def test_writes_through_a_second_store_are_seen_by_the_first(tmp_path):
    reader = MemoryStore(tmp_path / "store")
    writer = MemoryStore(tmp_path / "store")
    query = "average departure delay per carrier"
    _persist_text(writer, "q001", "list the airports by country")
    assert _selected(reader, query) == "q001"

    _persist_text(writer, "q002", "average departure delay per carrier")
    assert _selected(reader, query) == "q002"

    _persist_text(writer, "q002", "count the distinct products")
    assert [e.question.text for e in reader.load_entries("db1")] == [
        "list the airports by country",
        "count the distinct products",
    ]
    assert _selected(reader, "list the airports") == "q001"
    assert _selected(reader, "count the products") == "q002"

    shutil.rmtree(tmp_path / "store" / "db1" / "q001")
    assert [e.question.id for e in reader.load_entries("db1")] == ["q002"]
    assert _selected(reader, "list the airports") == "q002"

    shutil.rmtree(tmp_path / "store" / "db1")
    assert reader.load_entries("db1") == []
    assert _selected(reader, query) is None


def test_in_place_edit_of_the_same_size_and_mtime_is_seen(tmp_path):
    store = MemoryStore(tmp_path / "store")
    meta_path = _persist_text(store, "q001", "list the airports by country") / "meta.json"
    assert [e.question.text for e in store.load_entries("db1")] == ["list the airports by country"]
    before = os.stat(meta_path)
    # Past one tick of a coarse filesystem clock, so the status-change time moves.
    time.sleep(0.05)
    meta_path.write_text(meta_path.read_text().replace("airports", "carriers"))
    os.utime(meta_path, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = os.stat(meta_path)
    assert (after.st_ino, after.st_mtime_ns, after.st_size) == (
        before.st_ino, before.st_mtime_ns, before.st_size
    )
    assert [e.question.text for e in store.load_entries("db1")] == ["list the carriers by country"]


def test_corrupt_entry_is_logged_once_and_loads_once_repaired(tmp_path, caplog):
    store = MemoryStore(tmp_path / "store")
    good = _persist_text(store, "q001", "first question")
    corrupt = tmp_path / "store" / "db1" / "q002"
    corrupt.mkdir()
    missing = tmp_path / "store" / "db1" / "q003"
    missing.mkdir()
    (corrupt / "meta.json").write_text("{broken")
    with caplog.at_level(logging.WARNING):
        for _ in range(10):
            assert [e.question.id for e in store.load_entries("db1")] == ["q001"]
    assert sum(str(corrupt) in r.getMessage() for r in caplog.records) == 1
    assert sum(str(missing) in r.getMessage() for r in caplog.records) == 1

    meta = json.loads((good / "meta.json").read_text())
    for repaired in (corrupt, missing):
        meta["question"]["id"] = repaired.name
        (repaired / "meta.json").write_text(json.dumps(meta))
    assert [e.question.id for e in store.load_entries("db1")] == ["q001", "q002", "q003"]


def test_each_meta_json_is_parsed_once_per_store(tmp_path, monkeypatch):
    writer = MemoryStore(tmp_path / "store")
    for i in range(6):
        _persist_text(writer, f"q{i:03d}", f"question number {i} about flights")
    reads = _meta_reads(monkeypatch)
    store = MemoryStore(tmp_path / "store")
    for i in range(20):
        assert _selected(store, f"question {i % 6} about flights") == f"q{i % 6:03d}"
    # Each winner, taken from the index, reads its meta.json once.
    assert sorted(name for name, _ in reads) == [f"q{i:03d}" for i in range(6)]

    _persist_text(writer, "q003", "a rewritten question")
    _persist_text(writer, "q006", "a new question")
    for _ in range(5):
        store.load_entries("db1")
    assert sorted(name for name, _ in reads[6:]) == ["q003", "q006"]


def test_threads_sharing_a_store_parse_each_entry_once(tmp_path, monkeypatch):
    writer = MemoryStore(tmp_path / "store")
    for i in range(100):
        _persist_text(writer, f"q{i:03d}", f"question number {i}")
    ids = [f"q{i:03d}" for i in range(100)]
    reads = _meta_reads(monkeypatch)

    def in_threads(work) -> list:
        results = []
        start = threading.Barrier(8, timeout=60)

        def run():
            start.wait()
            results.append(work())

        threads = [threading.Thread(target=run) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == 8
        return results

    # With no index, the first load parses every meta.json, each once.
    _index(tmp_path).unlink()
    store = MemoryStore(tmp_path / "store")
    results = in_threads(lambda: store.load_entries("db1"))
    assert sorted(name for name, _ in reads) == ids
    assert all([e.question.id for e in r] == ids for r in results)

    # From the index that load wrote, each entry reads its segments once.
    reads.clear()
    store = MemoryStore(tmp_path / "store")

    def load_and_read():
        entries = store.load_entries("db1")
        return all(store.read_segments(entry) for entry in entries)

    assert in_threads(load_and_read) == [True] * 8
    assert sorted(name for name, _ in reads) == ids
    assert store.counts == store_module.LoadCounts(indexed=100, parsed=100)


def test_loaded_entries_are_the_stores_own_and_read_only(tmp_path):
    store = MemoryStore(tmp_path / "store")
    _persist_text(store, "q001", "first question")
    _persist_text(store, "q002", "second question")
    first = store.load_entries("db1")
    second = store.load_entries("db1")
    assert all(a is b for a, b in zip(first, second, strict=True))
    loaded = first[0]
    before = (loaded.question, loaded.structured, loaded.created_at, loaded.path)
    for name, value in (
        ("question", dataclasses.replace(loaded.question, id="changed")),
        ("structured", StructuredTrajectory(segments=[])),
        ("created_at", "2026-02-02T00:00:00+00:00"),
        ("path", tmp_path / "elsewhere"),
    ):
        with pytest.raises(AttributeError):
            setattr(loaded, name, value)
    again = store.load_entries("db1")
    assert [e.question.id for e in again] == ["q001", "q002"]
    assert again[0] is loaded
    assert (loaded.question, loaded.structured, loaded.created_at, loaded.path) == before
    # persist leaves the entry it is given as it was, path included.
    fresh = memory_entry("q003", "db1", "third question")
    fresh_path = store.persist(fresh, trajectory([], "q003", "db1"))
    assert fresh_path == tmp_path / "store" / "db1" / "q003"
    assert fresh.path is None
    stored = store.load_trajectories("db1")[0]
    assert store.persist(loaded, stored) == loaded.path == before[3]


def _written_segments(meta: dict) -> list[dict]:
    """The segments of an entry as writers before the trajectory alone put
    them in its meta.json."""
    return [{"phase": seg.phase.value, "header": seg.header, "body": seg.body}
            for seg in store_module._segments(meta)]


def test_older_embedding_key_is_ignored(tmp_path):
    texts = ["list the airports by country", "average delay per carrier",
             "count of distinct products", "orders per month in the north"]
    plain = MemoryStore(tmp_path / "plain")
    older = MemoryStore(tmp_path / "older")
    for i, text in enumerate(texts):
        _persist_text(plain, f"q{i:03d}", text)
        path = _persist_text(older, f"q{i:03d}", text)
        meta = json.loads((path / "meta.json").read_text())
        assert "embedding" not in meta
        # As older stores wrote it: the dense embedding between database_id and created_at.
        meta = {
            "question": meta["question"],
            "database_id": "db1",
            "embedding": HashingEmbedder(256).embed(text),
            "created_at": meta["created_at"],
            "segments": _written_segments(meta),
        }
        (path / "meta.json").write_text(json.dumps(meta, indent=2))
    for query in texts + ["airports per country", "products", "delay", "north orders"]:
        assert _selected(older, query) == _selected(plain, query)
    assert older.load_entries("db1") == plain.load_entries("db1")


def test_failed_overwrite_keeps_the_stored_entry(tmp_path, monkeypatch):
    store = MemoryStore(tmp_path / "store")
    _persist_text(store, "q001", "list the airports by country")
    original = Path.replace

    def replace(self, target):
        if self.name.startswith(".tmp-q001-"):
            raise OSError(errno.ENOSPC, "No space left on device")
        return original(self, target)

    monkeypatch.setattr(Path, "replace", replace)
    with pytest.raises(StorageError):
        _persist_text(store, "q001", "count the distinct products")
    monkeypatch.undo()
    assert sorted(p.name for p in (tmp_path / "store" / "db1").iterdir()
                  if not p.name.startswith(".index")) == ["q001"]
    assert [e.question.text for e in MemoryStore(tmp_path / "store").load_entries("db1")] == [
        "list the airports by country"
    ]


def test_a_persist_removes_only_the_version_it_moved_aside(tmp_path, monkeypatch):
    removed = []
    rmtree = shutil.rmtree

    def recording_rmtree(path, **kwargs):
        removed.append(Path(path).name)
        rmtree(path, **kwargs)

    monkeypatch.setattr(store_module.shutil, "rmtree", recording_rmtree)
    store = MemoryStore(tmp_path / "store")
    store.persist(_entry(), trajectory=_classified_fixture())
    assert removed == []
    store.persist(_entry(created_at="2026-01-01T00:00:00+00:00"), _classified_fixture())
    assert [name.startswith(".old-q001-") for name in removed] == [True]
    database_dir = tmp_path / "store" / "sqlite_fixture"
    assert sorted(p.name for p in database_dir.iterdir()) == [".index.jsonl", "q001"]
    (loaded,) = MemoryStore(tmp_path / "store").load_entries("sqlite_fixture")
    assert loaded.created_at == "2026-01-01T00:00:00+00:00"


# -- the per-database index ------------------------------------------------------------


def _index(tmp_path, database_id="db1"):
    return tmp_path / "store" / database_id / ".index.jsonl"


def _cold_selection(tmp_path, text: str) -> tuple[str | None, MemoryStore]:
    store = MemoryStore(tmp_path / "store")
    return _selected(store, text), store


def _expected(tmp_path, text: str, corrupt: tuple[str, ...] = ()) -> str | None:
    question = Question(id="probe", text=text, database_id="db1")
    entry = brute_force_select(question, entries_on_disk(tmp_path / "store" / "db1", corrupt),
                               HashingEmbedder(256))
    return None if entry is None else entry.question.id


_TEXTS = ["list the airports by country", "average departure delay per carrier",
          "count the distinct products", "total revenue per region"]


def _persist_all(tmp_path):
    writer = MemoryStore(tmp_path / "store")
    for i, text in enumerate(_TEXTS):
        _persist_text(writer, f"q{i:03d}", text)
    return writer


def _flat_pairs(text: str, dimension: int = 256) -> list[int]:
    counts = HashingEmbedder(dimension).trigram_counts(text)
    return [n for pair in sorted(counts.items()) for n in pair]


def _encoded(numbers: list[int]) -> str:
    """Numbers as index counts hold them: big-endian 16-bit, in base64."""
    return base64.b64encode(b"".join(n.to_bytes(2, "big") for n in numbers)).decode()


def test_persist_appends_one_index_line_per_write(tmp_path):
    path = _persist_all(tmp_path).entry_dir("db1", "q001")
    lines = [json.loads(line) for line in _index(tmp_path).read_text().splitlines()]
    assert [line["question"]["id"] for line in lines] == ["q000", "q001", "q002", "q003"]
    meta = os.stat(path / "meta.json")
    assert lines[1]["stamp"] == [meta.st_ino, meta.st_mtime_ns, meta.st_ctime_ns, meta.st_size]
    assert lines[1]["counts"] == _encoded(_flat_pairs(_TEXTS[1]))
    # meta.json is written compact, on one line.
    assert (path / "meta.json").read_text().count("\n") == 1


def test_index_counts_are_big_endian_16_bit_pairs():
    def encoded(counts: dict[int, int]) -> str:
        buckets = sorted(counts)
        values = [counts[b] for b in buckets]
        return store_module._encode_counts((buckets, values, sum(v * v for v in values)))

    # "abcd" has the trigrams "abc" (bucket 121) and "bcd" (bucket 194), once each.
    counts = store_module.entry_counts(memory_entry("q000", "db1", "abcd"), 256)
    assert store_module._encode_counts(counts) == "AHkAAQDCAAE="
    assert base64.b64decode("AHkAAQDCAAE=") == bytes([0, 121, 0, 1, 0, 194, 0, 1])
    # Bucket 258 = 0x0102, count 2: the high byte comes first on every host.
    assert encoded({1: 2, 258: 1}) == "AAEAAgECAAE="
    # A bucket or a count past 16 bits cannot be held, and reads as damaged.
    assert encoded({65536: 1}) == ""
    assert encoded({0: 65536}) == ""
    assert encoded({65535: 65535}) == "/////w=="


# One trigram that hashes to bucket 65536 of 65537, the first past 16 bits.
_PAST_16_BITS = "f\u00e9\u00aa"
_TEXT_STRATEGY = st.one_of(
    st.text(min_size=0, max_size=40),
    # One trigram repeated more than 255 times.
    st.integers(256, 400).map(lambda n: "a" * (n + 2)),
)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1, 256, 65536, 65537]), _TEXT_STRATEGY)
def test_counts_read_from_the_index_equal_the_hashed_ones(dimension, text):
    counts = HashingEmbedder(dimension).trigram_counts(text)
    buckets = sorted(counts)
    expected = (buckets, [counts[b] for b in buckets], sum(c * c for c in counts.values()))
    with tempfile.TemporaryDirectory() as tmp:
        _persist_text(MemoryStore(tmp, dimension), "q000", text)
        store = MemoryStore(tmp, dimension)
        (entry,) = store.load_entries("db1")
    if max(buckets) < 65536:
        ((key, (got_buckets, got_counts, norm)),) = entry.counts_memo.items()
        assert key == (text, dimension)
        assert (list(got_buckets), list(got_counts), norm) == expected
        assert store.counts == store_module.LoadCounts(indexed=1, parsed=0, corrupt=0)
    else:
        assert entry.counts_memo == {}
        assert store.counts == store_module.LoadCounts(indexed=0, parsed=1, corrupt=0)


def test_a_line_past_16_bits_is_parsed_from_meta_json(tmp_path):
    assert HashingEmbedder(65537).trigram_counts(_PAST_16_BITS) == {65536: 1}

    def index_counts():
        return [json.loads(raw)["counts"] for raw in _index(tmp_path).read_bytes().splitlines()]

    _persist_text(MemoryStore(tmp_path / "store", 65537), "q000", _PAST_16_BITS)
    assert index_counts() == [""]
    # The long line takes the index past the size that sets off compaction,
    # which keeps both lines: each still matches its entry's meta.json.
    _persist_text(MemoryStore(tmp_path / "store", 65537), "q001", "a" * 65538)
    assert index_counts() == ["", ""]
    _persist_text(MemoryStore(tmp_path / "store", 65537), "q002", _TEXTS[0])
    assert index_counts() == ["", "", _encoded(_flat_pairs(_TEXTS[0], 65537))]
    for _ in range(2):
        store = MemoryStore(tmp_path / "store", 65537)
        for i, text in enumerate([_PAST_16_BITS, "a" * 65538, _TEXTS[0]]):
            assert _selected(store, text) == f"q{i:03d}"
        # A line that 16 bits cannot hold is not written again by a load.
        assert store.counts == store_module.LoadCounts(indexed=1, parsed=3, corrupt=0, healed=0)
    assert len(index_counts()) == 3


def test_cold_selection_parses_only_the_winner(tmp_path, monkeypatch):
    _persist_all(tmp_path)
    opened = []
    original = store_module.json.load
    monkeypatch.setattr(store_module.json, "load",
                        lambda handle: opened.append(handle.name) or original(handle))
    selected, store = _cold_selection(tmp_path, "departure delay per carrier")
    assert selected == "q001"
    assert opened == [str(tmp_path / "store" / "db1" / "q001" / "meta.json")]
    assert store.counts == store_module.LoadCounts(indexed=4, parsed=1, corrupt=0)
    entry = store.load_entries("db1")[1]
    assert entry.path == tmp_path / "store" / "db1" / "q001"
    # The winner keeps the segments it read.
    assert entry.structured.segments and store.read_segments(entry)
    assert len(opened) == 1 and store.counts.parsed == 1


def test_indexed_vectors_equal_the_embedded_ones_bit_for_bit(tmp_path):
    _persist_all(tmp_path)
    for entry in MemoryStore(tmp_path / "store").load_entries("db1"):
        ((key, (buckets, counts, norm)),) = entry.counts_memo.items()
        assert key == (entry.question.text, 256)
        hashed = HashingEmbedder(256).trigram_counts(entry.question.text)
        assert list(zip(buckets, counts)) == sorted(hashed.items())
        assert norm == sum(count * count for count in hashed.values())


def test_crash_between_rename_and_index_append_still_selects_the_entry(tmp_path, monkeypatch):
    _persist_all(tmp_path)

    def crash(self, entry, stamp):
        raise KeyboardInterrupt  # the process dies before the line is written

    monkeypatch.setattr(MemoryStore, "_append_index", crash)
    with pytest.raises(KeyboardInterrupt):
        _persist_text(MemoryStore(tmp_path / "store"), "q004", "orders per month in the north")
    monkeypatch.undo()
    selected, store = _cold_selection(tmp_path, "orders per month")
    assert selected == "q004"
    assert store.counts == store_module.LoadCounts(indexed=4, parsed=1, corrupt=0, healed=1)
    selected, store = _cold_selection(tmp_path, "orders per month")
    assert selected == "q004"
    assert store.counts == store_module.LoadCounts(indexed=5, parsed=1, corrupt=0, healed=0)


def _swap_first_two_pairs(c):
    return c[2:4] + c[0:2] + c[4:]


# Each kind of damage, applied to a line's counts as (bucket, count, ...)
# numbers. A negative bucket, a string bucket, a float count and a list in
# the list, which the list format could hold, cannot be written as unsigned
# 16-bit numbers.
_DAMAGED_COUNTS = {
    "bucket past the dimension": lambda c: _encoded(c[:-2] + [256, c[-1]]),
    "unsorted buckets": lambda c: _encoded(_swap_first_two_pairs(c)),
    "duplicate bucket": lambda c: _encoded(c[:2] + [c[0]] + c[3:]),
    "zero count": lambda c: _encoded(c[:1] + [0] + c[2:]),
    "odd number of numbers": lambda c: _encoded(c[:-1]),
    "odd length": lambda c: base64.b64encode(base64.b64decode(_encoded(c))[:-1]).decode(),
    "bad base64": lambda c: _encoded(c)[:-1],
    "not ascii": lambda c: "\u00e9" + _encoded(c),
    "no counts": lambda c: "",
    "not a string": lambda c: {"0": 1},
    "the older list format": lambda c: c,
}


@pytest.mark.parametrize("damage", sorted(_DAMAGED_COUNTS))
def test_damaged_index_counts_are_parsed_from_meta_json(tmp_path, damage):
    _persist_all(tmp_path)
    index = _index(tmp_path)
    lines = [json.loads(raw) for raw in index.read_bytes().splitlines()]
    lines[1]["counts"] = _DAMAGED_COUNTS[damage](_flat_pairs(_TEXTS[1]))
    damaged = "".join(json.dumps(line) + "\n" for line in lines)
    for text in _TEXTS:
        index.write_text(damaged)
        selected, store = _cold_selection(tmp_path, text)
        assert selected == _expected(tmp_path, text)
        # The stamp still matches, but the entry is parsed from its meta.json,
        # and the load appends a current line for it.
        assert (store.counts.indexed, store.counts.corrupt, store.counts.healed) == (3, 0, 1)
        assert store.counts.parsed == 1 + (selected != "q001")
        selected, store = _cold_selection(tmp_path, text)
        assert selected == _expected(tmp_path, text)
        assert (store.counts.indexed, store.counts.parsed, store.counts.healed) == (4, 1, 0)


def _write_counts_in_the_older_list_format(tmp_path) -> None:
    index = _index(tmp_path)
    lines = [json.loads(raw) for raw in index.read_bytes().splitlines()]
    for line in lines:
        line["counts"] = _flat_pairs(line["question"]["text"])
    index.write_text(
        "".join(json.dumps(line, separators=(",", ":")) + "\n" for line in lines)
    )


def test_an_index_in_the_older_list_format_is_parsed_from_meta_json(tmp_path):
    _persist_all(tmp_path)
    for text in _TEXTS + ["airports per country", "delay"]:
        _write_counts_in_the_older_list_format(tmp_path)
        selected, store = _cold_selection(tmp_path, text)
        assert selected == _expected(tmp_path, text)
        assert store.counts == store_module.LoadCounts(indexed=0, parsed=4, corrupt=0, healed=4)


def _read_per_line(index: Path) -> dict:
    """The index as a reader that parses the file line by line sees it:
    each line's id -> (line, its bytes without the line break)."""
    lines = {}
    with open(index, "rb") as handle:
        for raw in handle:
            try:
                line = json.loads(raw)
                lines[line["question"]["id"]] = (line, raw.rstrip(b"\n"))
            except (ValueError, LookupError, TypeError):
                continue
    return lines


# Lines that are not index lines, or not only one: each must be skipped alone,
# as a reader parsing line by line skips it, even where a parse of the lines
# joined into one array would pair them up ("[1" with "2]") or split one.
_GARBAGE_LINES = [
    b"[1", b"2]", b"3,", b"{", b"}", b"[", b"]", b"", b" ", b"\x00\xffgarbage",
    b'{"question":{"id":"q0', b'"x"}', b"null", b'{"question":5}', b'{"question":{}}',
    b'\xef\xbb\xbf{"question":{"id":"bom"}}', b'{"question":{"id":"q9"},"text":"\xff"}',
    b'{"question":{"id":"q8"}} trailing', b'{"question":{"id":"q8"}}\r',
    b'  {"question":{"id":"q7"}}', b'{"question":{"id":"q6"}}{"question":{"id":"q5"}}',
]


def _index_with_a_stale_line(root: Path) -> tuple[Path, list[bytes]]:
    """A store of the four texts whose q001 was rewritten once: its index
    lines, the stale line of q001 second and its current one last."""
    writer = MemoryStore(root / "store")
    for i, text in enumerate(_TEXTS):
        _persist_text(writer, f"q{i:03d}", text)
    _persist_text(writer, "q001", "a rewritten question")
    index = root / "store" / "db1" / ".index.jsonl"
    return index, index.read_bytes().splitlines()


def test_index_reader_skips_each_garbage_line_alone(tmp_path):
    index, valid = _index_with_a_stale_line(tmp_path)
    # Joined into one JSON array, "[1", "2]" and "3,<line>" would read as
    # [[1, 2], 3, <line>]: as many values as lines, each out of step.
    lines = [b"[1", b"2]", b"3," + valid[0], valid[4], valid[2], b"\x00garbage", valid[1],
             valid[4], valid[3][:40]]
    index.write_bytes(b"\n".join(lines))
    read = MemoryStore(tmp_path / "store")._read_index("db1", lambda line, raw: (line, raw))
    assert read == _read_per_line(index)
    assert {name: raw for name, (_, raw) in read.items()} == {"q001": valid[4], "q002": valid[2]}
    store = MemoryStore(tmp_path / "store")
    assert [e.question.text for e in store.load_entries("db1")] == [
        _TEXTS[0], "a rewritten question", _TEXTS[2], _TEXTS[3]
    ]
    assert store.counts == store_module.LoadCounts(indexed=2, parsed=2, corrupt=0, healed=2)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.sampled_from(_GARBAGE_LINES),
            st.integers(0, 4).map(lambda i: ("valid", i)),
            st.tuples(st.integers(0, 4), st.sampled_from(_GARBAGE_LINES)).map(
                lambda pair: ("glued", *pair)
            ),
        ),
        max_size=12,
    ),
    st.integers(0, 60),
    st.booleans(),
)
def test_index_reader_equals_a_line_by_line_reader(pieces, cut, torn):
    with tempfile.TemporaryDirectory() as tmp:
        index, valid = _index_with_a_stale_line(Path(tmp))
        lines = []
        for piece in pieces:
            if isinstance(piece, bytes):
                lines.append(piece)
            elif piece[0] == "valid":
                lines.append(valid[piece[1]])
            else:  # "3," + a valid line: one line holding two values
                lines.append(piece[2] + b"," + valid[piece[1]])
        data = b"".join(line + b"\n" for line in lines)
        if torn and data:
            data = data[: len(data) - 1 - cut % len(data)]
        index.write_bytes(data)
        read = MemoryStore(Path(tmp) / "store")._read_index("db1", lambda line, raw: (line, raw))
        assert read == _read_per_line(index)
        # Each id keeps its last well-formed line; of q001's two, only the
        # current one (the last written) still matches its meta.json.
        store = MemoryStore(Path(tmp) / "store")
        entries = store.load_entries("db1")
        assert [e.question.id for e in entries] == [f"q{i:03d}" for i in range(4)]
        current = {valid[0], valid[2], valid[3], valid[4]}
        assert store.counts.indexed == sum(raw in current for _, raw in read.values())


@pytest.mark.parametrize("tail", [
    b'{"question":{"id":"q0', b"\x00\xffgarbage\n", b"[1, 2]\n",
    pytest.param(DEEP_JSON.encode() + b"\n", id="nested-too-deeply"),
])
def test_torn_or_garbage_last_line_is_skipped(tmp_path, tail):
    _persist_all(tmp_path)
    index = _index(tmp_path)
    lines = index.read_bytes().splitlines(keepends=True)
    torn = b"".join(lines[:-1]) + lines[-1][:40] + b"\n" + tail
    for text in _TEXTS:
        index.write_bytes(torn)
        selected, store = _cold_selection(tmp_path, text)
        assert selected == _expected(tmp_path, text)
        # Only the entry whose line was torn is parsed in full.
        assert (store.counts.indexed, store.counts.healed) == (3, 1)


def test_deleted_index_falls_back_to_full_parses(tmp_path):
    _persist_all(tmp_path)
    for text in _TEXTS:
        _index(tmp_path).unlink()
        selected, store = _cold_selection(tmp_path, text)
        assert selected == _expected(tmp_path, text)
        assert store.counts == store_module.LoadCounts(indexed=0, parsed=4, corrupt=0, healed=4)


@pytest.mark.parametrize("damage", ["deleted", "older list format"])
def test_a_first_load_heals_the_index(tmp_path, monkeypatch, damage):
    _persist_all(tmp_path)
    if damage == "deleted":
        _index(tmp_path).unlink()
    else:
        _write_counts_in_the_older_list_format(tmp_path)
    appends = []
    original_append = MemoryStore._append_index
    monkeypatch.setattr(
        MemoryStore, "_append_index",
        lambda self, database_id, lines: appends.append(lines)
        or original_append(self, database_id, lines),
    )
    selected, store = _cold_selection(tmp_path, "departure delay per carrier")
    assert selected == "q001"
    assert store.counts == store_module.LoadCounts(indexed=0, parsed=4, corrupt=0, healed=4)
    # One write holds the four lines.
    assert len(appends) == 1 and appends[0].count(b"\n") == 4

    opened = []
    original_load = store_module.json.load
    monkeypatch.setattr(store_module.json, "load",
                        lambda handle: opened.append(handle.name) or original_load(handle))
    for text in _TEXTS:
        opened.clear()
        selected, store = _cold_selection(tmp_path, text)
        assert selected == _expected(tmp_path, text)
        assert store.counts == store_module.LoadCounts(indexed=4, parsed=1, corrupt=0, healed=0)
        # Only the winner's segments are read.
        assert opened == [str(tmp_path / "store" / "db1" / selected / "meta.json")]
    assert len(appends) == 1


def test_a_healed_entry_memoizes_the_counts_a_load_from_its_line_gives(tmp_path):
    _persist_all(tmp_path)
    _index(tmp_path).unlink()
    healer = MemoryStore(tmp_path / "store")
    healed = healer.load_entries("db1")
    assert healer.counts.healed == 4
    reader = MemoryStore(tmp_path / "store")
    indexed = reader.load_entries("db1")
    assert reader.counts.indexed == 4
    assert [entry.counts_memo for entry in healed] == [entry.counts_memo for entry in indexed]


def test_a_persisted_entry_is_never_hashed_again(tmp_path, monkeypatch):
    store = _persist_all(tmp_path)
    store.load_entries("db1")  # the store now keeps what it persists
    hashed = []
    original = HashingEmbedder.trigram_counts
    monkeypatch.setattr(HashingEmbedder, "trigram_counts",
                        lambda self, text: hashed.append(text) or original(self, text))
    _persist_text(store, "q004", "average departure delay per flight")
    assert hashed == ["average departure delay per flight"]
    hashed.clear()
    assert _selected(store, "delay per flight") == "q004"
    assert hashed and set(hashed) == {"delay per flight"}


def test_an_index_that_cannot_be_written_is_not_counted_as_healed(tmp_path, caplog):
    _persist_all(tmp_path)
    _index(tmp_path).unlink()
    _index(tmp_path).mkdir()  # neither readable nor writable as a file
    with caplog.at_level(logging.WARNING):
        for text in _TEXTS:
            selected, store = _cold_selection(tmp_path, text)
            assert selected == _expected(tmp_path, text)
            assert store.counts == store_module.LoadCounts(
                indexed=0, parsed=4, corrupt=0, healed=0
            )
    assert sum("could not write to memory index" in r.getMessage() for r in caplog.records) == 4


def test_an_entry_stored_under_another_name_is_not_healed(tmp_path):
    _persist_all(tmp_path)
    moved = tmp_path / "store" / "db1" / "q009"
    (tmp_path / "store" / "db1" / "q002").rename(moved)
    size = _index(tmp_path).stat().st_size
    for _ in range(3):
        selected, store = _cold_selection(tmp_path, "count the distinct products")
        assert selected == "q002"
        # Its meta.json names q002, so a line for it would never be found.
        assert store.counts == store_module.LoadCounts(indexed=3, parsed=1, corrupt=0, healed=0)
    assert _index(tmp_path).stat().st_size == size


def test_a_heal_that_writes_the_whole_index_does_not_compact_it(tmp_path, monkeypatch):
    writer = MemoryStore(tmp_path / "store")
    for i in range(40):
        _persist_text(writer, f"q{i:03d}", f"average departure delay per carrier {i}")
    _index(tmp_path).unlink()
    compactions = []
    monkeypatch.setattr(MemoryStore, "_compact_index",
                        lambda self, database_id, size: compactions.append(size))
    store = MemoryStore(tmp_path / "store")
    assert len(store.load_entries("db1")) == 40
    assert store.counts.healed == 40
    # The one append crossed powers of two, but every line in it is live.
    assert _index(tmp_path).stat().st_size > 2 * store_module._COMPACT_FROM
    assert compactions == []


def test_an_indexed_entry_equals_its_twin_parsed_from_meta_json(tmp_path, monkeypatch):
    _persist_all(tmp_path)
    database_dir = tmp_path / "store" / "db1"
    store = MemoryStore(tmp_path / "store")
    entries = store.load_entries("db1")
    assert store.counts.indexed == 4
    reads = _meta_reads(monkeypatch)
    for entry in entries:
        entry_dir = database_dir / entry.question.id
        twin = store_module._parse_entry(
            str(entry_dir), json.loads((entry_dir / "meta.json").read_text())
        )
        assert (entry.question, entry.created_at) == (twin.question, twin.created_at)
        assert isinstance(entry.path, Path) and entry.path == twin.path == entry_dir
        ((key, (buckets, counts, norm)),) = entry.counts_memo.items()
        hashed = HashingEmbedder(256).trigram_counts(entry.question.text)
        assert key == (twin.question.text, 256)
        assert (list(buckets), list(counts), norm) == (
            sorted(hashed), [hashed[b] for b in sorted(hashed)], sum(c * c for c in hashed.values())
        )
        # Built from its index line, the entry reads its meta.json only for
        # its segments, and then once.
        assert reads == []
        assert entry.structured.segments == twin.structured.segments
        assert entry == twin
        assert [name for name, _ in reads] == [entry.question.id]
        reads.clear()


def test_an_indexed_entry_holds_its_cached_stamp_and_a_question_without_a_dict(
    tmp_path, monkeypatch
):
    _persist_all(tmp_path)
    store = MemoryStore(tmp_path / "store")
    entries = store.load_entries("db1")
    assert store.counts.indexed == 4
    reads = _meta_reads(monkeypatch)
    for entry in entries:
        stamp, cached = store._entries["db1"][entry.question.id]
        assert cached is entry and store.read_segments(entry)
        # Its segments are read from the version with the stamp the cache
        # keeps, the same tuple, not a copy read from the index line.
        assert reads[-1][0] == entry.question.id and reads[-1][1] is stamp
    assert [e.structured.segments for e in entries] == [
        e.structured.segments for e in MemoryStore(tmp_path / "store").load_entries("db1")
    ]

    question = entries[0].question
    assert not hasattr(question, "__dict__")
    moved = dataclasses.replace(question, id="q009")
    assert (moved.id, moved.text, moved.database_id) == ("q009", question.text, "db1")
    assert copy.deepcopy(question) == question
    assert pickle.loads(pickle.dumps(question)) == question
    assert Question.from_dict(question.to_dict()) == question


def test_an_indexed_entry_path_is_built_once_per_entry(tmp_path):
    _persist_all(tmp_path)
    store = MemoryStore(tmp_path / "store")
    first = store.load_entries("db1")
    second = store.load_entries("db1")
    assert store.counts.indexed == 4
    for a, b in zip(first, second):
        assert isinstance(a.path, Path)
        assert a.path is b.path


def test_same_size_edit_with_mtime_set_back_ignores_the_stale_line(tmp_path):
    _persist_all(tmp_path)
    meta_path = tmp_path / "store" / "db1" / "q000" / "meta.json"
    before = os.stat(meta_path)
    time.sleep(0.05)
    meta_path.write_text(meta_path.read_text().replace("airports", "carriers"))
    os.utime(meta_path, ns=(before.st_atime_ns, before.st_mtime_ns))
    assert os.stat(meta_path).st_size == before.st_size
    store = MemoryStore(tmp_path / "store")
    assert store.load_entries("db1")[0].question.text == "list the carriers by country"
    assert store.counts == store_module.LoadCounts(indexed=3, parsed=1, corrupt=0, healed=1)


def test_winner_changed_after_load_is_dropped_and_the_selection_redone(tmp_path):
    _persist_all(tmp_path)
    store = MemoryStore(tmp_path / "store")
    store.load_entries("db1")
    (tmp_path / "store" / "db1" / "q001" / "meta.json").write_text("{broken")
    assert _selected(store, "departure delay per carrier") == _expected(
        tmp_path, "departure delay per carrier", corrupt=("q001",)
    )
    assert [e.question.id for e in store.load_entries("db1")] == ["q000", "q002", "q003"]


def test_an_index_line_whose_text_is_not_a_string_is_parsed_from_meta_json(tmp_path):
    _persist_all(tmp_path)
    lines = [json.loads(raw) for raw in _index(tmp_path).read_bytes().splitlines()]
    lines[1]["question"]["text"] = 5
    _index(tmp_path).write_text("".join(json.dumps(line) + "\n" for line in lines))
    selected, store = _cold_selection(tmp_path, _TEXTS[1])
    assert selected == "q001"
    assert (store.counts.indexed, store.counts.corrupt) == (3, 0)


def test_a_second_store_persisting_while_the_first_is_warm(tmp_path):
    first = _persist_all(tmp_path)
    reader = MemoryStore(tmp_path / "store")
    assert _selected(reader, "count the products") == "q002"
    second = MemoryStore(tmp_path / "store")
    _persist_text(second, "q002", "orders per month in the north")
    _persist_text(second, "q004", "count the distinct products")
    parsed = reader.counts.parsed
    for text in _TEXTS + ["orders per month"]:
        assert _selected(reader, text) == _expected(tmp_path, text)
    # The two new versions are parsed in full, once each, and the segments of
    # the three indexed winners not read before are read once each.
    assert reader.counts.parsed - parsed == 5
    assert reader.counts.indexed == 4
    assert _selected(first, "orders per month") == "q002"


def test_overwrites_keep_the_index_bounded(tmp_path):
    writer = _persist_all(tmp_path)
    for i in range(100):
        _persist_text(writer, "q001", f"average departure delay per carrier {i % 7}")
    assert _index(tmp_path).stat().st_size < 2 * store_module._COMPACT_FROM
    selected, store = _cold_selection(tmp_path, "departure delay per carrier 5")
    assert selected == "q001"
    assert store.counts == store_module.LoadCounts(indexed=4, parsed=1, corrupt=0)


def test_compaction_drops_lines_in_the_older_list_format(tmp_path):
    writer = _persist_all(tmp_path)
    _write_counts_in_the_older_list_format(tmp_path)
    # A first load appends a current line after each older one.
    assert _cold_selection(tmp_path, "count the products")[1].counts.healed == 4
    for i in range(100):
        _persist_text(writer, "q001", f"average departure delay per carrier {i % 7}")
    lines = [json.loads(raw) for raw in _index(tmp_path).read_bytes().splitlines()]
    # Compaction keeps the last line of each entry, so no older line is left.
    assert {line["question"]["id"] for line in lines} == {"q000", "q001", "q002", "q003"}
    assert len(lines) < 100
    assert all(isinstance(line["counts"], str) for line in lines)
    selected, store = _cold_selection(tmp_path, "departure delay per carrier 5")
    assert selected == "q001"
    assert store.counts == store_module.LoadCounts(indexed=4, parsed=1, corrupt=0, healed=0)


_OPERATION = st.one_of(
    st.tuples(st.just("persist"), st.integers(0, 5), st.sampled_from(
        _TEXTS + ["orders per month in the north", "group by region", "group by region totals"]
    )),
    st.tuples(st.just("corrupt"), st.integers(0, 5), st.just("")),
    st.tuples(st.just("delete"), st.integers(0, 5), st.just("")),
    st.tuples(st.just("drop index"), st.just(0), st.just("")),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_OPERATION, max_size=12), st.sampled_from(_TEXTS))
def test_index_equivalence_under_writes_damage_and_deletion(operations, query):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        writer = MemoryStore(root / "store")
        warm = MemoryStore(root / "store")
        corrupt: set[str] = set()
        for name, number, text in operations:
            entry_dir = root / "store" / "db1" / f"q{number:03d}"
            if name in ("persist", "delete"):
                corrupt.discard(entry_dir.name)
            if name == "persist":
                _persist_text(writer, entry_dir.name, text)
            elif name == "corrupt" and entry_dir.is_dir():
                (entry_dir / "meta.json").write_text('{"question": 5}')
                corrupt.add(entry_dir.name)
            elif name == "delete":
                shutil.rmtree(entry_dir, ignore_errors=True)
            elif name == "drop index":
                (root / "store" / "db1" / ".index.jsonl").unlink(missing_ok=True)
            question = Question(id="probe", text=query, database_id="db1")
            expected = brute_force_select(
                question, entries_on_disk(root / "store" / "db1", corrupt), HashingEmbedder(256)
            )
            for store in (warm, MemoryStore(root / "store")):
                got = select_trajectory(question, store)
                if expected is None:
                    assert got is None
                else:
                    assert (got.question, got.path) == (expected.question, expected.path)
                    assert got.structured == expected.structured


def test_segments_of_an_entry_rewritten_since_its_load_are_not_read(tmp_path):
    _persist_all(tmp_path)
    reader = MemoryStore(tmp_path / "store")
    stale = reader.load_entries("db1")[1]
    steps = _text_steps("new")
    rewritten = memory_entry("q001", "db1", _TEXTS[1], steps, "2026-02-02T00:00:00+00:00")
    MemoryStore(tmp_path / "store").persist(rewritten, trajectory(steps, "q001", "db1"))
    # Same question, so only the stamp tells the versions apart: the stale
    # entry's created_at must not be joined to the new version's segments.
    with pytest.raises(StorageError):
        stale.structured.segments
    assert not reader.read_segments(stale)
    winner = select_trajectory(Question(id="probe", text=_TEXTS[1], database_id="db1"), reader)
    assert (winner.created_at, winner.structured) == (rewritten.created_at, rewritten.structured)


def _rewrite_in_the_older_format(root: Path) -> None:
    """Rewrite a store as the previous layout wrote it: a store.json naming
    an embedding dimension, and a top-level database_id in every meta.json
    and index line, each line carrying the stamp of its rewritten meta.json."""
    (root / "store.json").write_text(json.dumps({"embedding_dimension": 64}, indent=2) + "\n")
    index = root / "db1" / ".index.jsonl"
    lines = []
    for raw in index.read_text().splitlines():
        line = json.loads(raw)
        meta_path = root / "db1" / line["question"]["id"] / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta = {"question": meta["question"], "database_id": "db1",
                "created_at": meta["created_at"], "segments": _written_segments(meta)}
        meta_path.write_text(json.dumps(meta, ensure_ascii=False) + "\n")
        meta_stat = os.stat(meta_path)
        line = {"question": line["question"], "database_id": "db1",
                **{key: line[key] for key in ("created_at", "stamp", "dimension", "counts")}}
        line["stamp"] = [meta_stat.st_ino, meta_stat.st_mtime_ns, meta_stat.st_ctime_ns,
                         meta_stat.st_size]
        lines.append(json.dumps(line, ensure_ascii=False, separators=(",", ":")) + "\n")
    index.write_text("".join(lines))


def test_a_store_in_the_older_format_loads_as_the_same_store(tmp_path):
    for name in ("plain", "older"):
        writer = MemoryStore(tmp_path / name)
        for i, text in enumerate(_TEXTS):
            _persist_text(writer, f"q{i:03d}", text)
    _rewrite_in_the_older_format(tmp_path / "older")
    plain_warm, older_warm = MemoryStore(tmp_path / "plain"), MemoryStore(tmp_path / "older")
    for text in _TEXTS + ["airports per country", "products", "delay", "north orders"]:
        question = Question(id="probe", text=text, database_id="db1")
        plain, older = MemoryStore(tmp_path / "plain"), MemoryStore(tmp_path / "older")
        for plain_store, older_store in ((plain, older), (plain_warm, older_warm)):
            expected = select_trajectory(question, plain_store)
            got = select_trajectory(question, older_store)
            assert (got.question, got.created_at, got.structured) == (
                expected.question, expected.created_at, expected.structured
            )
        assert older.counts == plain.counts == store_module.LoadCounts(
            indexed=4, parsed=1, corrupt=0
        )
    assert older_warm.counts == plain_warm.counts
    assert older_warm.load_entries("db1") == plain_warm.load_entries("db1")

    # The next write is in the current format; store.json is left as it was.
    path = _persist_text(older_warm, "q004", "orders per month in the north")
    assert sorted(json.loads((path / "meta.json").read_text())) == [
        "created_at", "question", "trajectory"
    ]
    last = json.loads((tmp_path / "older" / "db1" / ".index.jsonl").read_text().splitlines()[-1])
    assert sorted(last) == ["counts", "created_at", "dimension", "question", "stamp"]
    assert json.loads((tmp_path / "older" / "store.json").read_text()) == {
        "embedding_dimension": 64
    }


# -- observations a step's invocations rebuild ------------------------------------

_OUTPUT_TEXT = st.one_of(
    st.sampled_from(["", "ok", "### get_ddl\nCREATE TABLE t (a INT)", "a\n\n### b\nc", "\n"]),
    st.text(alphabet="#ab \n", max_size=12),
)


@st.composite
def _stored_step(draw, index):
    invocations = [
        ToolInvocation(tool_name=name, args={"q": "1"}, output=draw(_OUTPUT_TEXT),
                       succeeded=draw(st.booleans()))
        for name in draw(st.lists(st.sampled_from(["get_ddl", "sql_execute", "a b"]),
                                  max_size=3))
    ]
    rendered = render_observation((inv.tool_name, inv.output) for inv in invocations)
    observation = draw(st.one_of(
        st.just(rendered),
        st.just(""),
        st.just(rendered + "\n[truncated]"),
        _OUTPUT_TEXT,
    ))
    return Step(index=index, thought=draw(st.sampled_from(["", "look"])),
                action_code="get_ddl()", invocations=invocations,
                observation=observation, phase=draw(st.sampled_from(list(Phase))))


@st.composite
def _classified_trajectories(draw):
    size = draw(st.integers(1, 5))
    return trajectory([draw(_stored_step(index)) for index in range(size)],
                      question_id="q001", database_id="sqlite_fixture")


@settings(max_examples=120, deadline=None)
@given(_classified_trajectories())
def test_a_stored_trajectory_loads_back_equal_and_rewrites_byte_identical(stored):
    entry = MemoryEntry(question=_question(), structured=structure_trajectory(stored))
    with tempfile.TemporaryDirectory() as tmp:
        first, second = MemoryStore(Path(tmp) / "one"), MemoryStore(Path(tmp) / "two")
        path = first.persist(entry, trajectory=stored)
        meta = json.loads((path / "meta.json").read_text(encoding="utf-8"))
        for data, step_ in zip(meta["trajectory"]["steps"], stored.steps, strict=True):
            rendered = render_observation((i.tool_name, i.output) for i in step_.invocations)
            assert ("observation" in data) == (step_.observation != rendered)
        (loaded,) = first.load_trajectories("sqlite_fixture")
        assert loaded == stored
        (loaded_entry,) = first.load_entries("sqlite_fixture")
        again = second.persist(loaded_entry, trajectory=loaded)
        assert {p.name: p.read_bytes() for p in again.iterdir()} == {
            p.name: p.read_bytes() for p in path.iterdir()
        }


_OLDER_ENTRY = Path(__file__).parent / "data" / "older_entry"


def test_an_entry_written_with_every_observation_loads_unchanged(tmp_path):
    # Written before meta.json left out the observations that a step's
    # invocations rebuild, and with the default JSON separators.
    older = (_OLDER_ENTRY / "meta.json").read_text(encoding="utf-8")
    raw = json.loads(older)
    assert all("observation" in data for data in raw["trajectory"]["steps"])
    entry_dir = tmp_path / "older" / "flights" / raw["question"]["id"]
    entry_dir.mkdir(parents=True)
    shutil.copy(_OLDER_ENTRY / "meta.json", entry_dir)
    older_store = MemoryStore(tmp_path / "older")
    (entry,) = older_store.load_entries("flights")
    (stored,) = older_store.load_trajectories("flights")
    assert stored == Trajectory.from_dict(raw["trajectory"])
    assert entry.question == Question.from_dict(raw["question"])
    assert entry.created_at == raw["created_at"]
    assert [seg.body for seg in entry.structured.segments] == [
        seg["body"] for seg in raw["segments"]
    ]
    assert older_store.counts.corrupt == 0

    newer_store = MemoryStore(tmp_path / "newer")
    path = newer_store.persist(entry, trajectory=stored)
    (rendered,) = MemoryStore(tmp_path / "newer").load_entries("flights")
    full = (_OLDER_ENTRY / "full.md").read_bytes()
    assert newer_store.load_phase_segment(rendered).encode("utf-8") == full
    newer = (path / "meta.json").read_text(encoding="utf-8")
    assert len(newer) < len(older)
    assert all("observation" not in data for data in json.loads(newer)["trajectory"]["steps"])
    assert MemoryStore(tmp_path / "newer").load_entries("flights") == [entry]
    assert MemoryStore(tmp_path / "newer").load_trajectories("flights") == [stored]


# One synthesized entry as each earlier writer stored it (meta.json, full.md
# and its index line), and what that writer's own reader loaded from it.
_EARLIER_WRITERS = ["observations_left_out", "segments_left_out", "defaults_left_out"]


@pytest.mark.parametrize("index", ["kept", "deleted"])
@pytest.mark.parametrize("written_by", _EARLIER_WRITERS)
def test_an_entry_of_each_earlier_writer_loads_as_its_writer_loaded_it(tmp_path, written_by, index):
    data = Path(__file__).parent / "data" / written_by
    expected = json.loads((data / "loaded.json").read_text(encoding="utf-8"))
    database_dir = tmp_path / "store" / "flights"
    entry_dir = database_dir / expected["question"]["id"]
    entry_dir.mkdir(parents=True)
    for name in ("meta.json", "full.md"):
        shutil.copy(data / name, entry_dir)
    if index == "kept":
        shutil.copy(data / "index.jsonl", database_dir / ".index.jsonl")
        restamp_index_line(entry_dir)
    store = MemoryStore(tmp_path / "store")
    (entry,) = store.load_entries("flights")
    assert store.counts.indexed == (index == "kept")
    assert (entry.question, entry.created_at) == (
        Question.from_dict(expected["question"]), expected["created_at"]
    )
    assert [
        {"phase": seg.phase.value, "header": seg.header, "body": seg.body}
        for seg in entry.structured.segments
    ] == expected["segments"]
    assert store.load_phase_segment(entry).encode("utf-8") == (data / "full.md").read_bytes()
    assert store.load_trajectories("flights") == [Trajectory.from_dict(expected["trajectory"])]
    assert store.counts.corrupt == 0


def test_an_unread_entry_persisted_again_reads_its_segments_from_the_new_version(
    tmp_path, monkeypatch
):
    _persist_all(tmp_path)
    store = MemoryStore(tmp_path / "store")
    entry = store.load_entries("db1")[1]
    stored = store.load_trajectories("db1")[1]
    reads = _meta_reads(monkeypatch)
    store.persist(entry, stored)
    (kept,) = [e for e in store.load_entries("db1") if e.question.id == "q001"]
    new_stamp = store._entries["db1"]["q001"][0]
    # Neither the given entry's segments nor the kept one's were read yet.
    assert reads == []
    assert store.read_segments(kept)
    assert reads == [("q001", new_stamp)]
    rendered = memory_entry("q001", "db1", _TEXTS[1], _text_steps(_TEXTS[1])).structured
    assert kept.structured == rendered
    # The given entry's segments were never read from the version it replaced.
    assert not store.read_segments(entry)


def test_a_failed_read_of_a_stale_entry_keeps_the_newer_version_cached(tmp_path):
    _persist_all(tmp_path)
    store = MemoryStore(tmp_path / "store")
    stale = store.load_entries("db1")[1]
    store.persist(stale, store.load_trajectories("db1")[1])
    assert not store.read_segments(stale)
    parsed = store.counts.parsed
    (kept,) = [e for e in store.load_entries("db1") if e.question.id == "q001"]
    assert kept is not stale
    assert store.counts.parsed == parsed


_LONG_TEXT = "é" * (store_module.DEFAULT_OBSERVATION_LIMIT + 3)


@st.composite
def _rendered_trajectories(draw):
    """Classified trajectories with the texts that reach each rule of the
    markdown rendering: an observation past ``DEFAULT_OBSERVATION_LIMIT``,
    which is truncated, whether its invocations rebuild it or not; an empty
    thought beside an empty or fence-only action, which leaves a segment
    the fallback header; non-ASCII text; several phase runs."""
    stored = draw(_classified_trajectories())
    for step_ in stored.steps:
        step_.thought = draw(st.sampled_from(["", "look", "  ", "列を数える ünd"]))
        step_.action_code = draw(st.sampled_from(["get_ddl()", "", "```", "SELECT 'ø'"]))
        if step_.invocations and draw(st.booleans()):
            step_.invocations[0].output = _LONG_TEXT
            step_.observation = render_observation(
                (i.tool_name, i.output) for i in step_.invocations
            )
        elif draw(st.booleans()):
            step_.observation = _LONG_TEXT
    return stored


@settings(max_examples=80, deadline=None)
@given(_rendered_trajectories())
def test_segments_left_out_of_meta_json_load_back_from_the_trajectory(stored):
    expected = structure_trajectory(stored)
    entry = MemoryEntry(question=_question(), structured=expected)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "store"
        path = MemoryStore(root).persist(entry, trajectory=stored)
        meta = (path / "meta.json").read_bytes()
        assert "segments" not in json.loads(meta)
        indexed = MemoryStore(root)
        (from_index,) = indexed.load_entries("sqlite_fixture")
        assert indexed.read_segments(from_index)
        (root / "sqlite_fixture" / ".index.jsonl").unlink()
        parsing = MemoryStore(root)
        (parsed,) = parsing.load_entries("sqlite_fixture")
        (fresh,) = MemoryStore(root).load_entries("sqlite_fixture")
        assert (indexed.counts.indexed, parsing.counts.indexed) == (1, 0)
        for loaded in (from_index, parsed, fresh):
            assert loaded.structured == expected
            assert parsing.load_phase_segment(loaded) == expected.full_document
        (trajectory_,) = MemoryStore(root).load_trajectories("sqlite_fixture")
        again = MemoryStore(Path(tmp) / "again").persist(fresh, trajectory=trajectory_)
        assert (again / "meta.json").read_bytes() == meta


# -- fields a stored trajectory leaves out ------------------------------------------

@st.composite
def _written_step(draw, index):
    invocations = [
        ToolInvocation(tool_name=name, args=draw(st.sampled_from([{}, {"q": "1"}])),
                       output=draw(st.sampled_from(["", "ok", "a\n\n### b"])),
                       succeeded=draw(st.booleans()))
        for name in draw(st.lists(st.sampled_from(["get_ddl", "sql_execute"]), max_size=2))
    ]
    rendered = render_observation((inv.tool_name, inv.output) for inv in invocations)
    return Step(index=index, thought=draw(st.sampled_from(["", "look"])),
                action_code=draw(st.sampled_from(["", "get_ddl()"])), invocations=invocations,
                observation=draw(st.sampled_from([rendered, "", "other"])),
                phase=draw(st.sampled_from(list(Phase))))


@st.composite
def _written_trajectories(draw):
    """Classified trajectories whose steps are in place or, now and then, one
    out of place, and whose ids are the question's or not."""
    size = draw(st.integers(1, 4))
    misplaced = draw(st.sampled_from([None, *range(size)]))
    return Trajectory(
        question_id=draw(st.sampled_from(["q001", "q002"])),
        database_id=draw(st.sampled_from(["sqlite_fixture", "other_db"])),
        steps=[draw(_written_step(i + (i == misplaced))) for i in range(size)],
        final_answer=draw(st.sampled_from([None, "42"])),
    )


@settings(max_examples=150, deadline=None)
@given(_written_trajectories())
def test_a_trajectory_leaves_out_what_its_reader_fills_in_and_loads_back(stored):
    entry = MemoryEntry(question=_question(), structured=structure_trajectory(stored))
    in_place = all(step_.index == i for i, step_ in enumerate(stored.steps))
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "store"
        if not in_place:
            # A step out of place would load as corrupt, so nothing is written.
            with pytest.raises(StorageError, match="not its position"):
                MemoryStore(root).persist(entry, trajectory=stored)
            assert not root.exists()
            return
        path = MemoryStore(root).persist(entry, trajectory=stored)
        written = json.loads((path / "meta.json").read_text(encoding="utf-8"))["trajectory"]
        assert ("question_id" in written) == (stored.question_id != "q001")
        assert ("database_id" in written) == (stored.database_id != "sqlite_fixture")
        for data, step_ in zip(written["steps"], stored.steps, strict=True):
            assert "index" not in data
            assert ("invocations" in data) == bool(step_.invocations)
            assert [("succeeded" in inv, "args" in inv) for inv in data.get("invocations", [])] \
                == [(not inv.succeeded, bool(inv.args)) for inv in step_.invocations]
        assert MemoryStore(root).load_trajectories("sqlite_fixture") == [stored]
        indexed = MemoryStore(root)
        (from_index,) = indexed.load_entries("sqlite_fixture")
        assert indexed.read_segments(from_index)
        (root / "sqlite_fixture" / ".index.jsonl").unlink()
        (parsed,) = MemoryStore(root).load_entries("sqlite_fixture")
        assert from_index.structured == parsed.structured == entry.structured
        assert entries_on_disk(root / "sqlite_fixture") == [entry]


def test_the_reference_renders_entries_stored_with_their_trajectory(tmp_path):
    _persist_with_trajectories(tmp_path / "store")
    database_dir = tmp_path / "store" / "sqlite_fixture"
    assert not any("segments" in json.loads(meta.read_text(encoding="utf-8"))
                   for meta in database_dir.glob("*/meta.json"))
    loaded = MemoryStore(tmp_path / "store").load_entries("sqlite_fixture")
    assert len(loaded) == len(_TEXTS)
    assert entries_on_disk(database_dir) == loaded
    break_segments(database_dir / "q001", "unclassified step")
    with pytest.raises(StateError, match="unclassified"):
        entries_on_disk(database_dir)
    assert entries_on_disk(database_dir, corrupt={"q001"}) == loaded[:1] + loaded[2:]


# -- an entry whose segments its trajectory cannot rebuild -------------------------

def _persist_with_trajectories(root: Path) -> None:
    store = MemoryStore(root)
    for i, text in enumerate(_TEXTS):
        question = dataclasses.replace(_question(), id=f"q{i:03d}", text=text)
        store.persist(
            MemoryEntry(question, structure_trajectory(_classified_fixture())),
            trajectory=_classified_fixture(),
        )


@pytest.mark.parametrize("damage", UNRENDERABLE)
def test_a_full_parse_skips_an_entry_with_no_segments_to_rebuild(tmp_path, damage):
    _persist_with_trajectories(tmp_path / "store")
    break_segments(tmp_path / "store" / "sqlite_fixture" / "q001", damage)
    store = MemoryStore(tmp_path / "store")
    assert [e.question.id for e in store.load_entries("sqlite_fixture")] == [
        "q000", "q002", "q003"
    ]
    assert (store.counts.corrupt, store.counts.indexed) == (1, 3)


@pytest.mark.parametrize("damage", UNRENDERABLE)
def test_an_indexed_winner_with_no_segments_to_rebuild_is_dropped(tmp_path, damage):
    for root in ("store", "expected"):
        _persist_with_trajectories(tmp_path / root)
    shutil.rmtree(tmp_path / "expected" / "sqlite_fixture" / "q001")
    broken = tmp_path / "store" / "sqlite_fixture" / "q001"
    break_segments(broken, damage)
    restamp_index_line(broken)

    store = MemoryStore(tmp_path / "store")
    (winner,) = [e for e in store.load_entries("sqlite_fixture") if e.question.id == "q001"]
    assert store.counts == store_module.LoadCounts(indexed=4)
    assert not store.read_segments(winner)
    assert [e.question.id for e in store.load_entries("sqlite_fixture")] == [
        "q000", "q002", "q003"
    ]
    assert store.counts.corrupt == 1

    # A new store whose selection falls on that entry drops it and takes the next one.
    question = Question(id="probe", text=_TEXTS[1], database_id="sqlite_fixture")
    store = MemoryStore(tmp_path / "store")
    selected = select_trajectory(question, store)
    expected = select_trajectory(question, MemoryStore(tmp_path / "expected"))
    assert (selected.question, selected.structured) == (expected.question, expected.structured)
    assert (store.counts.indexed, store.counts.corrupt) == (4, 1)
