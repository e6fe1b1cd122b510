from __future__ import annotations

import base64
import copy
import dataclasses
import errno
import json
import logging
import os
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
from trajmem.errors import StorageError
from trajmem.model import Phase, Question
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

from helpers import memory_entry, step, trajectory
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


def _entry():
    question = _question()
    structured = structure_trajectory(_classified_fixture())
    return MemoryEntry(question=question, structured=structured)


def test_persist_writes_two_files(tmp_path):
    store = MemoryStore(tmp_path / "store")
    path = store.persist(_entry(), trajectory=_classified_fixture())
    assert path == tmp_path / "store" / "sqlite_fixture" / "q001"
    assert sorted(p.name for p in path.iterdir()) == ["full.md", "meta.json"]
    assert sorted(json.loads((path / "meta.json").read_text())) == [
        "created_at",
        "question",
        "segments",
        "trajectory",
    ]


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
    path = store.persist(_entry())
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
    entry = _entry()
    phases = [*Phase, None]
    before = {phase: store.load_phase_segment(entry, phase) for phase in phases}
    store.persist(entry, trajectory=_classified_fixture())
    loaded = store.load_entries("sqlite_fixture")[0]
    assert {phase: store.load_phase_segment(loaded, phase) for phase in phases} == before


def test_older_layout_loads_and_is_rewritten_as_two_files(tmp_path):
    store = MemoryStore(tmp_path / "store")
    path = store.persist(_entry(), trajectory=_classified_fixture())
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
        entry = MemoryEntry(question=question, structured=StructuredTrajectory(segments=[]))
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


def test_duplicate_question_id_overwrites(tmp_path):
    store = MemoryStore(tmp_path / "store")
    first = _entry()
    first.created_at = "2026-01-01T00:00:00+00:00"
    store.persist(first)
    second = _entry()
    second.created_at = "2026-02-02T00:00:00+00:00"
    store.persist(second)
    entries = store.load_entries("sqlite_fixture")
    assert len(entries) == 1
    assert entries[0].created_at == "2026-02-02T00:00:00+00:00"


def test_load_phase_segment_contents(tmp_path):
    store = MemoryStore(tmp_path / "store")
    entry = _entry()
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
    entry = MemoryEntry(question=question, structured=structure_trajectory(t))
    store.persist(entry)
    assert store.load_phase_segment(entry, Phase.VALIDATION) == ""


@pytest.mark.parametrize("bad_id", ["../escaped", "a/b", ".hidden", "q001\n"])
def test_persist_rejects_unsafe_question_id(tmp_path, bad_id):
    store = MemoryStore(tmp_path / "store")
    entry = _entry()
    entry.question = dataclasses.replace(entry.question, id=bad_id)
    with pytest.raises(StorageError):
        store.persist(entry)
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
        store.persist(entry)
    assert not (tmp_path / "store" / "sqlite_fixture" / "q001").exists()
    assert store.load_entries("sqlite_fixture") == []


# -- the per-store entry cache ---------------------------------------------------------


def _persist_text(store: MemoryStore, question_id: str, text: str, database_id: str = "db1"):
    return store.persist(memory_entry(question_id, database_id, text))


def _selected(store: MemoryStore, text: str) -> str | None:
    entry = select_trajectory(Question(id="probe", text=text, database_id="db1"), store)
    return None if entry is None else entry.question.id


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
    parsed = []
    original = store_module._parse_entry

    def counting(entry_dir, meta):
        parsed.append(os.path.basename(entry_dir))
        return original(entry_dir, meta)

    monkeypatch.setattr(store_module, "_parse_entry", counting)
    store = MemoryStore(tmp_path / "store")
    for i in range(20):
        _selected(store, f"question {i % 6} about flights")
    assert sorted(parsed) == [f"q{i:03d}" for i in range(6)]

    _persist_text(writer, "q003", "a rewritten question")
    _persist_text(writer, "q006", "a new question")
    for _ in range(5):
        store.load_entries("db1")
    assert sorted(parsed[6:]) == ["q003", "q006"]


def test_threads_sharing_a_store_parse_each_entry_once(tmp_path, monkeypatch):
    writer = MemoryStore(tmp_path / "store")
    for i in range(100):
        _persist_text(writer, f"q{i:03d}", f"question number {i}")
    parsed = []
    original = store_module._parse_entry
    monkeypatch.setattr(
        store_module,
        "_parse_entry",
        lambda entry_dir, meta: parsed.append(entry_dir) or original(entry_dir, meta),
    )
    store = MemoryStore(tmp_path / "store")
    results = []
    start = threading.Barrier(8, timeout=60)

    def load():
        start.wait()
        results.append(store.load_entries("db1"))

    threads = [threading.Thread(target=load) for _ in range(8)]
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
    assert len(parsed) == len(set(parsed)) == 100
    assert len(results) == 8
    assert all([e.question.id for e in r] == [f"q{i:03d}" for i in range(100)] for r in results)


def test_loaded_entries_are_copies_the_caller_may_change(tmp_path):
    store = MemoryStore(tmp_path / "store")
    _persist_text(store, "q001", "first question")
    loaded = store.load_entries("db1")[0]
    loaded.question = dataclasses.replace(loaded.question, id="changed")
    assert [e.question.id for e in store.load_entries("db1")] == ["q001"]


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
            **{key: meta[key] for key in ("created_at", "segments")},
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


# -- the per-database index ------------------------------------------------------------


def _index(tmp_path, database_id="db1"):
    return tmp_path / "store" / database_id / ".index.jsonl"


def _cold_selection(tmp_path, text: str) -> tuple[str | None, MemoryStore]:
    store = MemoryStore(tmp_path / "store")
    return _selected(store, text), store


def _expected(tmp_path, text: str) -> str | None:
    question = Question(id="probe", text=text, database_id="db1")
    entry = brute_force_select(question, entries_on_disk(tmp_path / "store" / "db1"),
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
    assert entry.structured.loaded and entry.path == tmp_path / "store" / "db1" / "q001"


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
    read = MemoryStore(tmp_path / "store")._read_index("db1")
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
        read = MemoryStore(Path(tmp) / "store")._read_index("db1")
        assert read == _read_per_line(index)
        # Each id keeps its last well-formed line; of q001's two, only the
        # current one (the last written) still matches its meta.json.
        store = MemoryStore(Path(tmp) / "store")
        entries = store.load_entries("db1")
        assert [e.question.id for e in entries] == [f"q{i:03d}" for i in range(4)]
        current = {valid[0], valid[2], valid[3], valid[4]}
        assert store.counts.indexed == sum(raw in current for _, raw in read.values())


@pytest.mark.parametrize("tail", [b'{"question":{"id":"q0', b"\x00\xffgarbage\n", b"[1, 2]\n"])
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


def test_an_indexed_entry_equals_its_twin_parsed_from_meta_json(tmp_path):
    _persist_all(tmp_path)
    database_dir = tmp_path / "store" / "db1"
    store = MemoryStore(tmp_path / "store")
    entries = store.load_entries("db1")
    assert store.counts.indexed == 4
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
        assert not entry.structured.loaded
        assert entry.structured.segments == twin.structured.segments
        assert entry == twin

    # Rebinding the fields of a returned copy leaves the store's copy as it was.
    loaded = store.load_entries("db1")[0]
    loaded.path = tmp_path / "elsewhere"
    loaded.question = dataclasses.replace(loaded.question, text="changed")
    again = store.load_entries("db1")[0]
    assert (again.path, again.question.text) == (database_dir / "q000", _TEXTS[0])


def test_an_indexed_entry_path_is_built_once_for_all_its_copies(tmp_path):
    _persist_all(tmp_path)
    store = MemoryStore(tmp_path / "store")
    first = store.load_entries("db1")
    second = store.load_entries("db1")
    assert store.counts.indexed == 4
    for a, b in zip(first, second):
        assert a.path is b.path
        assert copy.copy(b).path is a.path
    # A copy whose path is rebound before it is read leaves the others alone.
    moved = store.load_entries("db1")[0]
    moved.path = tmp_path / "elsewhere"
    assert moved.path == tmp_path / "elsewhere"
    assert store.load_entries("db1")[0].path is first[0].path


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
        tmp_path, "departure delay per carrier"
    )
    assert [e.question.id for e in store.load_entries("db1")] == ["q000", "q002", "q003"]


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
        for name, number, text in operations:
            entry_dir = root / "store" / "db1" / f"q{number:03d}"
            if name == "persist":
                entry = memory_entry(f"q{number:03d}", "db1", text)
                entry.structured = StructuredTrajectory(
                    segments=[store_module.StructuredSegment(Phase.EXPLORATION, text, text)]
                )
                writer.persist(entry)
            elif name == "corrupt" and entry_dir.is_dir():
                (entry_dir / "meta.json").write_text('{"question": 5}')
            elif name == "delete":
                shutil.rmtree(entry_dir, ignore_errors=True)
            elif name == "drop index":
                (root / "store" / "db1" / ".index.jsonl").unlink(missing_ok=True)
            question = Question(id="probe", text=query, database_id="db1")
            expected = brute_force_select(
                question, entries_on_disk(root / "store" / "db1"), HashingEmbedder(256)
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
    rewritten = memory_entry("q001", "db1", _TEXTS[1])
    rewritten.created_at = "2026-02-02T00:00:00+00:00"
    rewritten.structured = StructuredTrajectory(
        segments=[store_module.StructuredSegment(Phase.EXPLORATION, "new", "new body")]
    )
    MemoryStore(tmp_path / "store").persist(rewritten)
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
                **{key: meta[key] for key in ("created_at", "segments")}}
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
        "created_at", "question", "segments"
    ]
    last = json.loads((tmp_path / "older" / "db1" / ".index.jsonl").read_text().splitlines()[-1])
    assert sorted(last) == ["counts", "created_at", "dimension", "question", "stamp"]
    assert json.loads((tmp_path / "older" / "store.json").read_text()) == {
        "embedding_dimension": 64
    }
