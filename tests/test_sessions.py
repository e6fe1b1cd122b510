"""A workspace keeps the read-only sessions its episodes hand back, and an
episode on a kept session reads exactly as it would on a new connection."""

from __future__ import annotations

import contextlib
import os
import shutil
import sqlite3
import sys
import threading

import pytest

import trajmem.backend as backend_module
from trajmem.errors import ConfigurationError
from trajmem.fixtures import build_fixture_workspace
from trajmem.harness import EpisodeConfig, run_episode
from trajmem.metrics import RunRecord
from trajmem.model import Question
from trajmem.policies import QuestionScript, ScriptedPolicy
from trajmem.tools import Workspace

from helpers import still_open

# Probes that show what a session kept from an earlier episode: its TEMP
# schema and its LIKE setting.
_CLEAN = QuestionScript(
    probes=[
        "SELECT type, name FROM temp.sqlite_master ORDER BY name",
        "SELECT 'A' LIKE 'a' AS folded, COUNT(*) AS n FROM flights",
    ],
    main_sql="SELECT COUNT(*) AS n FROM flights",
    answer="done",
)
_CONFIG = EpisodeConfig(memory_enabled=False, composites_enabled=False)
_RUNAWAY = (
    "WITH RECURSIVE c(n) AS (SELECT 1 UNION ALL SELECT n + 1 FROM c WHERE n < 10000000000) "
    "SELECT MAX(n) FROM c"
)


def _episode(workspace, tmp_path, probes=None, question_id="clean", database_id="flights"):
    """The episode's run record and trajectory, latency aside."""
    script = _CLEAN if probes is None else QuestionScript(probes=probes, main_sql="SELECT 1")
    question = Question(id=question_id, text="How many flights are there?",
                        database_id=database_id)
    result = run_episode(question, workspace, _CONFIG, ScriptedPolicy({question_id: script}),
                         answer_dir=tmp_path / "answers")
    record = RunRecord.from_trajectory(result.trajectory, result.answer_rows, None)
    return {**record.to_dict(), "wall_time_ms": 0}, {**result.trajectory.to_dict(),
                                                     "wall_time_ms": 0}


def _fresh(root, tmp_path):
    with Workspace(root) as workspace:
        return _episode(workspace, tmp_path)


@pytest.mark.parametrize(
    "hostile, kept",
    [
        pytest.param(["CREATE TEMP TABLE t (a)", "INSERT INTO temp.t VALUES (1)"], False,
                     id="temp-table"),
        pytest.param(["CREATE TEMP VIEW v AS SELECT * FROM carriers"], False, id="temp-view"),
        pytest.param(["CREATE TEMP TRIGGER tr AFTER INSERT ON main.carriers BEGIN SELECT 1; END"],
                     False, id="temp-trigger"),
        pytest.param(["PRAGMA case_sensitive_like = 1"], False, id="pragma"),
        pytest.param(["BEGIN"], False, id="begin"),
        pytest.param(["SAVEPOINT sp"], False, id="savepoint"),
        pytest.param(["ATTACH DATABASE ':memory:' AS m"], False, id="denied-attach"),
        pytest.param([_RUNAWAY], True, id="time-limit"),
        pytest.param(["SELEC 1 FROM"], True, id="parse-error"),
    ],
)
def test_a_clean_episode_after_a_hostile_one_reads_as_on_a_fresh_workspace(
    tmp_path, monkeypatch, opened, hostile, kept
):
    monkeypatch.setattr(backend_module, "QUERY_TIME_LIMIT_S", 0.2)
    root = build_fixture_workspace(tmp_path / "ws")
    fresh = _fresh(root, tmp_path)
    with Workspace(root) as workspace:
        _episode(workspace, tmp_path, probes=hostile, question_id="hostile")
        before = len(opened)
        assert _episode(workspace, tmp_path) == fresh
        # A session that did more than read is closed; one that only read is kept.
        assert len(opened) - before == (0 if kept else 1)


def test_the_hostile_statements_take_effect_on_their_own_session(tmp_path):
    """The clean probes would see each leak: the hostile episode's own
    session shows it."""
    root = build_fixture_workspace(tmp_path / "ws")
    with Workspace(root) as workspace:
        with workspace.session("flights") as backend:
            for statement in ("CREATE TEMP TABLE t (a)", "CREATE TEMP VIEW v AS SELECT 1",
                              "CREATE TEMP TRIGGER tr AFTER INSERT ON main.carriers "
                              "BEGIN SELECT 1; END", "PRAGMA case_sensitive_like = 1"):
                backend.execute(statement)
            assert backend.execute(_CLEAN.probes[0]).rows == [
                ("table", "t"), ("trigger", "tr"), ("view", "v")
            ]
            assert backend.execute("SELECT 'A' LIKE 'a'").rows == [(0,)]
            assert not backend.reusable()


def test_a_replaced_database_file_is_read_through_a_new_session(tmp_path, opened):
    root = build_fixture_workspace(tmp_path / "ws")
    path = root / "dbs" / "flights" / "flights.sqlite"
    with Workspace(root) as workspace:
        _episode(workspace, tmp_path)
        replacement = tmp_path / "replacement.sqlite"
        shutil.copyfile(path, replacement)
        with contextlib.closing(sqlite3.connect(replacement)) as conn:
            conn.execute("DELETE FROM flights WHERE rowid % 2 = 0")
            conn.commit()
        os.replace(replacement, path)
        before = len(opened)
        changed = _episode(workspace, tmp_path)
        assert len(opened) - before == 1
    assert changed == _fresh(root, tmp_path)
    assert changed[0]["answer_rows"] == [[18]]


@pytest.mark.parametrize("journal_mode", ["delete", "wal"])
def test_a_database_edited_in_place_reads_as_on_a_fresh_workspace(tmp_path, journal_mode):
    root = build_fixture_workspace(tmp_path / "ws")
    path = root / "dbs" / "flights" / "flights.sqlite"
    with contextlib.closing(sqlite3.connect(path)) as conn:
        conn.execute(f"PRAGMA journal_mode = {journal_mode}")
    with Workspace(root) as workspace:
        before = _episode(workspace, tmp_path)
        with contextlib.closing(sqlite3.connect(path)) as conn:
            conn.execute("DELETE FROM flights WHERE rowid % 2 = 0")
            conn.commit()
            edited = _episode(workspace, tmp_path)
    assert edited != before
    assert edited == _fresh(root, tmp_path)
    assert edited[0]["answer_rows"] == [[18]]


def test_a_deleted_database_file_raises_and_its_idle_session_is_closed(tmp_path, opened):
    root = build_fixture_workspace(tmp_path / "ws")
    with Workspace(root) as workspace:
        _episode(workspace, tmp_path)
        assert still_open(opened) != []
        (root / "dbs" / "flights" / "flights.sqlite").unlink()
        with pytest.raises(ConfigurationError, match="database file not found"):
            _episode(workspace, tmp_path)
        assert still_open(opened) == []


def test_threads_sharing_a_workspace_never_share_a_session(tmp_path, monkeypatch):
    root = build_fixture_workspace(tmp_path / "ws")
    databases = ("flights", "retail")
    serial = {}
    with Workspace(root) as workspace:
        for database_id in databases:
            serial[database_id] = _episode(workspace, tmp_path, database_id=database_id,
                                           question_id=f"q-{database_id}")

    held: set[backend_module.SqliteBackend] = set()
    seen: set[backend_module.SqliteBackend] = set()
    shared: list[backend_module.SqliteBackend] = []
    lock = threading.Lock()
    original = Workspace.session

    @contextlib.contextmanager
    def session(self, database_id):
        with original(self, database_id) as backend:
            with lock:
                if backend in held:
                    shared.append(backend)
                held.add(backend)
                seen.add(backend)
            try:
                yield backend
            finally:
                with lock:
                    held.discard(backend)

    monkeypatch.setattr(Workspace, "session", session)
    episodes = 24
    start = threading.Barrier(8)
    records: list[tuple[str, tuple]] = []
    errors: list[BaseException] = []

    def worker(number: int) -> None:
        try:
            start.wait()
            for count in range(episodes):
                database_id = databases[(number + count) % 2]
                record = _episode(workspace, tmp_path / str(number), database_id=database_id,
                                  question_id=f"q-{database_id}")
                with lock:
                    records.append((database_id, record))
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with Workspace(root) as workspace:
            threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert shared == []
    assert len(records) == 8 * episodes
    assert all(record == serial[database_id] for database_id, record in records)
    # Sessions were handed from episode to episode: at most one per thread
    # and database was ever opened.
    assert len(seen) <= 8 * len(databases)
