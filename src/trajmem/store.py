"""On-disk semantic memory: structured markdown trajectories per database.

Each stored entry renders a classified trajectory into phase-segmented
markdown, each segment headed by its first line of text (usually the lead
thought), and is persisted atomically under
``store_root/<database_id>/<question_id>/`` as two files: ``meta.json``,
which holds everything the code reads back, and ``full.md``, the whole
markdown document for people to read. No embedding is stored: retrieval
computes it from the question text, and an ``embedding`` key that older
stores wrote is ignored.

A ``MemoryStore`` parses each entry once. It keeps the entries it has read,
per database, stamped with the inode, modification time, status-change time
and size of their ``meta.json``; each ``load_entries`` call lists the
database directory, stats every ``meta.json`` and parses only what is new or
changed.
"""

from __future__ import annotations

import copy
import json
import logging
import os
import re
import shutil
import threading
import uuid
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable, TypeVar

from .classifier import Segment, segment_trajectory
from .errors import ConfigurationError, StateError, StorageError, TrajmemError
from .model import ID_PATTERN, Phase, Question, Step, Trajectory

logger = logging.getLogger(__name__)

DEFAULT_OBSERVATION_LIMIT = 2000
_HEADER_MAX_CHARS = 120

_FULL_FILE = "full.md"
# What an unreadable, damaged or hand-edited entry raises while it is parsed.
_CORRUPT_ENTRY_ERRORS = (
    OSError, ValueError, LookupError, TypeError, AttributeError, TrajmemError
)
_T = TypeVar("_T")
# (st_ino, st_mtime_ns, st_ctime_ns, st_size) of an entry's meta.json. An inode
# alone would not do: persist frees the entry it replaces, so the inode can be
# handed out again. The status-change time also moves on an in-place edit.
_Stamp = tuple[int, int, int, int]


def truncate_observation(text: str, limit: int = DEFAULT_OBSERVATION_LIMIT) -> str:
    """Cap an observation at ``limit`` characters, noting how much was cut."""
    if limit <= 0:
        raise ValueError("truncation limit must be positive")
    if len(text) <= limit:
        return text
    omitted = len(text) - limit
    return text[:limit] + f"\n[truncated {omitted} characters]"


def summarize(body: str) -> str:
    """Header text for a segment body: its first line of text outside step
    labels and fence lines (usually the lead thought), capped in length.
    Empty when there is no such line.
    """
    for line in body.splitlines():
        text = line.strip()
        if not text or text.startswith("```") or text.startswith("[truncated"):
            continue
        text = re.sub(r"\*\*Step \d+\.\*\*\s*", "", text).strip()
        if text:
            return _clean_header(text)
    return ""


def _clean_header(text: str) -> str:
    line = " ".join(text.strip().splitlines()[0].split()) if text.strip() else ""
    if len(line) > _HEADER_MAX_CHARS:
        line = line[: _HEADER_MAX_CHARS - 3].rstrip() + "..."
    return line


@dataclass(frozen=True)
class StructuredSegment:
    phase: Phase
    header: str
    body: str


@dataclass
class StructuredTrajectory:
    """Phase-segmented markdown rendering of a trajectory."""

    segments: list[StructuredSegment]

    @property
    def full_document(self) -> str:
        return "".join(segment_text(seg) for seg in self.segments)

    def phase_document(self, phase: Phase) -> str:
        return "".join(
            segment_text(seg) for seg in self.segments if seg.phase == phase
        )


def segment_text(segment: StructuredSegment) -> str:
    return f"## [{segment.phase.value}] {segment.header}\n\n{segment.body}\n\n"


def _render_step(step: Step) -> str:
    parts = [f"**Step {step.index}.** {step.thought}".rstrip()]
    if step.action_code.strip():
        parts.append(f"```\n{step.action_code.strip()}\n```")
    if step.observation:
        parts.append(truncate_observation(step.observation))
    return "\n\n".join(parts)


def fallback_header(phase: Phase, segment: Segment) -> str:
    return f"Phase {phase.value}, steps {segment.start}-{segment.end}"


def structure_trajectory(trajectory: Trajectory) -> StructuredTrajectory:
    """Render a classified trajectory into headed markdown segments.

    Every segment body lists its steps as thought, fenced action code, and
    truncated observation. A segment without header text gets the
    deterministic "Phase <name>, steps i-j" header.
    """
    segments: list[StructuredSegment] = []
    for raw in segment_trajectory(trajectory):
        steps = trajectory.steps[raw.start : raw.end + 1]
        body = "\n\n".join(_render_step(step) for step in steps)
        header = summarize(body) or fallback_header(raw.phase, raw)
        segments.append(StructuredSegment(phase=raw.phase, header=header, body=body))
    return StructuredTrajectory(segments=segments)


@dataclass
class MemoryEntry:
    """One retrievable unit: a question plus its structured trajectory."""

    question: Question
    database_id: str
    structured: StructuredTrajectory
    created_at: str = ""
    path: Path | None = field(default=None, compare=False)
    # Retrieval's vectors of the question text by (text, dimension). Shallow
    # copies share it, which is safe because each value depends only on its
    # key. It is never written to disk.
    vector_memo: dict[tuple[str, int], dict[int, float]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.database_id != self.question.database_id:
            raise StateError(
                f"entry database {self.database_id!r} does not match question "
                f"database {self.question.database_id!r}"
            )
        if not self.created_at:
            self.created_at = datetime.now(timezone.utc).isoformat()


class MemoryStore:
    """Per-database on-disk layout of memory entries with atomic writes."""

    def __init__(self, root: str | Path, dimension: int | None = None) -> None:
        self.root = Path(root)
        configured = self._read_store_config()
        if dimension is None:
            self.dimension = configured if configured is not None else 256
        elif configured is not None and configured != dimension:
            raise ConfigurationError(
                f"store at {self.root} uses embedding dimension {configured}, "
                f"not {dimension}"
            )
        else:
            self.dimension = dimension
        # database id -> entry directory name -> (stamp, entry, or None when
        # the entry is corrupt). A stamp of None means meta.json is missing.
        self._entries: dict[str, dict[str, tuple[_Stamp | None, MemoryEntry | None]]] = {}
        # run_suite(workers > 1) shares one store between threads.
        self._entries_lock = threading.Lock()

    # -- layout helpers -----------------------------------------------------

    def entry_dir(self, database_id: str, question_id: str) -> Path:
        return self.root / database_id / question_id

    def database_ids(self) -> list[str]:
        if not self.root.is_dir():
            return []
        return sorted(
            p.name for p in self.root.iterdir() if p.is_dir() and not p.name.startswith(".")
        )

    def _read_store_config(self) -> int | None:
        config_path = self.root / "store.json"
        if not config_path.is_file():
            return None
        try:
            return int(json.loads(config_path.read_text(encoding="utf-8"))["embedding_dimension"])
        except (OSError, ValueError, KeyError, json.JSONDecodeError):
            logger.warning("ignoring unreadable store config at %s", config_path)
            return None

    def _write_store_config(self) -> None:
        config_path = self.root / "store.json"
        if config_path.exists():
            return
        tmp = self.root / f".tmp-store-{uuid.uuid4().hex[:8]}.json"
        tmp.write_text(
            json.dumps({"embedding_dimension": self.dimension}, indent=2) + "\n",
            encoding="utf-8",
        )
        tmp.replace(config_path)

    # -- persistence --------------------------------------------------------

    def persist(self, entry: MemoryEntry, trajectory: Trajectory | None = None) -> Path:
        """Atomically write an entry; a duplicate question id is overwritten."""
        for label, value in (("database", entry.database_id), ("question", entry.question.id)):
            if not ID_PATTERN.fullmatch(value):
                raise StorageError(f"unsafe {label} id for storage: {value!r}")
        final = self.entry_dir(entry.database_id, entry.question.id)
        tmp = final.parent / f".tmp-{entry.question.id}-{uuid.uuid4().hex[:8]}"
        old = final.parent / f".old-{entry.question.id}-{uuid.uuid4().hex[:8]}"
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            self._write_store_config()
            self._materialize(tmp, entry, trajectory)
            if final.exists():
                final.replace(old)
            tmp.replace(final)
        except OSError as exc:
            raise StorageError(f"persist failed for {entry.question.id!r}: {exc}") from exc
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
            shutil.rmtree(old, ignore_errors=True)
        entry.path = final
        return final

    def _materialize(
        self, target: Path, entry: MemoryEntry, trajectory: Trajectory | None
    ) -> None:
        target.mkdir(parents=True, exist_ok=False)
        meta: dict[str, Any] = {
            "question": entry.question.to_dict(),
            "database_id": entry.database_id,
            "created_at": entry.created_at,
            "segments": [
                {"phase": seg.phase.value, "header": seg.header, "body": seg.body}
                for seg in entry.structured.segments
            ],
        }
        if trajectory is not None:
            meta["trajectory"] = trajectory.to_dict()
        (target / "meta.json").write_text(
            json.dumps(meta, indent=2, ensure_ascii=False) + "\n", encoding="utf-8"
        )
        (target / _FULL_FILE).write_text(entry.structured.full_document, encoding="utf-8")

    # -- loading ------------------------------------------------------------

    def _entry_dirs(self, database_id: str) -> list[os.DirEntry]:
        """The database's entry directories, sorted by name; hidden ones skipped."""
        try:
            with os.scandir(self.root / database_id) as listing:
                found = [d for d in listing if not d.name.startswith(".") and d.is_dir()]
        except (FileNotFoundError, NotADirectoryError):
            return []
        return sorted(found, key=lambda d: d.name)

    def load_entries(self, database_id: str) -> list[MemoryEntry]:
        """All entries for a database in question-id order; corrupt ones skipped.

        Only entries whose ``meta.json`` is new or changed since the last
        call are parsed. Each call returns shallow copies of the parsed
        entries, so a caller that rebinds an entry's fields leaves the store's
        copy as it was. A corrupt entry is logged once and parsed again only
        when its ``meta.json`` changes. Entries that vanished are dropped.
        """
        with self._entries_lock:
            known = self._entries.get(database_id, {})
            current: dict[str, tuple[_Stamp | None, MemoryEntry | None]] = {}
            for entry_dir in self._entry_dirs(database_id):
                # Stat before reading, so a stamp is never newer than the
                # content kept with it.
                stamp = _stamp(os.path.join(entry_dir.path, "meta.json"))
                cached = known.get(entry_dir.name)
                if cached is None or cached[0] != stamp:
                    cached = (stamp, _parse(entry_dir.path, _parse_entry))
                current[entry_dir.name] = cached
            self._entries[database_id] = current
        return [copy.copy(entry) for _, entry in current.values() if entry is not None]

    def load_trajectories(self, database_id: str) -> list[Trajectory]:
        """Raw classified trajectories stored alongside entries (for mining),
        read afresh on every call, in question-id order; corrupt ones skipped."""
        parsed = (
            _parse(entry_dir.path, _stored_trajectory)
            for entry_dir in self._entry_dirs(database_id)
        )
        return [trajectory for trajectory in parsed if trajectory is not None]

    def load_phase_segment(self, entry: MemoryEntry, phase: Phase | None = None) -> str:
        """One phase's markdown (or the full document for None); reads no file."""
        if phase is None:
            return entry.structured.full_document
        return entry.structured.phase_document(phase)


def _parse(entry_dir: str, parse: Callable[[str, dict[str, Any]], _T | None]) -> _T | None:
    """``parse`` applied to the entry's ``meta.json``.

    An entry whose ``meta.json`` is unreadable, is not a JSON object, or
    fails ``parse`` gives None and a warning; ``parse`` returning None skips
    an entry silently.
    """
    try:
        with open(os.path.join(entry_dir, "meta.json"), encoding="utf-8") as handle:
            meta = json.load(handle)
        if not isinstance(meta, dict):
            raise ValueError("meta.json does not hold a JSON object")
        return parse(entry_dir, meta)
    except _CORRUPT_ENTRY_ERRORS as exc:
        logger.warning("skipping corrupt memory entry at %s: %s", entry_dir, exc)
        return None


def _stamp(meta_path: str) -> _Stamp | None:
    try:
        stat = os.stat(meta_path)
    except OSError:
        return None
    return (stat.st_ino, stat.st_mtime_ns, stat.st_ctime_ns, stat.st_size)


def _parse_entry(entry_dir: str, meta: dict[str, Any]) -> MemoryEntry:
    segments = [
        StructuredSegment(phase=Phase.parse(seg["phase"]), header=seg["header"], body=seg["body"])
        for seg in meta["segments"]
    ]
    return MemoryEntry(
        question=Question.from_dict(meta["question"]),
        database_id=meta["database_id"],
        structured=StructuredTrajectory(segments=segments),
        created_at=meta.get("created_at", ""),
        path=Path(entry_dir),
    )


def _stored_trajectory(entry_dir: str, meta: dict[str, Any]) -> Trajectory | None:
    raw = meta.get("trajectory")
    return None if raw is None else Trajectory.from_dict(raw)
