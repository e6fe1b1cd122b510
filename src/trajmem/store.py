"""On-disk semantic memory: structured markdown trajectories per database.

Each stored entry renders a classified trajectory into phase-segmented
markdown, each segment headed by its first line of text (usually the lead
thought), and is persisted atomically under
``store_root/<database_id>/<question_id>/`` as two files: ``meta.json``,
which holds everything the code reads back, and ``full.md``, the whole
markdown document for people to read.
"""

from __future__ import annotations

import json
import logging
import re
import shutil
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
    embedding: list[float]
    created_at: str = ""
    path: Path | None = field(default=None, compare=False)

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
        if len(entry.embedding) != self.dimension:
            raise ConfigurationError(
                f"embedding dimension {len(entry.embedding)} does not match "
                f"store dimension {self.dimension}"
            )
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
            "embedding": list(entry.embedding),
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

    def _read_entries(
        self, database_id: str, parse: Callable[[Path, dict[str, Any]], _T | None]
    ) -> list[_T]:
        """Parse every entry's ``meta.json`` in question-id order.

        An entry whose ``meta.json`` is unreadable, is not a JSON object, or
        fails ``parse`` is skipped with a warning; ``parse`` returning None
        skips it silently.
        """
        db_dir = self.root / database_id
        if not db_dir.is_dir():
            return []
        parsed: list[_T] = []
        for entry_path in sorted(db_dir.iterdir(), key=lambda p: p.name):
            if not entry_path.is_dir() or entry_path.name.startswith("."):
                continue
            try:
                meta = json.loads((entry_path / "meta.json").read_text(encoding="utf-8"))
                if not isinstance(meta, dict):
                    raise ValueError("meta.json does not hold a JSON object")
                item = parse(entry_path, meta)
            except _CORRUPT_ENTRY_ERRORS as exc:
                logger.warning("skipping corrupt memory entry at %s: %s", entry_path, exc)
                continue
            if item is not None:
                parsed.append(item)
        return parsed

    def load_entries(self, database_id: str) -> list[MemoryEntry]:
        """All entries for a database in question-id order; corrupt ones skipped."""
        return self._read_entries(database_id, self._parse_entry)

    def _parse_entry(self, entry_path: Path, meta: dict[str, Any]) -> MemoryEntry | None:
        question = Question.from_dict(meta["question"])
        embedding = [float(v) for v in meta["embedding"]]
        segments = [
            StructuredSegment(
                phase=Phase.parse(seg["phase"]), header=seg["header"], body=seg["body"]
            )
            for seg in meta["segments"]
        ]
        if len(embedding) != self.dimension:
            logger.warning(
                "skipping entry at %s: embedding dimension %d does not match store %d",
                entry_path,
                len(embedding),
                self.dimension,
            )
            return None
        return MemoryEntry(
            question=question,
            database_id=meta["database_id"],
            structured=StructuredTrajectory(segments=segments),
            embedding=embedding,
            created_at=meta.get("created_at", ""),
            path=entry_path,
        )

    def load_trajectories(self, database_id: str) -> list[Trajectory]:
        """Raw classified trajectories stored alongside entries (for mining)."""
        return self._read_entries(database_id, _stored_trajectory)

    def load_phase_segment(self, entry: MemoryEntry, phase: Phase | None = None) -> str:
        """One phase's markdown (or the full document for None); reads no file."""
        if phase is None:
            return entry.structured.full_document
        return entry.structured.phase_document(phase)


def _stored_trajectory(entry_path: Path, meta: dict[str, Any]) -> Trajectory | None:
    raw = meta.get("trajectory")
    return None if raw is None else Trajectory.from_dict(raw)
