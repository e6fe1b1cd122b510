"""On-disk semantic memory: structured markdown trajectories per database.

Each stored entry renders a classified trajectory into phase-segmented
markdown, each segment headed by its first line of text (usually the lead
thought), and is persisted atomically under
``store_root/<database_id>/<question_id>/`` as one file, ``meta.json``: the
question, ``created_at`` and the classified trajectory, as one line of JSON
with compact separators. The database id is the question's own, and no
embedding is stored. No markdown is written: the reader renders the
entry's segments from its trajectory, and ``trajmem show`` prints the
whole document for people to read. The stored trajectory leaves out every
field the reader rebuilds exactly (see ``_written_trajectory``): a step's
``observation`` when the step's invocations rebuild it, as
``model.render_observation`` of their outputs, so each tool output is kept
once; the ids when they are the entry's question's; each step's ``index``,
its position; and a step or invocation field that holds its ``from_dict``
default, such as ``succeeded: true``. What older stores also wrote is
ignored: a ``full.md`` beside ``meta.json``, an ``embedding`` and a
top-level ``database_id`` in ``meta.json``, and a configuration file at
the store root. A ``meta.json`` with ``segments`` (read as they are, not
rendered) beside its trajectory, every trajectory field, an
``observation`` on every step and the default separators loads unchanged.

Every write also appends a line to the database's index,
``store_root/<database_id>/.index.jsonl``: the question, ``created_at``,
the stamp (inode, modification time, status-change time, size) of the
``meta.json`` just written, and the question's hashed-trigram counts with
the dimension they were counted in. The counts are one base64 string of
(bucket, count) pairs as big-endian unsigned 16-bit numbers, decoded in C
with no per-number JSON parse; counts that do not fit 16 bits are written
empty, which reads as damaged. The index is a derived cache; deleting it
costs one load that parses every entry in full and writes the index again.

A ``MemoryStore`` reads each database's index once, in one read, on its
first load of that database, parsing each line on its own. An entry whose
``meta.json`` still has its line's stamp is built from the line in one
step, with no file opened: the line's integer counts, decoded and checked,
are the ones retrieval scores exactly, its directory is kept as a string
until its ``path`` is read, and it keeps the stamp it was compared with.
Such an entry reads its own segments: the ``MemoryEntry`` reads (or
renders) them from ``meta.json`` the first time they are asked for, and
only from a file that still has its stamp. Every other entry, and one whose line
holds damaged counts (a line in the older list format among them), is
parsed from ``meta.json`` in full, and that first load appends a current
line for it, so the next store takes it from the index. The store keeps what it read,
per database, stamped; each later ``load_entries`` call lists the database
directory, stats every ``meta.json`` and parses only what is new or
changed. Every call returns the entries the store keeps, not copies:
a ``MemoryEntry`` is read-only. ``_read_meta`` is the one reader of
``meta.json``.

``load_trajectories``, which mining reads, parses every ``meta.json`` on
each call and keeps nothing. Each trajectory of a database repeats its
knowledge file and DDL, as observations and as invocation outputs, so the
trajectories one call returns share equal texts: one object per distinct
thought, action, observation, tool name, argument key, argument value and
output, not one per entry.

The store owns a stored question's trigram counts. ``entry_counts`` gives
the counts that persist, a heal and retrieval use: it hashes the text once
per dimension and memoizes the counts on the entry (counts past 16 bits
excepted). ``_encode_counts`` writes them into an index line and
``_decode_counts`` reads them back.
"""

from __future__ import annotations

import binascii
import json
import logging
import os
import re
import shutil
import sys
import threading
from array import array
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import partial
from pathlib import Path
from operator import lt, mul
from typing import Any, Callable, Mapping, Sequence, TypeVar

from .classifier import Segment, segment_trajectory
from .embedding import DEFAULT_DIMENSION, HashingEmbedder
from .errors import StorageError, TrajmemError
from .model import (
    ID_PATTERN,
    INVOCATION_DEFAULTS,
    STEP_DEFAULTS,
    Phase,
    Question,
    Step,
    Trajectory,
    render_observation,
)

logger = logging.getLogger(__name__)

DEFAULT_OBSERVATION_LIMIT = 2000
_HEADER_MAX_CHARS = 120

_INDEX_FILE = ".index.jsonl"
# The index is first checked for dead lines once it reaches this size.
_COMPACT_FROM = 4096
# What an unreadable, damaged or hand-edited entry raises while it is parsed;
# RecursionError is JSON nested too deeply for the parser.
_CORRUPT_ENTRY_ERRORS = (
    OSError, ValueError, LookupError, TypeError, AttributeError, RecursionError, TrajmemError
)
_T = TypeVar("_T")
# Index counts are unsigned 16-bit numbers, written big-endian whatever the
# host's byte order; "H" is the array typecode of that width.
_COUNT_TYPECODE = "H"
_SWAP_COUNT_BYTES = sys.byteorder == "little"
# (st_ino, st_mtime_ns, st_ctime_ns, st_size) of an entry's meta.json. An inode
# alone would not do: persist frees the entry it replaces, so the inode can be
# handed out again. The status-change time also moves on an in-place edit.
_Stamp = tuple[int, int, int, int]
# A question's hashed-trigram counts as retrieval scores them: the nonzero
# buckets in ascending order, their counts, and the sum of the squared counts.
EntryCounts = tuple[Sequence[int], Sequence[int], int]


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


@dataclass(frozen=True, slots=True)
class StructuredTrajectory:
    """Phase-segmented markdown rendering of a trajectory: a plain value,
    built with its segments. A stored entry whose segments are not read
    yet holds none (see ``MemoryEntry``)."""

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


class MemoryEntry:
    """One retrievable unit: a question plus its structured trajectory.

    An entry is read-only: its question, structured trajectory,
    ``created_at`` and ``path`` cannot be rebound, so a store hands out the
    entries it keeps and a caller that needs another entry builds a new one.
    ``path`` is the entry's directory, ``None`` until it is stored; given as
    a string, it becomes a ``Path`` when first read. ``counts_memo`` holds
    the question's trigram counts by (text, dimension), as ``entry_counts``
    returns them; entries of one question may share it, since each value
    depends only on its key. It is never written to disk.

    An entry reads its own segments. Built with ``structured`` of ``None``
    (not read yet), it reads them from the ``meta.json`` in ``path`` the
    first time ``structured`` is asked for, as ``_segments`` reads them, and
    keeps them. It reads only a file that still has ``stamp`` (the stamp of
    the version the entry describes) and still holds the entry's question;
    otherwise ``structured`` raises ``StorageError``. Two entries are equal
    when their questions, structured trajectories and ``created_at`` are.
    """

    __slots__ = ("_question", "_structured", "_created_at", "_path", "counts_memo", "_stamp")

    def __init__(
        self,
        question: Question,
        structured: StructuredTrajectory | None,
        created_at: str = "",
        path: str | Path | None = None,
        counts_memo: dict[tuple[str, int], EntryCounts] | None = None,
        stamp: _Stamp | None = None,
    ) -> None:
        self._question = question
        self._structured = structured
        self._created_at = created_at or _now()
        self._path = path
        self.counts_memo = {} if counts_memo is None else counts_memo
        self._stamp = stamp

    @property
    def question(self) -> Question:
        return self._question

    @property
    def structured(self) -> StructuredTrajectory:
        if self._structured is None:
            try:
                meta = _read_meta(self._path, self._stamp)
                if Question.from_dict(meta["question"]) != self._question:
                    raise ValueError("meta.json does not hold the entry's question")
                self._structured = StructuredTrajectory(_segments(meta))
            except _CORRUPT_ENTRY_ERRORS as exc:
                raise StorageError(f"cannot read memory entry at {self._path}: {exc}") from exc
        return self._structured

    @property
    def created_at(self) -> str:
        return self._created_at

    @property
    def path(self) -> Path | None:
        path = self._path
        if path.__class__ is str:
            path = self._path = Path(path)
        return path

    @property
    def database_id(self) -> str:
        return self._question.database_id

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MemoryEntry):
            return NotImplemented
        return (self.question, self.structured, self.created_at) == (
            other.question, other.structured, other.created_at
        )

    __hash__ = None  # type: ignore[assignment]  # compared by value; Question is unhashable

    def __repr__(self) -> str:
        # Segments not read yet show as None; a repr reads no file.
        return (
            f"MemoryEntry(question={self.question!r}, structured={self._structured!r}, "
            f"created_at={self.created_at!r}, path={self.path!r})"
        )


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


@dataclass
class LoadCounts:
    """What a store's loads did with the entries they met: took them from
    the index, parsed a ``meta.json`` (a winner's segments included),
    skipped them as corrupt, or wrote the index line they lacked. An entry's
    segments are rendered from the trajectory in its ``meta.json``, or read
    from the ``segments`` an older one holds; an entry with neither, or whose
    trajectory cannot be rendered (a step with no phase or an unknown one),
    is corrupt."""

    indexed: int = 0
    parsed: int = 0
    corrupt: int = 0
    healed: int = 0


class MemoryStore:
    """Per-database on-disk layout of memory entries with atomic writes."""

    def __init__(self, root: str | Path, dimension: int = DEFAULT_DIMENSION) -> None:
        self.root = Path(root)
        # Retrieval's embedding dimension. Each index line records the
        # dimension of its own counts, so any store may open at any one.
        self.dimension = dimension
        # database id -> entry directory name -> (stamp, entry, or None when
        # the entry is corrupt). A stamp of None means meta.json is missing.
        # A database gets its dict, from its index, on its first load.
        self._entries: dict[str, dict[str, tuple[_Stamp | None, MemoryEntry | None]]] = {}
        # run_suite(workers > 1) shares one store between threads.
        self._entries_lock = threading.Lock()
        self.counts = LoadCounts()

    # -- layout helpers -----------------------------------------------------

    def entry_dir(self, database_id: str, question_id: str) -> Path:
        return self.root / database_id / question_id

    def database_ids(self) -> list[str]:
        if not self.root.is_dir():
            return []
        return sorted(
            p.name for p in self.root.iterdir() if p.is_dir() and ID_PATTERN.fullmatch(p.name)
        )

    # -- persistence --------------------------------------------------------

    def persist(self, entry: MemoryEntry, trajectory: Trajectory) -> Path:
        """Atomically write an entry with the classified trajectory it was
        rendered from; a duplicate question id is overwritten. Returns the
        entry's directory; the given entry is left as it was.

        The trajectory is required (an entry with no steps stores an empty
        one), and ``entry.structured`` must be what it renders,
        ``structure_trajectory(trajectory)``: only the trajectory is
        written, and every reader renders the entry's segments from it. A
        trajectory the reader could not rebuild, with a step that holds no
        known phase or whose ``index`` is not its position, raises
        ``StorageError`` before anything is written.

        When the new version cannot be moved into place, the old one is put
        back. The entry is then indexed and, if the store has loaded its
        database, kept in this store's cache as a new entry with that
        directory and the stamp of the version written, which shares the
        given one's question, ``counts_memo`` and structured trajectory;
        segments not yet read from an older version are read from the one
        written.
        """
        _check_id("database", entry.database_id)
        _check_id("question", entry.question.id)
        for position, step in enumerate(trajectory.steps):
            index, phase = step.index, step.phase
            if type(index) is not int or index != position or not isinstance(phase, Phase):
                raise StorageError(
                    f"cannot persist {entry.question.id!r}: step {position} has index "
                    f"{index!r} and phase {phase!r}, not its position and a known phase"
                )
        final = self.entry_dir(entry.database_id, entry.question.id)
        token = f"{entry.question.id}-{os.urandom(4).hex()}"
        tmp = final.parent / f".tmp-{token}"
        try:
            stamp = self._materialize(tmp, entry, trajectory)
            try:
                tmp.replace(final)
            except OSError:
                if not final.exists():
                    raise
                # The stored version is in the way: move it aside, and put it
                # back when the new one cannot take its place. A failed
                # put-back leaves it under .old-*.
                old = final.parent / f".old-{token}"
                final.replace(old)
                try:
                    tmp.replace(final)
                except OSError:
                    old.replace(final)
                    raise
                shutil.rmtree(old, ignore_errors=True)
        except BaseException as exc:
            shutil.rmtree(tmp, ignore_errors=True)
            if isinstance(exc, OSError):
                raise StorageError(f"persist failed for {entry.question.id!r}: {exc}") from exc
            raise
        counts = _encode_counts(entry_counts(entry, self.dimension))
        self._append_index(entry.database_id, self._index_line(entry, stamp, counts))
        with self._entries_lock:
            if entry.database_id in self._entries:
                # Segments not yet read are read from the version just written.
                stored = MemoryEntry(
                    entry.question, entry._structured, entry.created_at, final,
                    entry.counts_memo, stamp,
                )
                self._entries[entry.database_id][final.name] = (stamp, stored)
        return final

    def _materialize(self, target: Path, entry: MemoryEntry, trajectory: Trajectory) -> _Stamp:
        """Write the entry's ``meta.json`` into ``target``; its stamp."""
        target.mkdir(parents=True, exist_ok=False)
        meta = {
            "question": entry.question.to_dict(),
            "created_at": entry.created_at,
            "trajectory": _written_trajectory(trajectory, entry.question),
        }
        meta_path = target / "meta.json"
        meta_path.write_text(
            json.dumps(meta, ensure_ascii=False, separators=(",", ":")) + "\n", encoding="utf-8"
        )
        return _stamp_of(os.stat(meta_path))

    # -- the index ------------------------------------------------------------

    def _index_line(self, entry: MemoryEntry, stamp: _Stamp, counts: str) -> bytes:
        """The entry's index line, with its line break."""
        return json.dumps(
            {
                "question": entry.question.to_dict(),
                "created_at": entry.created_at,
                "stamp": list(stamp),
                "dimension": self.dimension,
                "counts": counts,
            },
            ensure_ascii=False,
            separators=(",", ":"),
        ).encode("utf-8") + b"\n"

    def _append_index(self, database_id: str, lines: bytes) -> bool:
        """Add whole lines to the database's index in one write; whether they
        were written. Lines that cannot be written only cost full parses
        later."""
        index = self.root / database_id / _INDEX_FILE
        try:
            with open(index, "ab") as handle:
                handle.write(lines)
                size = handle.tell()
        except OSError as exc:
            logger.warning("could not write to memory index %s: %s", index, exc)
            return False
        # Each time the file grows past a power of two, see whether most of
        # it is dead lines; that keeps the cost per append constant. A file
        # this append wrote whole holds no dead line.
        if (
            size >= _COMPACT_FROM
            and size != len(lines)
            and (size - len(lines)).bit_length() < size.bit_length()
        ):
            self._compact_index(database_id, size)
        return True

    def _read_index(
        self, database_id: str, keep: Callable[[dict[str, Any], bytes], _T]
    ) -> dict[str, _T]:
        """Entry directory name -> ``keep(line, its bytes without the line
        break)`` for the last well-formed line of that entry in the
        database's index, read in one call; torn or garbage lines, and lines
        nested too deeply to parse, are skipped."""
        try:
            with open(self.root / database_id / _INDEX_FILE, "rb") as handle:
                data = handle.read()
        except OSError:
            return {}
        lines: dict[str, _T] = {}
        # Each line is parsed on its own, so a garbage line cannot shift or
        # swallow its neighbours.
        for raw in data.split(b"\n"):
            try:
                line = json.loads(raw)
                name = line["question"]["id"]
                lines[name] = keep(line, raw)
            except (ValueError, LookupError, TypeError, RecursionError):
                continue
        return lines

    def _compact_index(self, database_id: str, size: int) -> None:
        """Rewrite the index with only the lines that still match their entry's
        ``meta.json``, when those take at most half of its ``size`` bytes. A
        line another writer appends meanwhile is lost, which only costs a full
        parse, and the next first load writes the line again."""
        database_dir = self.root / database_id
        # Only each line's stamp is kept beside its bytes, not the parsed line.
        stamped = self._read_index(database_id, lambda line, raw: (line.get("stamp"), raw))
        live = b"".join(
            raw + b"\n"
            for name, (stamp, raw) in stamped.items()
            if stamp == list(_stamp(database_dir / name / "meta.json") or ())
        )
        if 2 * len(live) > size:
            return
        tmp = database_dir / f".tmp-index-{os.urandom(4).hex()}"
        try:
            tmp.write_bytes(live)
            tmp.replace(database_dir / _INDEX_FILE)
        except OSError as exc:
            tmp.unlink(missing_ok=True)
            logger.warning("could not compact memory index of %s: %s", database_dir, exc)

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

        The first call reads the database's index: an entry whose
        ``meta.json`` still has the stamp of its index line, and whose line
        holds usable counts, is built from the line alone, and its segments
        are read only when asked for. Every other entry is parsed from its
        ``meta.json``, and the index gets a current line for it, so the next
        store takes it from the index. Later calls parse only entries whose
        ``meta.json`` is new or changed since the store last saw it. Each call
        returns the read-only entries the store keeps, the same objects on
        every call until an entry changes on disk. A corrupt entry is logged
        once and parsed again only when its ``meta.json`` changes. Entries
        that vanished are dropped. An id that ``ID_PATTERN`` does not match
        raises ``StorageError``.
        """
        _check_id("database", database_id)
        with self._entries_lock:
            known = self._entries.get(database_id)
            first = known is None
            indexed = self._read_index(database_id, lambda line, raw: line) if first else {}
            current: dict[str, tuple[_Stamp | None, MemoryEntry | None]] = {}
            heal: list[bytes] = []
            for entry_dir in self._entry_dirs(database_id):
                name = entry_dir.name
                # Stat before reading, so a stamp is never newer than the
                # content kept with it.
                stamp = _stamp(entry_dir.path + "/meta.json")
                cached = None if first else known.get(name)
                if cached is None or cached[0] != stamp:
                    entry = self._from_index(entry_dir.path, stamp, indexed.get(name))
                    if entry is None:
                        entry = self._parse(entry_dir.path, _parse_entry)
                        if first and entry is not None and stamp is not None:
                            heal += self._heal_line(database_id, name, entry, stamp)
                    cached = (stamp, entry)
                current[name] = cached
            self._entries[database_id] = current
            if heal and self._append_index(database_id, b"".join(heal)):
                self.counts.healed += len(heal)
            return [entry for _, entry in current.values() if entry is not None]

    def _from_index(
        self, entry_dir: str, stamp: _Stamp | None, line: dict[str, Any] | None
    ) -> MemoryEntry | None:
        """The entry an index line describes, built from the line alone when
        the entry's ``meta.json`` still has the line's stamp: its question,
        ``created_at``, decoded and checked counts as its ``counts_memo``, and
        ``stamp``, the tuple the cache keeps beside it. Its segments are read
        when first asked for. None when the stamp differs or the line is
        damaged."""
        if line is None or stamp is None or line.get("stamp") != list(stamp):
            return None
        try:
            question = Question.from_dict(line["question"])
            dimension = line["dimension"]
            counts = _decode_counts(line["counts"], dimension)
        except _CORRUPT_ENTRY_ERRORS:
            return None
        self.counts.indexed += 1
        return MemoryEntry(
            question, None, line.get("created_at", ""), entry_dir,
            {(question.text, dimension): counts}, stamp,
        )

    def _heal_line(
        self, database_id: str, name: str, entry: MemoryEntry, stamp: _Stamp
    ) -> list[bytes]:
        """The index line that an entry parsed in full on a first load lacks,
        as a list of one. No line for an entry stored under another name
        than its own, or whose counts 16 bits cannot hold: such a line would
        never be taken, and each first load would add one."""
        if (entry.question.id, entry.database_id) != (name, database_id):
            return []
        counts = _encode_counts(entry_counts(entry, self.dimension))
        return [self._index_line(entry, stamp, counts)] if counts else []

    def read_segments(self, entry: MemoryEntry) -> bool:
        """Make sure an entry's segments are in memory: an entry not read yet
        reads them from its ``meta.json`` (see ``MemoryEntry``).

        False when the file changed since the entry's stamp, does not parse, or
        holds no segments and a trajectory that cannot render them. The
        entry is then dropped from the cache, so the next
        ``load_entries`` parses it in full; a newer version that ``persist``
        cached in its place stays.
        """
        # Under the lock, so threads sharing the store read each file once.
        with self._entries_lock:
            if entry._structured is not None:
                return True
            self.counts.parsed += 1
            try:
                entry.structured
                return True
            except StorageError as exc:
                logger.warning("%s", exc)
            cached = self._entries.get(entry.database_id, {})
            if cached.get(entry.path.name, (None, None))[1] is entry:
                del cached[entry.path.name]
            return False

    def load_trajectories(self, database_id: str) -> list[Trajectory]:
        """Raw classified trajectories stored alongside entries (for mining),
        read afresh on every call, in question-id order; corrupt ones skipped.
        An id that ``ID_PATTERN`` does not match raises ``StorageError``.

        Equal texts, argument keys and values among them, are one object
        across the returned trajectories: each trajectory of a database
        repeats its knowledge file and DDL, so without sharing the corpus
        would hold them once per entry. Steps, invocations and each
        invocation's ``args`` dict are still the caller's own; changing one
        changes no other trajectory."""
        _check_id("database", database_id)
        texts: dict[str, str] = {}
        parsed = (
            self._parse(entry_dir.path, partial(_stored_trajectory, texts=texts))
            for entry_dir in self._entry_dirs(database_id)
        )
        return [trajectory for trajectory in parsed if trajectory is not None]

    def load_phase_segment(self, entry: MemoryEntry, phase: Phase | None = None) -> str:
        """One phase's markdown (or the full document for None); reads no
        file unless the entry's segments were never read."""
        if phase is None:
            return entry.structured.full_document
        return entry.structured.phase_document(phase)

    def _parse(
        self, entry_dir: str | Path, parse: Callable[[Any, dict[str, Any]], _T | None]
    ) -> _T | None:
        """``parse`` applied to the entry's ``meta.json``.

        An entry whose ``meta.json`` is unreadable, is not a JSON object, or
        fails ``parse`` gives None and a warning; ``parse`` returning None
        skips an entry silently.
        """
        self.counts.parsed += 1
        try:
            return parse(entry_dir, _read_meta(entry_dir))
        except _CORRUPT_ENTRY_ERRORS as exc:
            self.counts.corrupt += 1
            logger.warning("skipping corrupt memory entry at %s: %s", entry_dir, exc)
            return None


def existing_store(root: str | Path) -> MemoryStore:
    """A store to read entries from: ``root`` must be a directory. A path
    that is none holds no entry, so reading it would run as with memory
    off; it raises ``StorageError`` naming the path instead."""
    store = MemoryStore(root)
    if not store.root.is_dir():
        raise StorageError(f"memory store {str(root)!r} is not a directory")
    return store


def _check_id(label: str, value: str) -> None:
    """Raise ``StorageError`` unless ``value`` is safe as one path component."""
    if not ID_PATTERN.fullmatch(value):
        raise StorageError(f"unsafe {label} id for storage: {value!r}")


def entry_counts(entry: MemoryEntry, dimension: int) -> EntryCounts:
    """The entry's question counted into ``dimension`` trigram buckets, as
    retrieval scores them and an index line holds them: the buckets in
    ascending order and their counts, each as an array of unsigned 16-bit
    numbers, and the sum of the squared counts.

    The text is hashed only when ``entry.counts_memo`` has no counts for it
    at this dimension, and the result is memoized there. Counts past 65535
    come back as lists and are not memoized, so the memo holds only counts
    in the form an index line gives them.
    """
    key = (entry.question.text, dimension)
    counts = entry.counts_memo.get(key)
    if counts is not None:
        return counts
    hashed = HashingEmbedder(dimension).trigram_counts(key[0])
    buckets = sorted(hashed)
    values = list(map(hashed.__getitem__, buckets))
    norm = sum(map(mul, values, values))
    try:
        counts = array(_COUNT_TYPECODE, buckets), array(_COUNT_TYPECODE, values), norm
    except OverflowError:
        return buckets, values, norm
    entry.counts_memo[key] = counts
    return counts


def _encode_counts(counts: EntryCounts) -> str:
    """An index line's ``counts``: the (bucket, count) pairs in order, as
    big-endian unsigned 16-bit numbers, in base64. Counts that 16 bits
    cannot hold are written as the empty string, which reads as damaged."""
    numbers = counts[0] + counts[1]
    numbers[0::2], numbers[1::2] = counts[0], counts[1]
    try:
        numbers = array(_COUNT_TYPECODE, numbers)
    except OverflowError:
        return ""
    if _SWAP_COUNT_BYTES:
        numbers.byteswap()
    return binascii.b2a_base64(numbers, newline=False).decode("ascii")


def _decode_counts(text: Any, dimension: Any) -> EntryCounts:
    """The counts an index line holds, as retrieval scores them: buckets,
    counts and the sum of the squared counts.

    Raises ValueError or TypeError when they are damaged: not a base64
    string of whole (bucket, count) pairs, empty, with buckets not strictly
    ascending below an integer ``dimension``, or with a count of 0.
    """
    numbers = array(_COUNT_TYPECODE, binascii.a2b_base64(text))
    if _SWAP_COUNT_BYTES:
        numbers.byteswap()
    buckets, counts = numbers[0::2], numbers[1::2]
    if not (
        # A float dimension would key the memo as its equal int does.
        type(dimension) is int
        and 0 < len(buckets) == len(counts)
        and buckets[-1] < dimension
        and all(map(lt, buckets, buckets[1:]))
        and all(counts)
    ):
        raise ValueError("index line holds damaged trigram counts")
    return buckets, counts, sum(map(mul, counts, counts))


def _stamp_of(stat: os.stat_result) -> _Stamp:
    return (stat.st_ino, stat.st_mtime_ns, stat.st_ctime_ns, stat.st_size)


def _stamp(meta_path: str | Path) -> _Stamp | None:
    try:
        return _stamp_of(os.stat(meta_path))
    except OSError:
        return None


def _read_meta(entry_dir: str | Path, stamp: _Stamp | None = None) -> dict[str, Any]:
    """The JSON object in the entry's ``meta.json``; given a ``stamp``, only
    from a file that still has it. Raises one of ``_CORRUPT_ENTRY_ERRORS``
    when the file cannot be read, has changed, or holds no JSON object."""
    with open(os.path.join(entry_dir, "meta.json"), encoding="utf-8") as handle:
        if stamp is not None and _stamp_of(os.fstat(handle.fileno())) != stamp:
            raise ValueError("meta.json changed since it was indexed")
        meta = json.load(handle)
    if not isinstance(meta, dict):
        raise ValueError("meta.json does not hold a JSON object")
    return meta


def _parse_entry(entry_dir: str, meta: dict[str, Any]) -> MemoryEntry:
    """The entry that a ``meta.json`` describes, in the directory
    ``entry_dir``, with its segments as ``_segments`` reads them."""
    return MemoryEntry(
        Question.from_dict(meta["question"]),
        StructuredTrajectory(_segments(meta)),
        meta.get("created_at", ""),
        entry_dir,
    )


def _segments(meta: dict[str, Any]) -> list[StructuredSegment]:
    """The entry's segments: those ``meta.json`` holds, or else those its
    stored trajectory renders. Raises one of ``_CORRUPT_ENTRY_ERRORS`` when
    it holds neither, or the trajectory cannot be rendered."""
    if "segments" in meta:
        return [
            StructuredSegment(
                phase=Phase.parse(seg["phase"]), header=seg["header"], body=seg["body"]
            )
            for seg in meta["segments"]
        ]
    trajectory = _stored_trajectory(None, meta, {})
    if trajectory is None:
        raise ValueError("meta.json holds neither segments nor a trajectory")
    return structure_trajectory(trajectory).segments


def _rendered(step: Step) -> str:
    """The observation that a step's invocations rebuild."""
    return render_observation(
        (invocation.tool_name, invocation.output) for invocation in step.invocations
    )


# The fields left out of a stored step when they hold their ``from_dict``
# default; a step's observation has its own rule (``_rendered``).
_STEP_DEFAULTS = {k: v for k, v in STEP_DEFAULTS.items() if k != "observation"}


def _leave_out(data: dict[str, Any], filled: Mapping[str, Any]) -> None:
    """Delete each field of ``data`` that holds exactly the value its reader
    fills in: an equal value of the same type."""
    for key, value in filled.items():
        if type(data[key]) is type(value) and data[key] == value:
            del data[key]


def _written_trajectory(trajectory: Trajectory, question: Question) -> dict[str, Any]:
    """The trajectory as ``meta.json`` stores it: ``to_dict`` less every field
    that ``_stored_trajectory`` rebuilds exactly. Left out are the ids when
    they are the question's, each step's ``index`` (``persist`` has checked
    that it is the step's position), its ``observation`` when its
    invocations rebuild it, and any other step or invocation field that
    holds its ``from_dict`` default."""
    raw = trajectory.to_dict()
    _leave_out(raw, {"question_id": question.id, "database_id": question.database_id})
    for step, data in zip(trajectory.steps, raw["steps"]):
        del data["index"]
        if step.observation == _rendered(step):
            del data["observation"]
        for invocation in data["invocations"]:
            _leave_out(invocation, INVOCATION_DEFAULTS)
        _leave_out(data, _STEP_DEFAULTS)
    return raw


def _stored_trajectory(
    entry_dir: str | Path | None, meta: dict[str, Any], texts: dict[str, str]
) -> Trajectory | None:
    """The entry's stored trajectory, its step and invocation texts and its
    argument keys and values rebound to the equal ones already in ``texts``
    (those that are new are added); each invocation gets an ``args`` dict
    of its own.

    What the writer left out is filled in: the ids from the entry's
    question, a step's index from its position, a step's observation from
    its invocations, as ``model.render_observation`` of their outputs, and
    every other field by ``from_dict``'s default. A stored index that is not
    its step's position makes the trajectory corrupt."""
    raw = meta.get("trajectory")
    if raw is None:
        return None
    question = meta.get("question", {})
    steps = [{"index": position, **data} for position, data in enumerate(raw.get("steps", ()))]
    trajectory = Trajectory.from_dict({
        "question_id": question.get("id"),
        "database_id": question.get("database_id"),
        **raw,
        "steps": steps,
    })
    share = texts.setdefault
    for step, data in zip(trajectory.steps, raw.get("steps", ())):
        if "observation" not in data:
            step.observation = _rendered(step)
        step.thought = share(step.thought, step.thought)
        step.action_code = share(step.action_code, step.action_code)
        step.observation = share(step.observation, step.observation)
        for invocation in step.invocations:
            invocation.tool_name = share(invocation.tool_name, invocation.tool_name)
            invocation.output = share(invocation.output, invocation.output)
            invocation.args = {share(k, k): share(v, v) for k, v in invocation.args.items()}
    return trajectory
