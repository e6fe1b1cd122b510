"""On-disk semantic memory: structured markdown trajectories per database.

Each stored entry renders a classified trajectory into phase-segmented
markdown, each segment headed by its first line of text (usually the lead
thought), and is persisted atomically under
``store_root/<database_id>/<question_id>/`` as two files: ``meta.json``,
which holds everything the code reads back, and ``full.md``, the whole
markdown document for people to read. The database id is the question's
own, and no embedding is stored. What older stores also wrote is ignored:
an ``embedding`` and a top-level ``database_id`` in ``meta.json``, and a
configuration file at the store root.

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
until its ``path`` is read, and its segments are read from ``meta.json``
only when first needed. Every other entry, and one whose line holds damaged
counts (a line in the older list format among them), is parsed from
``meta.json`` in full, and that first load appends a current line for it,
so the next store takes it from the index. The store keeps what it read,
per database, stamped; each later ``load_entries`` call lists the database
directory, stats every ``meta.json`` and parses only what is new or
changed. ``_read_meta`` is the one reader of ``meta.json``.

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
import uuid
from array import array
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from operator import lt, mul
from typing import Any, Callable, Sequence, TypeVar

from .classifier import Segment, segment_trajectory
from .embedding import DEFAULT_DIMENSION, HashingEmbedder
from .errors import StorageError, TrajmemError
from .model import ID_PATTERN, Phase, Question, Step, Trajectory

logger = logging.getLogger(__name__)

DEFAULT_OBSERVATION_LIMIT = 2000
_HEADER_MAX_CHARS = 120

_FULL_FILE = "full.md"
_INDEX_FILE = ".index.jsonl"
# The index is first checked for dead lines once it reaches this size.
_COMPACT_FROM = 4096
# What an unreadable, damaged or hand-edited entry raises while it is parsed.
_CORRUPT_ENTRY_ERRORS = (
    OSError, ValueError, LookupError, TypeError, AttributeError, TrajmemError
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


class StructuredTrajectory:
    """Phase-segmented markdown rendering of a trajectory."""

    __slots__ = ("_segments",)

    def __init__(self, segments: list[StructuredSegment]) -> None:
        self._segments = segments

    @property
    def segments(self) -> list[StructuredSegment]:
        return self._segments

    @property
    def loaded(self) -> bool:
        return self._segments is not None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StructuredTrajectory):
            return NotImplemented
        return self.segments == other.segments

    def __repr__(self) -> str:
        shown = self._segments if self.loaded else "<unread>"
        return f"StructuredTrajectory(segments={shown!r})"

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

    ``path`` is the entry's directory, ``None`` until it is stored; given as
    a string, it becomes a ``Path`` when first read, once for the entry and
    all its copies. ``counts_memo`` holds the question's trigram counts by
    (text, dimension), as ``entry_counts`` returns them. Copies share it,
    which is safe because each value depends only on its key. It is never
    written to disk. Two entries are equal when their questions, structured
    trajectories and ``created_at`` are.
    """

    __slots__ = ("question", "structured", "created_at", "_path", "counts_memo")

    def __init__(
        self,
        question: Question,
        structured: StructuredTrajectory,
        created_at: str = "",
        path: str | Path | None = None,
    ) -> None:
        self.question = question
        self.structured = structured
        self.created_at = created_at or _now()
        self._path = path
        self.counts_memo: dict[tuple[str, int], EntryCounts] = {}

    @property
    def path(self) -> Path | None:
        path = self._path
        if path.__class__ is str:
            path = self._path = Path(path)
        elif isinstance(path, MemoryEntry):
            path = self._path = path.path
        return path

    @path.setter
    def path(self, value: str | Path | None) -> None:
        self._path = value

    @property
    def database_id(self) -> str:
        return self.question.database_id

    def __copy__(self) -> MemoryEntry:
        """A shallow copy: it shares ``counts_memo`` and ``structured``."""
        clone = _new(self.__class__)
        clone.question = self.question
        clone.structured = self.structured
        clone.created_at = self.created_at
        # A copy of an entry whose directory is still a string reads its path
        # through that entry, which builds the Path once for all its copies.
        clone._path = self if self._path.__class__ is str else self._path
        clone.counts_memo = self.counts_memo
        return clone

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MemoryEntry):
            return NotImplemented
        return (self.question, self.structured, self.created_at) == (
            other.question, other.structured, other.created_at
        )

    __hash__ = None  # type: ignore[assignment]  # mutable, compared by value

    def __repr__(self) -> str:
        return (
            f"MemoryEntry(question={self.question!r}, structured={self.structured!r}, "
            f"created_at={self.created_at!r}, path={self.path!r})"
        )


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


_new = object.__new__


@dataclass
class LoadCounts:
    """What a store's loads did with the entries they met: took them from
    the index, parsed a ``meta.json`` (a winner's segments included),
    skipped them as corrupt, or wrote the index line they lacked."""

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
            p.name for p in self.root.iterdir() if p.is_dir() and not p.name.startswith(".")
        )

    # -- persistence --------------------------------------------------------

    def persist(self, entry: MemoryEntry, trajectory: Trajectory | None = None) -> Path:
        """Atomically write an entry; a duplicate question id is overwritten.

        When the new version cannot be moved into place, the old one is put
        back. The entry is then indexed, and kept in this store's cache if
        the store has loaded its database.
        """
        for label, value in (("database", entry.database_id), ("question", entry.question.id)):
            if not ID_PATTERN.fullmatch(value):
                raise StorageError(f"unsafe {label} id for storage: {value!r}")
        final = self.entry_dir(entry.database_id, entry.question.id)
        tmp = final.parent / f".tmp-{entry.question.id}-{uuid.uuid4().hex[:8]}"
        old = final.parent / f".old-{entry.question.id}-{uuid.uuid4().hex[:8]}"
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            stamp = self._materialize(tmp, entry, trajectory)
            if final.exists():
                final.replace(old)
            try:
                tmp.replace(final)
            except OSError:
                if old.exists():
                    old.replace(final)
                raise
        except OSError as exc:
            raise StorageError(f"persist failed for {entry.question.id!r}: {exc}") from exc
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
            if final.exists():  # a failed put-back leaves the old version under .old-*
                shutil.rmtree(old, ignore_errors=True)
        entry.path = final
        counts = _encode_counts(entry_counts(entry, self.dimension))
        self._append_index(entry.database_id, self._index_line(entry, stamp, counts))
        with self._entries_lock:
            if entry.database_id in self._entries:
                self._entries[entry.database_id][final.name] = (stamp, entry.__copy__())
        return final

    def _materialize(
        self, target: Path, entry: MemoryEntry, trajectory: Trajectory | None
    ) -> _Stamp:
        """Write the entry's two files into ``target``; the stamp of its meta.json."""
        target.mkdir(parents=True, exist_ok=False)
        meta: dict[str, Any] = {
            "question": entry.question.to_dict(),
            "created_at": entry.created_at,
            "segments": [
                {"phase": seg.phase.value, "header": seg.header, "body": seg.body}
                for seg in entry.structured.segments
            ],
        }
        if trajectory is not None:
            meta["trajectory"] = trajectory.to_dict()
        meta_path = target / "meta.json"
        meta_path.write_text(json.dumps(meta, ensure_ascii=False) + "\n", encoding="utf-8")
        (target / _FULL_FILE).write_text(entry.structured.full_document, encoding="utf-8")
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

    def _read_index(self, database_id: str) -> dict[str, tuple[dict[str, Any], bytes]]:
        """Entry directory name -> (line, its bytes without the line break)
        for the last well-formed line of that entry in the database's index,
        read in one call; torn or garbage lines are skipped."""
        try:
            with open(self.root / database_id / _INDEX_FILE, "rb") as handle:
                data = handle.read()
        except OSError:
            return {}
        lines: dict[str, tuple[dict[str, Any], bytes]] = {}
        # Each line is parsed on its own, so a garbage line cannot shift or
        # swallow its neighbours.
        for raw in data.split(b"\n"):
            try:
                line = json.loads(raw)
                lines[line["question"]["id"]] = (line, raw)
            except (ValueError, LookupError, TypeError):
                continue
        return lines

    def _compact_index(self, database_id: str, size: int) -> None:
        """Rewrite the index with only the lines that still match their entry's
        ``meta.json``, when those take at most half of its ``size`` bytes. A
        line another writer appends meanwhile is lost, which only costs a full
        parse, and the next first load writes the line again."""
        database_dir = self.root / database_id
        live = b"".join(
            raw + b"\n"
            for name, (line, raw) in self._read_index(database_id).items()
            if line.get("stamp") == list(_stamp(database_dir / name / "meta.json") or ())
        )
        if 2 * len(live) > size:
            return
        tmp = database_dir / f".tmp-index-{uuid.uuid4().hex[:8]}"
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
        returns copies of the cached entries, so a caller that rebinds an
        entry's fields leaves the store's copy as it was. A corrupt entry is
        logged once and parsed again only when its ``meta.json`` changes.
        Entries that vanished are dropped.
        """
        with self._entries_lock:
            known = self._entries.get(database_id)
            first = known is None
            indexed = self._read_index(database_id) if first else {}
            current: dict[str, tuple[_Stamp | None, MemoryEntry | None]] = {}
            heal: list[bytes] = []
            for entry_dir in self._entry_dirs(database_id):
                name = entry_dir.name
                # Stat before reading, so a stamp is never newer than the
                # content kept with it.
                stamp = _stamp(entry_dir.path + "/meta.json")
                cached = None if first else known.get(name)
                if cached is None or cached[0] != stamp:
                    line, _ = indexed.get(name, (None, b""))
                    entry = self._from_index(entry_dir.path, stamp, line)
                    if entry is None:
                        entry = self._parse(entry_dir.path, _parse_entry)
                        if first and entry is not None and stamp is not None:
                            heal += self._heal_line(database_id, name, entry, stamp)
                    cached = (stamp, entry)
                current[name] = cached
            self._entries[database_id] = current
            if heal and self._append_index(database_id, b"".join(heal)):
                self.counts.healed += len(heal)
        clone = MemoryEntry.__copy__
        return [clone(entry) for _, entry in current.values() if entry is not None]

    def _from_index(
        self, entry_dir: str, stamp: _Stamp | None, line: dict[str, Any] | None
    ) -> MemoryEntry | None:
        """The entry an index line describes, when the entry's ``meta.json``
        still has the line's stamp; None when it does not, or the line is
        damaged."""
        if line is None or stamp is None or line.get("stamp") != list(stamp):
            return None
        try:
            entry = _parse_entry(entry_dir, line)
        except _CORRUPT_ENTRY_ERRORS:
            return None
        self.counts.indexed += 1
        return entry

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
        """Make sure an entry's segments are in memory, reading them from its
        ``meta.json`` if the entry came from the index.

        False when the file changed since it was indexed or does not parse.
        The entry is then dropped from the cache, so the next
        ``load_entries`` parses it in full.
        """
        if entry.structured.loaded:
            return True
        with self._entries_lock:
            self.counts.parsed += 1
        try:
            entry.structured.segments
            return True
        except StorageError as exc:
            logger.warning("%s", exc)
        with self._entries_lock:
            self._entries.get(entry.database_id, {}).pop(entry.path.name, None)
        return False

    def load_trajectories(self, database_id: str) -> list[Trajectory]:
        """Raw classified trajectories stored alongside entries (for mining),
        read afresh on every call, in question-id order; corrupt ones skipped."""
        parsed = (
            self._parse(entry_dir.path, _stored_trajectory)
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
    """The entry that a ``meta.json`` or an index line describes, in the
    directory ``entry_dir``.

    An index line holds no segments, and is taken in one step: its counts
    are decoded and checked into the entry's ``counts_memo``, and its
    segments are left to be read from ``meta.json`` when first asked for.
    """
    question = Question.from_dict(meta["question"])
    if "segments" in meta:
        return MemoryEntry(
            question, StructuredTrajectory(_segments(meta)), meta.get("created_at", ""), entry_dir
        )
    counts = _decode_counts(meta["counts"], meta["dimension"])
    entry = MemoryEntry(
        question,
        _IndexedTrajectory(entry_dir, tuple(meta["stamp"]), question),
        meta.get("created_at", ""),
        entry_dir,
    )
    entry.counts_memo[(question.text, meta["dimension"])] = counts
    return entry


def _segments(meta: dict[str, Any]) -> list[StructuredSegment]:
    return [
        StructuredSegment(phase=Phase.parse(seg["phase"]), header=seg["header"], body=seg["body"])
        for seg in meta["segments"]
    ]


class _IndexedTrajectory(StructuredTrajectory):
    """The structured trajectory of an entry taken from its index line. Its
    segments are read from the entry's ``meta.json`` the first time they are
    asked for, and only from a file that still has the line's stamp and
    holds the line's question. Copies of the entry share this object, and so
    share the read."""

    __slots__ = ("entry_dir", "stamp", "question")

    def __init__(self, entry_dir: str, stamp: tuple, question: Question) -> None:
        self._segments = None
        self.entry_dir = entry_dir
        self.stamp = stamp
        self.question = question

    @property
    def segments(self) -> list[StructuredSegment]:
        if self._segments is None:
            self._segments = self._read()
        return self._segments

    def _read(self) -> list[StructuredSegment]:
        try:
            meta = _read_meta(self.entry_dir, self.stamp)
            if Question.from_dict(meta["question"]) != self.question:
                raise ValueError("meta.json does not match its index line")
            return _segments(meta)
        except _CORRUPT_ENTRY_ERRORS as exc:
            raise StorageError(f"cannot read memory entry at {self.entry_dir}: {exc}") from exc


def _stored_trajectory(entry_dir: str | Path, meta: dict[str, Any]) -> Trajectory | None:
    raw = meta.get("trajectory")
    return None if raw is None else Trajectory.from_dict(raw)
