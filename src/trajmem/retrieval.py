"""Trajectory selection: same-database filtering plus embedding similarity.

Retrieval first restricts candidates to entries on the question's database,
then picks the single entry whose stored question embedding has the highest
cosine similarity to the query embedding, breaking exact ties by the
lexicographically smallest question id. Questions are always embedded by
``HashingEmbedder``, the one deterministic embedder.
"""

from __future__ import annotations

import heapq
import math
import zlib
from typing import Iterable, Sequence, TypeVar

from .errors import ConfigurationError
from .model import Question
from .store import MemoryEntry, MemoryStore

DEFAULT_DIMENSION = 256

K = TypeVar("K")


def l2_normalize(vector: Sequence[float]) -> list[float]:
    norm = math.sqrt(sum(v * v for v in vector))
    if norm == 0.0:
        return list(vector)
    return [v / norm for v in vector]


class HashingEmbedder:
    """The one question embedder: hashed character trigrams.

    Lowercased character trigrams are counted into ``dimension`` buckets via
    CRC32 and the bucket vector is L2-normalized. Texts too short to yield a
    trigram map to the zero-information convention vector (all mass in
    bucket 0).
    """

    def __init__(self, dimension: int = DEFAULT_DIMENSION) -> None:
        if dimension < 1:
            raise ValueError("embedding dimension must be positive")
        self._dimension = dimension

    def dimension(self) -> int:
        return self._dimension

    def embed(self, text: str) -> list[float]:
        buckets = [0.0] * self._dimension
        lowered = text.lower()
        if len(lowered) < 3:
            buckets[0] = 1.0
        else:
            for start in range(len(lowered) - 2):
                trigram = lowered[start : start + 3]
                index = zlib.crc32(trigram.encode("utf-8")) % self._dimension
                buckets[index] += 1.0
        return l2_normalize(buckets)


def cosine_similarity(a: Sequence[float], b: Sequence[float]) -> float:
    """Cosine of the angle between two vectors, clamped to [-1, 1]."""
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    na = l2_normalize(a)
    nb = l2_normalize(b)
    dot = sum(x * y for x, y in zip(na, nb))
    return max(-1.0, min(1.0, dot))


def filter_by_database(
    question: Question, entries: Iterable[MemoryEntry]
) -> list[MemoryEntry]:
    """Exactly the entries recorded for the question's database, order kept."""
    return [entry for entry in entries if entry.database_id == question.database_id]


def rank(
    query: Sequence[float],
    keyed_vectors: Iterable[tuple[K, Sequence[float]]],
    k: int,
) -> list[tuple[K, float]]:
    """Top-k ``(key, cosine similarity)`` pairs, sorted by (-score, key)."""
    if k < 1:
        raise ValueError("k must be at least 1")
    scored = [(key, cosine_similarity(query, vector)) for key, vector in keyed_vectors]
    return heapq.nsmallest(k, scored, key=lambda item: (-item[1], item[0]))


def select_from_entries(
    question: Question,
    entries: Iterable[MemoryEntry],
    provider: HashingEmbedder,
) -> MemoryEntry | None:
    """Argmax-by-similarity over same-database entries; None when none match."""
    candidates = filter_by_database(question, entries)
    if not candidates:
        return None
    for entry in candidates:
        if len(entry.embedding) != provider.dimension():
            raise ConfigurationError(
                f"entry {entry.question.id!r} has dimension {len(entry.embedding)}, "
                f"provider expects {provider.dimension()}"
            )
    # The position only separates entries that share a question id.
    (_, position), _ = rank(
        provider.embed(question.text),
        (((entry.question.id, i), entry.embedding) for i, entry in enumerate(candidates)),
        k=1,
    )[0]
    return candidates[position]


def select_trajectory(question: Question, store: MemoryStore) -> MemoryEntry | None:
    """Select the stored entry to reuse for a question (Eq. filter + argmax)."""
    return select_from_entries(
        question, store.load_entries(question.database_id), HashingEmbedder(store.dimension)
    )
