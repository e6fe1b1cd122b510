"""Trajectory selection: same-database filtering plus embedding similarity.

Retrieval first restricts candidates to entries on the question's database,
then picks the single entry whose question embedding has the highest cosine
similarity to the query embedding, breaking exact ties by the
lexicographically smallest question id. Questions are always embedded by
``HashingEmbedder``, the one deterministic embedder.

Embeddings are not stored. An entry's vector is computed from its question
text the first time the entry is scored and memoized on the entry, sparse:
only its nonzero buckets (about 45 of 256 for a fixture question), in
ascending bucket order. Scoring is the arithmetic of a dense cosine: both
vectors are L2-normalized once more, as the dense cosine normalizes its
inputs, and the products of the buckets they share are summed in ascending
bucket order. The buckets they do not share would add only ``+0.0`` to a
non-negative sum, so every score equals the dense cosine to the last bit.
"""

from __future__ import annotations

import heapq
import math
import zlib
from collections import Counter
from typing import Iterable, Mapping, TypeVar

from .model import Question
from .store import MemoryEntry, MemoryStore

DEFAULT_DIMENSION = 256

K = TypeVar("K")


def l2_normalize(vector: Mapping[int, float]) -> dict[int, float]:
    """Scale a sparse vector (bucket -> value) to unit length, buckets kept in order."""
    norm = math.sqrt(sum(v * v for v in vector.values()))
    if norm == 0.0:
        return dict(vector)
    return {bucket: v / norm for bucket, v in vector.items()}


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

    def embed_sparse(self, text: str) -> dict[int, float]:
        """The embedding's nonzero buckets, in ascending bucket order."""
        lowered = text.lower()
        counts = Counter(
            zlib.crc32(lowered[i : i + 3].encode("utf-8")) % self._dimension
            for i in range(len(lowered) - 2)
        ) or Counter({0: 1})
        # The counts are integers, so the sum of their squares is exact and
        # equals the float sum over the dense vector in any order.
        norm = math.sqrt(sum(count * count for count in counts.values()))
        return {bucket: counts[bucket] / norm for bucket in sorted(counts)}

    def embed(self, text: str) -> list[float]:
        """The embedding as ``dimension`` floats."""
        dense = [0.0] * self._dimension
        for bucket, value in self.embed_sparse(text).items():
            dense[bucket] = value
        return dense


def unit_cosine(a: Mapping[int, float], b: Mapping[int, float]) -> float:
    """Cosine similarity of two sparse unit vectors, clamped to [-1, 1]."""
    return max(-1.0, min(1.0, sum(v * b[bucket] for bucket, v in a.items() if bucket in b)))


def filter_by_database(
    question: Question, entries: Iterable[MemoryEntry]
) -> list[MemoryEntry]:
    """Exactly the entries recorded for the question's database, order kept."""
    return [entry for entry in entries if entry.database_id == question.database_id]


def rank(
    query: Mapping[int, float],
    keyed_vectors: Iterable[tuple[K, Mapping[int, float]]],
    k: int,
) -> list[tuple[K, float]]:
    """Top-k ``(key, cosine similarity)`` pairs of sparse unit vectors,
    sorted by (-score, key)."""
    if k < 1:
        raise ValueError("k must be at least 1")
    scored = [(key, unit_cosine(query, vector)) for key, vector in keyed_vectors]
    return heapq.nsmallest(k, scored, key=lambda item: (-item[1], item[0]))


def _entry_vector(entry: MemoryEntry, provider: HashingEmbedder) -> dict[int, float]:
    """The entry's embedding normalized once more, memoized on the entry."""
    key = (entry.question.text, provider.dimension())
    vector = entry.vector_memo.get(key)
    if vector is None:
        vector = entry.vector_memo[key] = l2_normalize(provider.embed_sparse(key[0]))
    return vector


def select_from_entries(
    question: Question,
    entries: Iterable[MemoryEntry],
    provider: HashingEmbedder,
) -> MemoryEntry | None:
    """Argmax-by-similarity over same-database entries; None when none match."""
    candidates = filter_by_database(question, entries)
    if not candidates:
        return None
    # The dense embed is the one perfbench times as retrieval.embed.
    embedding = provider.embed(question.text)
    query = l2_normalize({bucket: v for bucket, v in enumerate(embedding) if v})
    # The position only separates entries that share a question id.
    (_, position), _ = rank(
        query,
        (
            ((entry.question.id, i), _entry_vector(entry, provider))
            for i, entry in enumerate(candidates)
        ),
        k=1,
    )[0]
    return candidates[position]


def select_trajectory(question: Question, store: MemoryStore) -> MemoryEntry | None:
    """Select the stored entry to reuse for a question (Eq. filter + argmax)."""
    return select_from_entries(
        question, store.load_entries(question.database_id), HashingEmbedder(store.dimension)
    )
