"""Trajectory selection: same-database filtering plus embedding similarity.

Retrieval first restricts candidates to entries on the question's database,
then picks the single entry whose question embedding has the highest cosine
similarity to the query embedding, breaking exact ties by the
lexicographically smallest question id. Questions are always embedded by
``HashingEmbedder``, the one deterministic embedder.

Embeddings are not stored. An entry's vector is memoized on the entry,
sparse: only its nonzero buckets (about 45 of 256 for a fixture question),
in ascending bucket order. The store fills the memo from the trigram counts
in its index; otherwise the question text is embedded the first time the
entry is scored. Either way the vector is ``l2_normalize`` of the unit
vector of the same integer counts. Scoring is the arithmetic of a dense
cosine: both vectors are L2-normalized once more, as the dense cosine
normalizes its inputs, and the products of the buckets they share are
summed in ascending bucket order. The buckets they do not share would add
only ``+0.0`` to a non-negative sum, so every score equals the dense cosine
to the last bit.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Mapping, TypeVar

from .embedding import HashingEmbedder, l2_normalize
from .model import Question
from .store import MemoryEntry, MemoryStore

K = TypeVar("K")


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
    """Select the stored entry to reuse for a question (Eq. filter + argmax).

    The winner's segments are read before it is returned. A winner taken
    from the store's index whose ``meta.json`` changed since, or does not
    parse, is dropped and the selection redone over the entries that parse.
    """
    provider = HashingEmbedder(store.dimension)
    while True:
        entry = select_from_entries(question, store.load_entries(question.database_id), provider)
        if entry is None or store.read_segments(entry):
            return entry
