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

from typing import Iterable, Mapping

from .embedding import HashingEmbedder, l2_normalize
from .model import Question
from .store import MemoryEntry, MemoryStore


def unit_cosine(a: Mapping[int, float], b: Mapping[int, float]) -> float:
    """Cosine similarity of two sparse unit vectors, clamped to [-1, 1]."""
    return max(-1.0, min(1.0, sum(v * b[bucket] for bucket, v in a.items() if bucket in b)))


def filter_by_database(
    question: Question, entries: Iterable[MemoryEntry]
) -> list[MemoryEntry]:
    """Exactly the entries recorded for the question's database, order kept."""
    return [entry for entry in entries if entry.database_id == question.database_id]


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
    # The highest score wins, then the smallest question id; the position
    # only separates entries that share a question id.
    _, _, position = min(
        (-unit_cosine(query, _entry_vector(entry, provider)), entry.question.id, i)
        for i, entry in enumerate(candidates)
    )
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
