"""Trajectory selection: same-database filtering plus embedding similarity.

Retrieval first restricts candidates to entries on the question's database,
then picks the single entry whose question embedding has the highest cosine
similarity to the query embedding, breaking exact ties by the
lexicographically smallest question id. Questions are always embedded by
``HashingEmbedder``, the one deterministic embedder.

Scores are exact. The cosine of two hashed-trigram embeddings is
dot / (|q| |e|), where dot is the sum over buckets of the query's count
times the entry's count. |q| is the same for every candidate and dot is
never negative, so the argmax of the cosine is the argmax of dot² / |e|².
Two candidates are compared by cross-multiplying, dot_a² |e_b|² against
dot_b² |e_a|², in integers: no division and no float, so an exact tie is a
tie and goes to the smallest question id; between equal ids the first
candidate in order wins.

This module owns the choice and the scoring. It hashes only the query; a
candidate's counts come from ``trajmem.store.entry_counts``, which owns
hashing, memoizing and storing the counts of a stored question, so an
entry taken from the index, persisted or healed by a store is not hashed
again.
"""

from __future__ import annotations

from operator import mul
from typing import Iterable

from .embedding import HashingEmbedder
from .model import Question
from .store import MemoryEntry, MemoryStore, entry_counts


def filter_by_database(
    question: Question, entries: Iterable[MemoryEntry]
) -> list[MemoryEntry]:
    """Exactly the entries recorded for the question's database, order kept."""
    database_id = question.database_id
    return [entry for entry in entries if entry.question.database_id == database_id]


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
    # Scoring uses the integer counts it is made from, not its floats.
    provider.embed(question.text)
    dimension = provider.dimension()
    query = [0] * dimension
    for bucket, count in provider.trigram_counts(question.text).items():
        query[bucket] = count
    best, best_dot, best_norm = None, 0, 1
    for entry in candidates:
        buckets, counts, norm = entry_counts(entry, dimension)
        dot = sum(map(mul, map(query.__getitem__, buckets), counts))
        # dot² / norm against best_dot² / best_norm, without dividing.
        ahead = dot * dot * best_norm - best_dot * best_dot * norm
        if best is None or ahead > 0 or (ahead == 0 and entry.question.id < best.question.id):
            best, best_dot, best_norm = entry, dot, norm
    return best


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
