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

Embeddings are not stored. An entry's counts are memoized on the entry as
its nonzero buckets in ascending order, their counts and the sum of the
squared counts. The store fills the memo when it takes an entry from its
index, whose base64 (bucket, count) pairs decode to two arrays of 16-bit
numbers, and when it writes the line an entry lacked; otherwise the
question text is hashed the first time the entry is scored, into lists.
"""

from __future__ import annotations

from operator import mul
from typing import Iterable

from .embedding import HashingEmbedder
from .model import Question
from .store import EntryCounts, MemoryEntry, MemoryStore


def filter_by_database(
    question: Question, entries: Iterable[MemoryEntry]
) -> list[MemoryEntry]:
    """Exactly the entries recorded for the question's database, order kept."""
    database_id = question.database_id
    return [entry for entry in entries if entry.question.database_id == database_id]


def _entry_counts(entry: MemoryEntry, provider: HashingEmbedder) -> EntryCounts:
    """The entry's trigram counts, hashed from its question text and
    memoized on the entry."""
    key = (entry.question.text, provider.dimension())
    counts = provider.trigram_counts(key[0])
    buckets = sorted(counts)
    values = [counts[bucket] for bucket in buckets]
    memo = entry.counts_memo[key] = (buckets, values, sum(map(mul, values, values)))
    return memo


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
    query_count = query.__getitem__
    best, best_dot, best_norm = None, 0, 1
    for entry in candidates:
        memo = entry.counts_memo.get((entry.question.text, dimension))
        buckets, counts, norm = memo if memo is not None else _entry_counts(entry, provider)
        dot = sum(map(mul, map(query_count, buckets), counts))
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
