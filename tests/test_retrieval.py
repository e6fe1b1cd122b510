from __future__ import annotations

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trajmem.model import Question
from trajmem.retrieval import (
    HashingEmbedder,
    filter_by_database,
    select_from_entries,
)

from helpers import memory_entry
from oracles import brute_force_select, cosine_similarity, exact_similarity, reference_embed

PROVIDER = HashingEmbedder(256)


def test_embed_is_deterministic():
    assert PROVIDER.embed("group by region") == PROVIDER.embed("group by region")


def test_embed_is_unit_norm():
    vector = PROVIDER.embed("list all airports")
    assert math.isclose(sum(v * v for v in vector), 1.0, abs_tol=1e-12)


@pytest.mark.parametrize("dimension", [1, 16, 256])
def test_embed_equals_dense_reference_bit_for_bit(dimension):
    embedder = HashingEmbedder(dimension)
    texts = ["", "a", "ab", "abc", "List ALL airports", "Ünïcode café déjà vu", "naïve 🚀 rocket",
             "x" * 40, "How many flights departed from each airport in the dataset?"]
    for text in texts:
        assert embedder.embed(text) == reference_embed(text, dimension)


def test_exact_scores_agree_with_dense_cosine():
    rng = random.Random(11)
    words = "how many flights rows per carrier airport delay count distinct region".split()
    texts = [" ".join(rng.choice(words) for _ in range(rng.randint(0, 9))) for _ in range(60)]
    for a in texts:
        for b in texts[:20]:
            dense = cosine_similarity(PROVIDER.embed(a), PROVIDER.embed(b))
            assert math.isclose(exact_similarity(PROVIDER, a, b), dense * dense, abs_tol=1e-12)


def test_empty_text_uses_convention_vector():
    vector = PROVIDER.embed("")
    assert vector[0] == 1.0
    assert all(v == 0.0 for v in vector[1:])


def test_shared_trigrams_dominate_similarity():
    entries = [
        memory_entry("q1", "A", "list all airports"),
        memory_entry("q2", "A", "group by region totals"),
    ]
    question = Question(id="x", text="group by region", database_id="A")
    assert select_from_entries(question, entries, PROVIDER) is entries[1]


def test_cosine_identity():
    assert exact_similarity(PROVIDER, "anything at all", "anything at all") == 1
    entries = [
        memory_entry("q1", "A", "anything at all, really"),
        memory_entry("q2", "A", "anything at all"),
    ]
    question = Question(id="x", text="anything at all", database_id="A")
    assert select_from_entries(question, entries, PROVIDER) is entries[1]


def test_cosine_orthogonal():
    apart = [memory_entry("q2", "A", "sum of sales"), memory_entry("q1", "A", "count rows")]
    query = Question(id="x", text="zzzz", database_id="A")
    assert all(exact_similarity(PROVIDER, "zzzz", e.question.text) == 0 for e in apart)
    # Every score is 0, an exact tie, so the smallest id wins.
    assert select_from_entries(query, apart, PROVIDER) is apart[1]


def test_filter_keeps_matching_database_only():
    entries = [
        memory_entry("q1", "A", "first"),
        memory_entry("q2", "A", "second"),
        memory_entry("q3", "B", "third"),
    ]
    question = Question(id="x", text="anything", database_id="A")
    assert [e.question.id for e in filter_by_database(question, entries)] == ["q1", "q2"]


def test_filter_empty_when_no_database_matches():
    entries = [memory_entry("q1", "A", "first")]
    question = Question(id="x", text="anything", database_id="C")
    assert filter_by_database(question, entries) == []


def test_filter_total_when_all_match():
    entries = [memory_entry(f"q{i}", "A", f"text {i}") for i in range(4)]
    question = Question(id="x", text="anything", database_id="A")
    assert filter_by_database(question, entries) == entries


def test_select_singleton():
    entries = [memory_entry("q1", "A", "only entry")]
    question = Question(id="x", text="unrelated words", database_id="A")
    assert select_from_entries(question, entries, PROVIDER) is entries[0]


def test_select_exact_text_wins():
    entries = [
        memory_entry("q1", "A", "total revenue per category"),
        memory_entry("q2", "A", "how many flights are recorded"),
    ]
    question = Question(id="x", text="how many flights are recorded", database_id="A")
    selected = select_from_entries(question, entries, PROVIDER)
    assert selected is entries[1]
    assert exact_similarity(PROVIDER, question.text, selected.question.text) == 1


def test_select_matches_brute_force_on_random_corpus():
    rng = random.Random(21)
    vocabulary = [
        "total revenue per region",
        "average delay per carrier",
        "count of distinct products",
        "list the airports by country",
        "orders per month in the north",
        "which carrier has most flights",
        "sum of distances per year",
        "products in the gadgets category",
        "first rows of the orders table",
        "distinct values of region",
    ]
    for _ in range(50):
        entries = [
            memory_entry(f"q{i:02d}", rng.choice("AB"), rng.choice(vocabulary))
            for i in range(10)
        ]
        question = Question(id="x", text=rng.choice(vocabulary), database_id="A")
        assert select_from_entries(question, entries, PROVIDER) is brute_force_select(
            question, entries, PROVIDER
        )


def test_select_tie_break_is_order_independent():
    entries = [
        memory_entry("q2", "A", "identical text"),
        memory_entry("q1", "A", "identical text"),
        memory_entry("q3", "A", "identical text"),
    ]
    question = Question(id="x", text="identical text", database_id="A")
    rng = random.Random(5)
    winners = set()
    for _ in range(10):
        shuffled = entries[:]
        rng.shuffle(shuffled)
        winners.add(select_from_entries(question, shuffled, PROVIDER).question.id)
    assert winners == {"q1"}


def test_select_scale_invariance_of_argmax():
    scores = [0.2, 0.9, 0.4, 0.9]
    ids = ["b", "d", "a", "c"]

    def argmax(pairs):
        best_score = max(score for score, _ in pairs)
        return min(qid for score, qid in pairs if score == best_score)

    plain = argmax(list(zip(scores, ids)))
    scaled = argmax([(3.7 * score, qid) for score, qid in zip(scores, ids)])
    assert plain == scaled == "c"


def test_select_none_when_database_unseen():
    entries = [memory_entry("q1", "A", "text")]
    question = Question(id="x", text="text", database_id="Z")
    assert select_from_entries(question, entries, PROVIDER) is None


def test_select_memoizes_entry_vectors_by_text_and_dimension(monkeypatch):
    entry = memory_entry("q1", "A", "how many flights are recorded")
    question = Question(id="x", text="how many flights", database_id="A")
    hashed = []
    original = HashingEmbedder.trigram_counts
    monkeypatch.setattr(
        HashingEmbedder,
        "trigram_counts",
        lambda self, text: hashed.append((text, self.dimension())) or original(self, text),
    )
    for _ in range(3):
        select_from_entries(question, [entry], PROVIDER)
    select_from_entries(question, [entry], HashingEmbedder(16))
    entry.question = Question(id="q1", text="other words", database_id="A")
    select_from_entries(question, [entry], PROVIDER)
    # The query is hashed on every call; each entry text once per dimension.
    assert [call for call in hashed if call[0] != question.text] == [
        ("how many flights are recorded", 256),
        ("how many flights are recorded", 16),
        ("other words", 256),
    ]
    monkeypatch.undo()
    counts = PROVIDER.trigram_counts("other words")
    buckets = sorted(counts)
    memo_buckets, memo_counts, memo_norm = entry.counts_memo[("other words", 256)]
    assert (list(memo_buckets), list(memo_counts), memo_norm) == (
        buckets, [counts[b] for b in buckets], sum(c * c for c in counts.values())
    )


def test_select_duplicate_ids_keep_first_of_equal_scores():
    first = memory_entry("q1", "A", "same words")
    second = memory_entry("q1", "A", "same words")
    question = Question(id="x", text="same words", database_id="A")
    assert select_from_entries(question, [first, second], PROVIDER) is first


def test_exact_tie_goes_to_the_smallest_id():
    # Both entries score 25/26 (dot² / |e|²); float rounding used to rank
    # q06 first. Case 634 of the retrieval acceptance loop.
    question = Question(id="probe", text="sum of distances per year", database_id="A")
    airports = memory_entry("q06", "A", "list the airports by country")
    revenue = memory_entry("q04", "A", "total revenue per region")
    assert exact_similarity(PROVIDER, question.text, airports.question.text) == exact_similarity(
        PROVIDER, question.text, revenue.question.text
    )
    for entries in ([airports, revenue], [revenue, airports]):
        assert select_from_entries(question, entries, PROVIDER) is revenue


# The first three hold an exact tie: the second and third score the same
# against the first.
_PHRASES = ["sum of distances per year", "list the airports by country",
            "total revenue per region", "group by region"]
_TEXT = st.one_of(
    st.sampled_from(_PHRASES),
    st.lists(st.sampled_from(" ".join(_PHRASES).split()), max_size=6).map(" ".join),
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from(["q1", "q2", "q3", "q4"]), st.sampled_from("AB"), _TEXT),
             max_size=12),
    _TEXT,
    st.sampled_from([256, 4, 1]),
)
@example([("q2", "A", _PHRASES[1]), ("q1", "A", _PHRASES[2])], _PHRASES[0], 256)
def test_select_is_the_exact_fraction_argmax(rows, text, dimension):
    entries = [memory_entry(qid, db, entry_text) for qid, db, entry_text in rows]
    question = Question(id="probe", text=text, database_id="A")
    provider = HashingEmbedder(dimension)
    assert select_from_entries(question, entries, provider) is brute_force_select(
        question, entries, provider
    )
