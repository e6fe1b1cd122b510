from __future__ import annotations

import math
import random

import pytest

from trajmem.errors import ConfigurationError
from trajmem.model import Question
from trajmem.retrieval import (
    HashingEmbedder,
    cosine_similarity,
    filter_by_database,
    rank,
    select_from_entries,
)

from helpers import memory_entry
from oracles import brute_force_select

PROVIDER = HashingEmbedder(256)


def test_embed_is_deterministic():
    assert PROVIDER.embed("group by region") == PROVIDER.embed("group by region")


def test_embed_is_unit_norm():
    vector = PROVIDER.embed("list all airports")
    assert math.isclose(sum(v * v for v in vector), 1.0, abs_tol=1e-12)
    assert abs(cosine_similarity(vector, vector) - 1.0) <= 1e-9


def test_empty_text_uses_convention_vector():
    vector = PROVIDER.embed("")
    assert vector[0] == 1.0
    assert all(v == 0.0 for v in vector[1:])


def test_shared_trigrams_dominate_similarity():
    base = PROVIDER.embed("group by region")
    near = PROVIDER.embed("group by region totals")
    far = PROVIDER.embed("list all airports")
    assert cosine_similarity(base, near) > cosine_similarity(base, far)


def test_cosine_identity():
    v = PROVIDER.embed("anything at all")
    assert cosine_similarity(v, v) == pytest.approx(1.0, abs=1e-12)


def test_cosine_orthogonal():
    a = [1.0, 0.0, 0.0]
    b = [0.0, 1.0, 0.0]
    assert cosine_similarity(a, b) == 0.0


def test_cosine_antipodal():
    v = [0.6, 0.8]
    assert cosine_similarity(v, [-x for x in v]) == pytest.approx(-1.0, abs=1e-12)


def test_cosine_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        cosine_similarity([1.0, 0.0], [1.0, 0.0, 0.0])


def test_cosine_clamps_to_unit_interval():
    v = PROVIDER.embed("clamp check")
    assert -1.0 <= cosine_similarity(v, v) <= 1.0


def test_filter_keeps_matching_database_only():
    entries = [
        memory_entry("q1", "A", "first", PROVIDER),
        memory_entry("q2", "A", "second", PROVIDER),
        memory_entry("q3", "B", "third", PROVIDER),
    ]
    question = Question(id="x", text="anything", database_id="A")
    assert [e.question.id for e in filter_by_database(question, entries)] == ["q1", "q2"]


def test_filter_empty_when_no_database_matches():
    entries = [memory_entry("q1", "A", "first", PROVIDER)]
    question = Question(id="x", text="anything", database_id="C")
    assert filter_by_database(question, entries) == []


def test_filter_total_when_all_match():
    entries = [memory_entry(f"q{i}", "A", f"text {i}", PROVIDER) for i in range(4)]
    question = Question(id="x", text="anything", database_id="A")
    assert filter_by_database(question, entries) == entries


def test_select_singleton():
    entries = [memory_entry("q1", "A", "only entry", PROVIDER)]
    question = Question(id="x", text="unrelated words", database_id="A")
    assert select_from_entries(question, entries, PROVIDER) is entries[0]


def test_select_exact_text_wins():
    entries = [
        memory_entry("q1", "A", "total revenue per category", PROVIDER),
        memory_entry("q2", "A", "how many flights are recorded", PROVIDER),
    ]
    question = Question(id="x", text="how many flights are recorded", database_id="A")
    selected = select_from_entries(question, entries, PROVIDER)
    assert selected is entries[1]
    assert abs(cosine_similarity(PROVIDER.embed(question.text), selected.embedding) - 1.0) <= 1e-9


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
            memory_entry(f"q{i:02d}", rng.choice("AB"), rng.choice(vocabulary), PROVIDER)
            for i in range(10)
        ]
        question = Question(id="x", text=rng.choice(vocabulary), database_id="A")
        assert select_from_entries(question, entries, PROVIDER) is brute_force_select(
            question, entries, PROVIDER
        )


def test_select_tie_break_is_order_independent():
    entries = [
        memory_entry("q2", "A", "identical text", PROVIDER),
        memory_entry("q1", "A", "identical text", PROVIDER),
        memory_entry("q3", "A", "identical text", PROVIDER),
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
    entries = [memory_entry("q1", "A", "text", PROVIDER)]
    question = Question(id="x", text="text", database_id="Z")
    assert select_from_entries(question, entries, PROVIDER) is None


def test_select_rejects_dimension_mismatch():
    entries = [memory_entry("q1", "A", "text", HashingEmbedder(16))]
    question = Question(id="x", text="text", database_id="A")
    with pytest.raises(ConfigurationError):
        select_from_entries(question, entries, PROVIDER)


def test_rank_orders_by_score_then_key():
    query = [1.0, 0.0]
    keyed = [("b", [1.0, 0.0]), ("c", [0.0, 1.0]), ("a", [1.0, 0.0]), ("d", [0.6, 0.8])]
    assert rank(query, keyed, k=3) == [
        ("a", 1.0),
        ("b", 1.0),
        ("d", cosine_similarity(query, [0.6, 0.8])),
    ]


def test_rank_matches_sorted_cosine_on_random_vectors():
    rng = random.Random(5)
    query = PROVIDER.embed("average delay per carrier")
    keyed = [
        (f"q{rng.randrange(40):02d}", PROVIDER.embed(f"text {rng.randrange(15)}"))
        for _ in range(60)
    ]
    expected = sorted(
        ((key, cosine_similarity(query, vector)) for key, vector in keyed),
        key=lambda item: (-item[1], item[0]),
    )
    for k in (1, 5, 60, 100):
        assert rank(query, keyed, k) == expected[:k]


def test_rank_empty_and_invalid_k():
    assert rank([1.0], [], k=3) == []
    with pytest.raises(ValueError):
        rank([1.0], [("a", [1.0])], k=0)


def test_select_duplicate_ids_keep_first_of_equal_scores():
    first = memory_entry("q1", "A", "same words", PROVIDER)
    second = memory_entry("q1", "A", "same words", PROVIDER)
    question = Question(id="x", text="same words", database_id="A")
    assert select_from_entries(question, [first, second], PROVIDER) is first
