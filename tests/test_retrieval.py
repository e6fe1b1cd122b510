from __future__ import annotations

import math
import random

import pytest

from trajmem.model import Question
from trajmem.retrieval import (
    HashingEmbedder,
    filter_by_database,
    l2_normalize,
    select_from_entries,
    unit_cosine,
)

from helpers import memory_entry
from oracles import brute_force_select, cosine_similarity, reference_embed

PROVIDER = HashingEmbedder(256)


def unit(text: str) -> dict[int, float]:
    return l2_normalize(PROVIDER.embed_sparse(text))


def test_embed_is_deterministic():
    assert PROVIDER.embed("group by region") == PROVIDER.embed("group by region")


def test_embed_is_unit_norm():
    vector = PROVIDER.embed("list all airports")
    assert math.isclose(sum(v * v for v in vector), 1.0, abs_tol=1e-12)
    assert abs(unit_cosine(unit("list all airports"), unit("list all airports")) - 1.0) <= 1e-9


@pytest.mark.parametrize("dimension", [1, 16, 256])
def test_embed_equals_dense_reference_bit_for_bit(dimension):
    embedder = HashingEmbedder(dimension)
    texts = ["", "a", "ab", "abc", "List ALL airports", "Ünïcode café déjà vu", "naïve 🚀 rocket",
             "x" * 40, "How many flights departed from each airport in the dataset?"]
    for text in texts:
        assert embedder.embed(text) == reference_embed(text, dimension)


def test_sparse_embedding_holds_exactly_the_nonzero_buckets():
    for text in ("list all airports", "", "ab", "Ünïcode café déjà vu", "x" * 40):
        dense = PROVIDER.embed(text)
        sparse = PROVIDER.embed_sparse(text)
        assert list(sparse) == sorted(sparse)
        assert sparse == {bucket: v for bucket, v in enumerate(dense) if v}


def test_sparse_scores_equal_dense_cosine_bit_for_bit():
    rng = random.Random(11)
    words = "how many flights rows per carrier airport delay count distinct region".split()
    texts = [" ".join(rng.choice(words) for _ in range(rng.randint(0, 9))) for _ in range(60)]
    for a in texts:
        for b in texts[:20]:
            dense = cosine_similarity(PROVIDER.embed(a), PROVIDER.embed(b))
            assert unit_cosine(unit(a), unit(b)) == dense


def test_empty_text_uses_convention_vector():
    vector = PROVIDER.embed("")
    assert vector[0] == 1.0
    assert all(v == 0.0 for v in vector[1:])


def test_shared_trigrams_dominate_similarity():
    base = unit("group by region")
    assert unit_cosine(base, unit("group by region totals")) > unit_cosine(
        base, unit("list all airports")
    )


def test_cosine_identity():
    v = unit("anything at all")
    assert unit_cosine(v, v) == pytest.approx(1.0, abs=1e-12)


def test_cosine_orthogonal():
    assert unit_cosine({0: 1.0}, {1: 1.0}) == 0.0
    assert unit_cosine({0: 1.0}, {}) == 0.0


def test_cosine_antipodal():
    v = {3: 0.6, 7: 0.8}
    assert unit_cosine(v, {b: -x for b, x in v.items()}) == pytest.approx(-1.0, abs=1e-12)


def test_cosine_clamps_to_unit_interval():
    v = unit("clamp check")
    assert -1.0 <= unit_cosine(v, v) <= 1.0
    assert unit_cosine({0: 1.0 + 1e-9}, {0: 1.0 + 1e-9}) == 1.0


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
    assert abs(unit_cosine(unit(question.text), unit(selected.question.text)) - 1.0) <= 1e-9


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
    embedded = []
    original = HashingEmbedder.embed_sparse
    monkeypatch.setattr(
        HashingEmbedder,
        "embed_sparse",
        lambda self, text: embedded.append((text, self.dimension())) or original(self, text),
    )
    for _ in range(3):
        select_from_entries(question, [entry], PROVIDER)
    select_from_entries(question, [entry], HashingEmbedder(16))
    entry.question = Question(id="q1", text="other words", database_id="A")
    select_from_entries(question, [entry], PROVIDER)
    # The query is embedded on every call; each entry text once per dimension.
    assert [call for call in embedded if call[0] != question.text] == [
        ("how many flights are recorded", 256),
        ("how many flights are recorded", 16),
        ("other words", 256),
    ]
    assert entry.vector_memo[("other words", 256)] == unit("other words")


def test_select_duplicate_ids_keep_first_of_equal_scores():
    first = memory_entry("q1", "A", "same words")
    second = memory_entry("q1", "A", "same words")
    question = Question(id="x", text="same words", database_id="A")
    assert select_from_entries(question, [first, second], PROVIDER) is first
