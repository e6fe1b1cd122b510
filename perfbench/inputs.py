"""Seeded inputs for the benchmark workloads.

Everything the package receives is produced here from the ``--seed``
argument: the synthetic store questions, the paraphrased texts of the
fixture questions and the order in which episodes visit them. The same
seed always gives the same inputs.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from trajmem.fixtures import FIXTURE_QUESTIONS
from trajmem.model import Question

# Vocabulary for synthetic store questions, per fixture database.
_SUBJECTS = {
    "flights": (
        ("flights", ("departure delay", "distance", "year", "carrier", "origin")),
        ("airports", ("city", "country", "name", "code")),
        ("carriers", ("name", "code")),
    ),
    "retail": (
        ("orders", ("quantity", "region", "order date", "sku")),
        ("products", ("price", "category", "name", "sku")),
    ),
}
_ASKS = (
    "What is the average {col} of {tab}",
    "How many {tab} have a {col} above {n}",
    "List the top {n} {tab} by {col}",
    "Which {col} is most common among {tab}",
    "Count the distinct {col} values in {tab}",
    "What is the total {col} over all {tab}",
    "Show the {tab} whose {col} ranks {n}",
    "Give the minimum and maximum {col} of {tab}",
)
_SCOPES = (
    "",
    " for each {other}",
    " grouped by {other}",
    " where {other} is known",
    " ordered by {other}",
)

# Paraphrase operators for the fixture question texts. None of them change
# what the scripted policy does, which is keyed by question id.
_LEADS = ("", "Please tell me: ", "Quick question: ", "I need to know: ", "From the data, ")
_TAILS = ("", " Thanks.", " Keep it short.", " (for the weekly report)", " Be precise.")
_SWAPS = (
    ("What is", "What's"),
    ("How many", "What number of"),
    ("List", "Show"),
    ("Which", "What"),
    ("total", "overall"),
)


def store_questions(rng: random.Random, per_database: int) -> list[Question]:
    """Distinct synthetic questions, ``per_database`` for each fixture database."""
    questions: list[Question] = []
    for database_id, subjects in _SUBJECTS.items():
        texts: set[str] = set()
        while len(texts) < per_database:
            table, columns = rng.choice(subjects)
            column = rng.choice(columns)
            other = rng.choice([c for c in columns if c != column])
            ask = rng.choice(_ASKS).format(col=column, tab=table, n=rng.randint(2, 999))
            scope = rng.choice(_SCOPES).format(other=other)
            texts.add(f"{ask}{scope}?")
        # Sorting before numbering keeps ids independent of set order.
        ordered = sorted(texts)
        rng.shuffle(ordered)
        questions.extend(
            Question(
                id=f"syn-{database_id}-{number:04d}",
                text=text,
                database_id=database_id,
                synthetic=True,
            )
            for number, text in enumerate(ordered, start=1)
        )
    rng.shuffle(questions)
    return questions


def paraphrase(rng: random.Random, text: str) -> str:
    for old, new in _SWAPS:
        if old in text and rng.random() < 0.5:
            text = text.replace(old, new, 1)
    return f"{rng.choice(_LEADS)}{text}{rng.choice(_TAILS)}"


def fixture_round(rng: random.Random) -> list[Question]:
    """The 12 fixture questions, paraphrased, in a seeded order."""
    questions = [
        Question(id=q.id, text=paraphrase(rng, q.text), database_id=q.database_id)
        for q in FIXTURE_QUESTIONS
    ]
    rng.shuffle(questions)
    return questions


def write_questions_file(workspace: Path, round_: list[Question], target: Path) -> Path:
    """A ``trajmem run`` questions file: the workspace's scripts and gold
    answers, with the round's texts and order."""
    by_id = {}
    for line in (workspace / "questions.jsonl").read_text(encoding="utf-8").splitlines():
        if line.strip():
            data = json.loads(line)
            by_id[data["id"]] = data
    lines = [json.dumps({**by_id[q.id], "text": q.text}, ensure_ascii=False) for q in round_]
    target.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return target
