"""Offline synthetic-question generation and trajectory synthesis.

A global question budget is spread over databases coverage-first (one per
database), with the remainder allocated by largest-remainder rounding over
the workload distribution. Weights built from counts (a workload file, or
one per database) are exact fractions, so equal remainders tie exactly and
go to the smaller database id. Question texts come from fixed templates
filled with the schema's tables and first columns. Each question is then
explored by a restricted offline agent and the resulting trajectory is
classified, structured and persisted.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from math import floor
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .errors import BudgetError, SynthesisError
from .harness import EpisodeConfig, build_explorer_registry, run_episode
from .model import Question
from .policies import ExplorerPolicy, Policy, schema_tables
from .retrieval import HashingEmbedder
from .store import MemoryEntry, MemoryStore, structure_trajectory
from .tools import Workspace

if TYPE_CHECKING:
    from fractions import Fraction

logger = logging.getLogger(__name__)

_WEIGHT_TOLERANCE = 1e-9


@dataclass(frozen=True)
class QueryDistribution:
    """Normalized database weights derived from a workload."""

    weights: Mapping[str, float | Fraction]

    def __post_init__(self) -> None:
        if any(weight < 0 for weight in self.weights.values()):
            raise ValueError("weights must be nonnegative")
        total = sum(self.weights.values())
        if abs(total - 1.0) > _WEIGHT_TOLERANCE:
            raise ValueError(f"weights must sum to 1, got {total}")

    @classmethod
    def _from_counts(cls, counts: Mapping[str, int]) -> "QueryDistribution":
        from fractions import Fraction  # here, so a run that builds none never loads it

        total = sum(counts.values())
        return cls(weights={db: Fraction(count, total) for db, count in counts.items()})

    @classmethod
    def uniform(cls, databases: Sequence[str]) -> "QueryDistribution":
        if not databases:
            raise ValueError("at least one database is required")
        return cls._from_counts({db: 1 for db in databases})

    @classmethod
    def from_workload_lines(cls, lines: Iterable[str]) -> "QueryDistribution":
        """Empirical frequencies from (question_id, database_id) pairs."""
        counts: dict[str, int] = {}
        for lineno, raw in enumerate(lines, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = re.split(r"[,\s]+", line)
            if len(parts) < 2:
                raise ValueError(f"workload line {lineno} needs: question_id database_id")
            database_id = parts[1]
            counts[database_id] = counts.get(database_id, 0) + 1
        if not counts:
            raise ValueError("workload contains no entries")
        return cls._from_counts(counts)

    @classmethod
    def from_workload_file(cls, path: str | Path) -> "QueryDistribution":
        return cls.from_workload_lines(Path(path).read_text(encoding="utf-8").splitlines())


def allocate(
    databases: Sequence[str], distribution: QueryDistribution, n: int
) -> dict[str, int]:
    """Split a budget of n questions: floor of one each, remainder by
    largest-remainder rounding over the distribution weights (ties by id)."""
    unique = sorted(set(databases))
    if not unique:
        raise ValueError("at least one database is required")
    if n < len(unique):
        raise BudgetError(
            f"budget {n} cannot cover {len(unique)} databases with one question each"
        )
    extra_weight = set(distribution.weights) - set(unique)
    if extra_weight:
        raise ValueError(f"distribution covers unlisted databases: {sorted(extra_weight)}")
    missing = set(unique) - set(distribution.weights)
    if missing:
        raise ValueError(f"distribution lacks weights for: {sorted(missing)}")

    remainder_budget = n - len(unique)
    counts: dict[str, int] = {}
    remainders: list[tuple[float, str]] = []
    assigned = 0
    for db in unique:
        share = remainder_budget * distribution.weights[db]
        base = floor(share)
        counts[db] = 1 + base
        assigned += base
        remainders.append((share - base, db))
    seats = remainder_budget - assigned
    remainders.sort(key=lambda item: (-item[0], item[1]))
    for _, db in remainders[:seats]:
        counts[db] += 1
    return counts


_TEMPLATES = (
    "How many rows are in {table}?",
    "What is the count of each distinct {column} in {table}?",
    "List the first rows of {table} ordered by {column}.",
    "What are the distinct values of {column} in {table}?",
    "Which {column} appears most often in {table}?",
)


def _template_questions(schema: str) -> list[str]:
    """Every template filled with every table and its first column, in order."""
    slots = schema_tables(schema)
    return [
        template.format(table=table, column=column)
        for template in _TEMPLATES
        for table, column in slots
    ]


def generate_questions(
    database_id: str, schema: str, existing: Sequence[Question], k: int
) -> list[Question]:
    """Produce k distinct template questions that continue the existing set.

    Each question takes the first template text not yet in use; when all are
    in use, the first one is reused with a numeric uniqueness suffix.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    candidates = _template_questions(schema)
    if k and not candidates:
        raise SynthesisError(
            f"question generation failed for database {database_id!r}: "
            "schema contains no tables to generate questions from"
        )
    taken = {question.text for question in existing}
    prefix = f"syn-{database_id}-"
    next_number = (
        max(
            (int(q.id[len(prefix) :]) for q in existing if q.id.startswith(prefix)
             and q.id[len(prefix) :].isdigit()),
            default=0,
        )
        + 1
    )
    generated: list[Question] = []
    for _ in range(k):
        text = next((c for c in candidates if c not in taken), candidates[0])
        if text in taken:
            suffix = 2
            while f"{text} ({suffix})" in taken:
                suffix += 1
            text = f"{text} ({suffix})"
        question = Question(
            id=f"{prefix}{next_number:03d}",
            text=text,
            database_id=database_id,
            synthetic=True,
        )
        next_number += 1
        taken.add(text)
        generated.append(question)
    return generated


def synthesize_memory(
    questions: Sequence[Question],
    workspace: Workspace,
    store: MemoryStore,
    policy: Policy | None = None,
    provider: HashingEmbedder | None = None,
    config: EpisodeConfig | None = None,
) -> list[MemoryEntry]:
    """Explore each question offline and persist the structured trajectory;
    the stored entries, each with its directory as ``path``.

    Episodes use the restricted registry (SQL plus file and schema reading;
    no validation or memory tools); answers are never checked.
    Crashed episodes are logged and skipped. ``provider`` is not used:
    entries store no embedding.
    """
    policy = policy or ExplorerPolicy()
    config = config or EpisodeConfig(memory_enabled=False, composites_enabled=False)
    registry = build_explorer_registry(config, policy)
    entries: list[MemoryEntry] = []
    for question in questions:
        try:
            result = run_episode(question, workspace, config, policy, registry=registry)
            entry = MemoryEntry(
                question=question,
                structured=structure_trajectory(result.trajectory),
            )
            path = store.persist(entry, trajectory=result.trajectory)
            entries.append(
                MemoryEntry(question, entry.structured, entry.created_at, path, entry.counts_memo)
            )
        except Exception as exc:  # noqa: BLE001 - skip and continue per contract
            logger.warning("synthesis episode failed for %r: %s", question.id, exc)
    return entries
