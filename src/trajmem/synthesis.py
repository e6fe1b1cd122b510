"""Offline synthetic-question generation and trajectory synthesis.

A global question budget is spread over databases coverage-first (one per
database), with the remainder allocated by largest-remainder rounding over
the workload distribution. Each question is then explored by a restricted
offline agent and the resulting trajectory is classified, structured,
embedded, and persisted.
"""

from __future__ import annotations

import abc
import logging
import re
from dataclasses import dataclass
from math import floor
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .errors import BudgetError, SynthesisError
from .harness import EpisodeConfig, build_explorer_registry, run_episode
from .model import Question
from .policies import ExplorerPolicy, Policy
from .retrieval import EmbeddingProvider, HashingEmbedder
from .store import MemoryEntry, MemoryStore, structure_trajectory
from .tools import Workspace

logger = logging.getLogger(__name__)

_WEIGHT_TOLERANCE = 1e-9


@dataclass(frozen=True)
class QueryDistribution:
    """Normalized database weights derived from a workload."""

    weights: Mapping[str, float]

    def __post_init__(self) -> None:
        if any(weight < 0 for weight in self.weights.values()):
            raise ValueError("weights must be nonnegative")
        total = sum(self.weights.values())
        if abs(total - 1.0) > _WEIGHT_TOLERANCE:
            raise ValueError(f"weights must sum to 1, got {total}")

    @classmethod
    def uniform(cls, databases: Sequence[str]) -> "QueryDistribution":
        if not databases:
            raise ValueError("at least one database is required")
        count = len(set(databases))
        weight = 1.0 / count
        weights = {db: weight for db in set(databases)}
        # Absorb rounding drift into the lexicographically last database.
        last = sorted(weights)[-1]
        weights[last] = 1.0 - sum(w for db, w in weights.items() if db != last)
        return cls(weights=weights)

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
        total = sum(counts.values())
        weights = {db: count / total for db, count in counts.items()}
        last = sorted(weights)[-1]
        weights[last] = 1.0 - sum(w for db, w in weights.items() if db != last)
        return cls(weights=weights)

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


class QuestionGenerator(abc.ABC):
    """Port producing one new question text per call."""

    @abc.abstractmethod
    def generate(self, schema: str, knowledge: str, existing: Sequence[str]) -> str: ...


class TemplateGenerator(QuestionGenerator):
    """Deterministic generator filling operator/table/column slots in fixed order."""

    TEMPLATES = (
        "How many rows are in {table}?",
        "What is the count of each distinct {column} in {table}?",
        "List the first rows of {table} ordered by {column}.",
        "What are the distinct values of {column} in {table}?",
        "Which {column} appears most often in {table}?",
    )

    _TABLE = re.compile(r"CREATE TABLE (\w+)\s*\(([^;]*?)\)", re.IGNORECASE | re.DOTALL)

    def generate(self, schema: str, knowledge: str, existing: Sequence[str]) -> str:
        taken = set(existing)
        candidates: list[str] = []
        tables = self._TABLE.findall(schema)
        for template in self.TEMPLATES:
            for table, body in tables:
                columns = [
                    match.group(1)
                    for match in re.finditer(r"^\s*(\w+)\s+\w+", body, re.MULTILINE)
                ]
                column = columns[0] if columns else "rowid"
                candidates.append(template.format(table=table, column=column))
        for candidate in candidates:
            if candidate not in taken:
                return candidate
        if candidates:
            return candidates[0]
        raise SynthesisError("schema contains no tables to generate questions from")


_GENERATION_ATTEMPTS = 3


def generate_questions(
    database_id: str,
    schema: str,
    knowledge: str,
    existing: Sequence[Question],
    k: int,
    generator: QuestionGenerator,
) -> list[Question]:
    """Produce k distinct questions, feeding the growing set back for diversity.

    Exact duplicate texts are regenerated up to three attempts and then
    accepted with a numeric uniqueness suffix. Generator exceptions exhaust
    the same attempt budget before raising SynthesisError.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    texts = [question.text for question in existing]
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
        text: str | None = None
        failure: Exception | None = None
        for _ in range(_GENERATION_ATTEMPTS):
            try:
                candidate = generator.generate(schema, knowledge, texts)
            except Exception as exc:  # noqa: BLE001 - retried, reported below
                failure = exc
                continue
            failure = None
            text = candidate
            if candidate not in texts:
                break
        if text is None:
            raise SynthesisError(
                f"question generation failed for database {database_id!r}: {failure}"
            )
        if text in texts:
            suffix = 2
            while f"{text} ({suffix})" in texts:
                suffix += 1
            text = f"{text} ({suffix})"
        question = Question(
            id=f"{prefix}{next_number:03d}",
            text=text,
            database_id=database_id,
            synthetic=True,
        )
        next_number += 1
        texts.append(text)
        generated.append(question)
    return generated


def synthesize_memory(
    questions: Sequence[Question],
    workspace: Workspace,
    store: MemoryStore,
    policy: Policy | None = None,
    provider: EmbeddingProvider | None = None,
    config: EpisodeConfig | None = None,
) -> list[MemoryEntry]:
    """Explore each question offline and persist the structured trajectory.

    Episodes use the restricted registry (SQL plus file and schema reading;
    no validation or memory tools); answers are never checked.
    Crashed episodes are logged and skipped.
    """
    policy = policy or ExplorerPolicy()
    provider = provider or HashingEmbedder(store.dimension)
    config = config or EpisodeConfig(memory_enabled=False, composites_enabled=False)
    registry = build_explorer_registry(config, policy)
    entries: list[MemoryEntry] = []
    for question in questions:
        try:
            result = run_episode(question, workspace, config, policy, registry=registry)
            entry = MemoryEntry(
                question=question,
                database_id=question.database_id,
                structured=structure_trajectory(result.trajectory),
                embedding=provider.embed(question.text),
            )
            store.persist(entry, trajectory=result.trajectory)
            entries.append(entry)
        except Exception as exc:  # noqa: BLE001 - skip and continue per contract
            logger.warning("synthesis episode failed for %r: %s", question.id, exc)
    return entries
