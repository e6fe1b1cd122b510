"""Run records, execution accuracy, stage composition, and the report table."""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Sequence

from .errors import StructuralError
from .model import Phase, Trajectory

_REL_TOL = 1e-6
_ABS_TOL = 1e-9
_MAX_PERMUTED_COLUMNS = 8


@dataclass
class RunRecord:
    """Per-question episode stats plus the scored answer."""

    question_id: str
    database_id: str
    steps: int
    input_tokens: int
    output_tokens: int
    wall_time_ms: int
    phase_counts: dict[str, int] = field(default_factory=dict)
    answer_rows: list[list[Any]] | None = None
    correct: bool | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "question_id": self.question_id,
            "database_id": self.database_id,
            "steps": self.steps,
            "input_tokens": self.input_tokens,
            "output_tokens": self.output_tokens,
            "wall_time_ms": self.wall_time_ms,
            "phase_counts": dict(self.phase_counts),
            "answer_rows": self.answer_rows,
            "correct": self.correct,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RunRecord":
        return cls(
            question_id=data["question_id"],
            database_id=data["database_id"],
            steps=int(data["steps"]),
            input_tokens=int(data["input_tokens"]),
            output_tokens=int(data["output_tokens"]),
            wall_time_ms=int(data["wall_time_ms"]),
            phase_counts={k: int(v) for k, v in data.get("phase_counts", {}).items()},
            answer_rows=data.get("answer_rows"),
            correct=data.get("correct"),
        )

    @classmethod
    def from_trajectory(
        cls,
        trajectory: Trajectory,
        answer_rows: Sequence[Sequence[Any]] | None,
        correct: bool | None,
    ) -> "RunRecord":
        counts: dict[str, int] = {}
        for step in trajectory.steps:
            if step.phase is not None:
                counts[step.phase.value] = counts.get(step.phase.value, 0) + 1
        return cls(
            question_id=trajectory.question_id,
            database_id=trajectory.database_id,
            steps=len(trajectory.steps),
            input_tokens=trajectory.input_tokens,
            output_tokens=trajectory.output_tokens,
            wall_time_ms=trajectory.wall_time_ms,
            phase_counts=counts,
            answer_rows=[list(row) for row in answer_rows] if answer_rows is not None else None,
            correct=correct,
        )


def load_run_records(run_dir: str | Path) -> list[RunRecord]:
    records_dir = Path(run_dir) / "records"
    if not records_dir.is_dir():
        return []
    records = []
    for path in sorted(records_dir.glob("*.json")):
        records.append(RunRecord.from_dict(json.loads(path.read_text(encoding="utf-8"))))
    return records


# -- execution accuracy --------------------------------------------------------


def _as_float(cell: Any) -> float | None:
    if isinstance(cell, bool):
        return None
    if isinstance(cell, (int, float)):
        return float(cell)
    if isinstance(cell, str):
        try:
            return float(cell.strip())
        except ValueError:
            return None
    return None


def _cells_equal(a: Any, b: Any) -> bool:
    fa, fb = _as_float(a), _as_float(b)
    if fa is not None and fb is not None:
        return math.isclose(fa, fb, rel_tol=_REL_TOL, abs_tol=_ABS_TOL)
    if (fa is None) != (fb is None):
        return False
    return str(a).strip() == str(b).strip()


def _rows_equal(a: Sequence[Any], b: Sequence[Any]) -> bool:
    return len(a) == len(b) and all(_cells_equal(x, y) for x, y in zip(a, b))


def _multiset_match(predicted: list[list[Any]], gold: list[list[Any]]) -> bool:
    """True iff the rows pair off one to one under tolerant row equality.

    Tolerant equality is not transitive, so giving each predicted row the
    first free equal gold row can miss a pairing that exists. Each row
    instead searches for an augmenting path (Kuhn's algorithm), which finds
    a pairing whenever one exists.
    """
    owner: list[int | None] = [None] * len(gold)  # gold index -> predicted row
    return all(_augment(row, predicted, gold, owner) for row in range(len(predicted)))


def _augment(
    start: int, predicted: list[list[Any]], gold: list[list[Any]], owner: list[int | None]
) -> bool:
    """Breadth-first search for a path from ``start`` to a free gold row
    that alternates unpaired and paired edges; flip it if found.

    Each row looks at the free gold rows first and compares a paired gold
    row only when no free one is equal, so an answer already in gold order
    costs one comparison per row instead of one per earlier row.
    """
    reached_from: dict[int, int] = {}  # gold index -> predicted row
    queue = [start]
    for row in queue:
        index = next(
            (i for i, taken in enumerate(owner)
             if taken is None and _rows_equal(predicted[row], gold[i])),
            None,
        )
        if index is not None:
            reached_from[index] = row
            while index is not None:  # each row on the path takes the next gold row
                row = reached_from[index]
                previous = None if row == start else owner.index(row)
                owner[index] = row
                index = previous
            return True
        for index, taken in enumerate(owner):
            if taken is not None and index not in reached_from and _rows_equal(
                predicted[row], gold[index]
            ):
                reached_from[index] = row
                queue.append(taken)
    return False


def execution_accuracy(
    predicted_rows: Sequence[Sequence[Any]] | None,
    gold_rows: Sequence[Sequence[Any]],
) -> bool:
    """True iff some column permutation of the prediction matches the gold rows
    as multisets, with 1e-6 relative tolerance on numerics and trimmed text."""
    if predicted_rows is None:
        return False
    predicted = [list(row) for row in predicted_rows]
    gold = [list(row) for row in gold_rows]
    if len(predicted) != len(gold):
        return False
    if not gold:
        return True
    width = len(gold[0])
    if any(len(row) != width for row in gold) or any(len(row) != width for row in predicted):
        return False
    if width > _MAX_PERMUTED_COLUMNS:
        return _multiset_match(predicted, gold)
    # A column order can match only if each predicted column it puts under a
    # gold column matches that column on its own, so only orders built from
    # such pairs are tried (the pruning of test-suite-sql-eval's result_eq).
    return any(
        _multiset_match([[row[i] for i in order] for row in predicted], gold)
        for order in _column_orders(predicted, gold, {})
    )


def _column_orders(
    predicted: list[list[Any]],
    gold: list[list[Any]],
    fits: dict[tuple[int, int], bool],
    chosen: tuple[int, ...] = (),
) -> Iterator[tuple[int, ...]]:
    """Every order of distinct predicted columns whose j-th column matches
    gold column j on its own. ``fits`` keeps each (predicted, gold) column
    pair's match, so no pair is compared twice."""
    width, j = len(gold[0]), len(chosen)
    if j == width:
        yield chosen
        return
    for i in range(width):
        if i in chosen:
            continue
        if (i, j) not in fits:
            fits[i, j] = _multiset_match([[row[i]] for row in predicted], [[row[j]] for row in gold])
        if fits[i, j]:
            yield from _column_orders(predicted, gold, fits, chosen + (i,))


# -- stage composition -----------------------------------------------------------


@dataclass
class StageComposition:
    """Per-run phase step counts and per-phase medians across runs."""

    per_run: dict[str, dict[str, int]]
    medians: dict[str, float]


def stage_composition(records: Sequence[RunRecord]) -> StageComposition:
    if not records:
        return StageComposition(per_run={}, medians={})
    per_run: dict[str, dict[str, int]] = {}
    for record in records:
        counts = {phase.value: record.phase_counts.get(phase.value, 0) for phase in Phase}
        if sum(counts.values()) != record.steps:
            raise StructuralError(
                f"phase counts for {record.question_id!r} sum to "
                f"{sum(counts.values())}, not {record.steps}"
            )
        per_run[record.question_id] = counts
    medians = {
        phase.value: float(
            statistics.median(counts[phase.value] for counts in per_run.values())
        )
        for phase in Phase
    }
    return StageComposition(per_run=per_run, medians=medians)


# -- report ----------------------------------------------------------------------


def _aggregate(records: Sequence[RunRecord]) -> dict[str, Any]:
    n = len(records)
    scored = [r for r in records if r.correct is not None]
    ex_percent = (
        round(100.0 * sum(1 for r in scored if r.correct) / len(scored), 1)
        if scored
        else None
    )
    total_steps = sum(r.steps for r in records)
    return {
        "n": n,
        "ex_percent": ex_percent,
        "total_steps": total_steps,
        "avg_steps": round(total_steps / n, 2) if n else 0.0,
        "avg_input_tokens": round(sum(r.input_tokens for r in records) / n, 1) if n else 0.0,
        "avg_output_tokens": round(sum(r.output_tokens for r in records) / n, 1) if n else 0.0,
        "avg_latency_ms": round(sum(r.wall_time_ms for r in records) / n, 1) if n else 0.0,
    }


def report_dict(
    records: Sequence[RunRecord],
    baseline: Sequence[RunRecord] | None = None,
    label: str = "current",
    baseline_label: str = "baseline",
) -> dict[str, Any]:
    """Machine-readable report; deltas are baseline minus current."""
    current = _aggregate(records)
    result: dict[str, Any] = {"label": label, "current": current}
    if baseline is not None:
        base = _aggregate(baseline)
        deltas: dict[str, Any] = {}
        for key in ("ex_percent", "avg_steps", "avg_input_tokens", "avg_latency_ms"):
            if base.get(key) is None or current.get(key) is None:
                deltas[key] = None
            else:
                deltas[key] = round(base[key] - current[key], 2)
        result["baseline_label"] = baseline_label
        result["baseline"] = base
        result["deltas"] = deltas
    return result


def _fmt(value: Any, spec: str = "") -> str:
    if value is None:
        return "-"
    return format(value, spec) if spec else str(value)


def _signed(value: Any) -> str:
    if value is None:
        return "-"
    return f"{value:+.2f}"


def report(
    records: Sequence[RunRecord],
    baseline: Sequence[RunRecord] | None = None,
    label: str = "current",
    baseline_label: str = "baseline",
) -> str:
    """Formatted metrics table; delta columns are dashed without a baseline."""
    data = report_dict(records, baseline, label=label, baseline_label=baseline_label)
    header = (
        f"{'method':<14} {'n':>4} {'EX%':>6} {'dEX':>8} {'steps':>7} {'avg':>7} "
        f"{'dsteps':>8} {'in_toks':>9} {'out_toks':>9} {'d_in':>9} "
        f"{'latency_ms':>11} {'d_t':>8}"
    )
    lines = [header, "-" * len(header)]

    def row(name: str, agg: dict[str, Any], deltas: dict[str, Any] | None) -> str:
        d = deltas or {}
        return (
            f"{name:<14} {agg['n']:>4} {_fmt(agg['ex_percent'], '.1f'):>6} "
            f"{_signed(d.get('ex_percent')) if deltas is not None else '-':>8} "
            f"{agg['total_steps']:>7} {agg['avg_steps']:>7.2f} "
            f"{_signed(d.get('avg_steps')) if deltas is not None else '-':>8} "
            f"{agg['avg_input_tokens']:>9.1f} {agg['avg_output_tokens']:>9.1f} "
            f"{_signed(d.get('avg_input_tokens')) if deltas is not None else '-':>9} "
            f"{agg['avg_latency_ms']:>11.1f} "
            f"{_signed(d.get('avg_latency_ms')) if deltas is not None else '-':>8}"
        )

    lines.append(row(label, data["current"], None))
    if baseline is not None:
        lines.append(row(baseline_label, data["baseline"], data["deltas"]))
    return "\n".join(lines)
