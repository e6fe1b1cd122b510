"""Run records, execution accuracy, and the report table."""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from itertools import chain, islice
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

from .errors import ConfigurationError, StructuralError
from .model import REQUIRED, Fields, Trajectory, holding, read_fields

_REL_TOL = 1e-6
_ABS_TOL = 1e-9
_MAX_COLUMN_ORDERS = 40_320  # 8!: whole column orders tried before EX scores False


_RECORD_FIELDS: Fields = {
    "question_id": (REQUIRED, (str,), "a string"),
    "database_id": (REQUIRED, (str,), "a string"),
    "steps": (REQUIRED, (int,), "an int"),
    "input_tokens": (REQUIRED, (int,), "an int"),
    "output_tokens": (REQUIRED, (int,), "an int"),
    "wall_time_ms": (REQUIRED, (int,), "an int"),
    "phase_counts": ({}, holding(dict, int), "an object of ints"),
    "answer_rows": (None, (list, type(None)), "a list or null"),
    "correct": (None, (bool, type(None)), "a bool or null"),
}


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
    def from_dict(cls, data: Any) -> "RunRecord":
        """A record from its JSON object; ``StructuralError`` names a field
        that is missing or of the wrong type (a count must be an int, not a
        bool or a string, and ``correct`` a bool or null, as the string
        "false" would count as a correct answer)."""
        record = cls(*read_fields(data, _RECORD_FIELDS, StructuralError))
        record.phase_counts = dict(record.phase_counts)
        return record

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
            answer_rows=None if answer_rows is None else [
                list(map(_json_cell, row)) for row in answer_rows
            ],
            correct=correct,
        )


def _json_cell(cell: Any) -> Any:
    """A result cell as a record holds it: a blob as the text ``save_result``
    writes for it in the CSV, as JSON has no bytes."""
    return str(cell) if isinstance(cell, bytes) else cell


def load_run_records(run_dir: str | Path) -> list[RunRecord]:
    """The records under ``run_dir/records``, in file-name order;
    ``ConfigurationError`` names a file that holds no well-formed record."""
    records_dir = Path(run_dir) / "records"
    if not records_dir.is_dir():
        return []
    records = []
    for path in sorted(records_dir.glob("*.json")):
        try:
            records.append(RunRecord.from_dict(json.loads(path.read_text(encoding="utf-8"))))
        except (ValueError, StructuralError) as exc:
            raise ConfigurationError(f"run record {path} is malformed: {exc!r}") from exc
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


def _exact_form(row: Sequence[Any]) -> tuple[Any, ...]:
    """The row with each cell as the number or trimmed text it compares as.
    Rows of equal form are equal; tolerance can make rows of other forms
    equal too."""
    return tuple(
        str(cell).strip() if number is None else number
        for cell, number in zip(row, map(_as_float, row))
    )


def _multiset_match(predicted: list[list[Any]], gold: list[list[Any]]) -> bool:
    """True iff the rows pair off one to one under tolerant row equality.

    Tolerant equality is not transitive, so giving each predicted row the
    first free equal gold row can miss a pairing that exists. Each row
    instead searches for an augmenting path (Kuhn's algorithm), which finds
    a pairing whenever one exists. A row first tries the free gold rows of
    its exact form, so a correct answer in any row order costs one
    comparison per row.
    """
    owner: list[int | None] = [None] * len(gold)  # gold index -> predicted row
    # Exact form -> its gold rows, last in gold order first. A paired gold row
    # stays paired, so the ones found paired are dropped for good.
    by_form: dict[tuple[Any, ...], list[int]] = {}
    for index in reversed(range(len(gold))):
        by_form.setdefault(_exact_form(gold[index]), []).append(index)
    forms = [_exact_form(row) for row in predicted]

    def equal(row: int, index: int) -> bool:
        return _rows_equal(predicted[row], gold[index])

    def same_form(row: int) -> list[int]:
        indices = by_form.get(forms[row], [])
        while indices and owner[indices[-1]] is not None:
            indices.pop()
        return indices[-1:]

    return all(_augment(row, equal, owner, same_form) for row in range(len(predicted)))


def _augment(
    start: int,
    equal: Callable[[int, int], bool],
    owner: list[int | None],
    first: Callable[[int], list[int]] = lambda item: [],
) -> bool:
    """Breadth-first search for a path from predicted item ``start`` to a free
    gold item that alternates unpaired and paired ``equal`` edges; flip it if
    found. Each item looks at the free gold items first, those that ``first``
    names before the rest in gold order, so an answer already in gold order
    costs one comparison per item instead of one per earlier one.
    """
    reached_from: dict[int, int] = {}  # gold index -> predicted item
    queue = [start]
    for item in queue:
        index = next(
            (
                i
                for i in chain(first(item), range(len(owner)))
                if owner[i] is None and equal(item, i)
            ),
            None,
        )
        if index is not None:
            reached_from[index] = item
            while index is not None:  # each item on the path takes the next gold item
                item = reached_from[index]
                previous = None if item == start else owner.index(item)
                owner[index] = item
                index = previous
            return True
        for index, taken in enumerate(owner):
            if taken is not None and index not in reached_from and equal(item, index):
                reached_from[index] = item
                queue.append(taken)
    return False


def execution_accuracy(
    predicted_rows: Sequence[Sequence[Any]] | None,
    gold_rows: Sequence[Sequence[Any]],
) -> bool:
    """True iff some column permutation of the prediction matches the gold rows
    as multisets, with 1e-6 relative tolerance on numerics and trimmed text.
    At most 8! column orders are compared row by row."""
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
    # A column order can match only if each predicted column it puts under a
    # gold column matches that column on its own, so only orders built from
    # such pairs are tried (the pruning of test-suite-sql-eval's result_eq).
    @functools.cache
    def fit(column: int, index: int) -> bool:
        return _multiset_match([[row[column]] for row in predicted], [[row[index]] for row in gold])

    # Without one whole order of fitting columns, no column order matches.
    order: list[int | None] = [None] * width  # gold column -> predicted column
    if not all(_augment(column, fit, order) for column in range(width)):
        return False
    return any(
        _multiset_match([[row[i] for i in found] for row in predicted], gold)
        for found in islice(_column_orders(fit, order), _MAX_COLUMN_ORDERS)
    )


def _column_orders(
    fit: Callable[[int, int], bool], order: list[int | None], j: int = 0
) -> Iterator[list[int | None]]:
    """Every order of distinct predicted columns, each fitting its gold
    column, that keeps the first ``j`` columns of ``order``, itself one such
    order. A column put under gold column j is first made part of a whole
    order by an augmenting path for the gold column it leaves, so every
    branch entered ends in an order: the work grows with the orders yielded.
    """
    if j == len(order):
        yield order
        return
    for column in order[j:]:
        if column == order[j]:
            yield from _column_orders(fit, order, j + 1)
        elif fit(column, j):
            placed = list(order)
            placed[placed.index(column)], placed[j] = None, column
            if _augment(order[j], lambda item, index: index > j and fit(item, index), placed):
                yield from _column_orders(fit, placed, j + 1)


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
