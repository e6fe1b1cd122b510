from __future__ import annotations

from itertools import permutations
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trajmem.metrics as metrics_module
from trajmem.classifier import classify_trajectory
from trajmem.metrics import (
    RunRecord,
    execution_accuracy,
    report,
    report_dict,
)

from helpers import step, trajectory
from oracles import brute_force_execution_accuracy


def test_identical_tables_match():
    rows = [[1, "a"], [2, "b"]]
    assert execution_accuracy(rows, rows) is True


def test_column_permutation_matches():
    predicted = [["a", 1], ["b", 2]]
    gold = [[1, "a"], [2, "b"]]
    assert execution_accuracy(predicted, gold) is True


def test_row_order_is_ignored():
    predicted = [[2, "b"], [1, "a"]]
    gold = [[1, "a"], [2, "b"]]
    assert execution_accuracy(predicted, gold) is True


def test_ten_percent_numeric_error_fails():
    assert execution_accuracy([[1.1]], [[1.0]]) is False


def test_tiny_numeric_error_within_tolerance():
    assert execution_accuracy([[1.0000005]], [[1.0]]) is True
    assert execution_accuracy([[1.00001]], [[1.0]]) is False


def test_numeric_strings_compare_numerically():
    assert execution_accuracy([["36"]], [[36]]) is True


def test_text_compares_after_trimming():
    assert execution_accuracy([["  north "]], [["north"]]) is True
    assert execution_accuracy([["north"]], [["south"]]) is False


def test_missing_prediction_is_false():
    assert execution_accuracy(None, [[1]]) is False


def test_row_count_mismatch_is_false():
    assert execution_accuracy([[1]], [[1], [2]]) is False


def test_duplicate_rows_respect_multiset_counts():
    assert execution_accuracy([[1], [1], [2]], [[1], [2], [1]]) is True
    assert execution_accuracy([[1], [1]], [[1], [2]]) is False


def test_empty_result_sets_match():
    assert execution_accuracy([], []) is True


def test_tolerant_match_does_not_depend_on_row_order():
    # 1.0000008 is within tolerance of both gold values; 1.0 only of the first.
    gold = [[1.0], [1.0000015]]
    assert execution_accuracy([[1.0000008], [1.0]], gold) is True
    assert execution_accuracy([[1.0], [1.0000008]], gold) is True


# Values whose tolerant equality is not transitive, plus text and numeric text.
_CELLS = st.sampled_from([1.0, 1.0000008, 1.0000015, 2, "2", " a", "a"])


@st.composite
def _gold_and_prediction(draw, max_width):
    """A gold table and a prediction of the same shape."""
    width = draw(st.integers(1, max_width))
    rows = draw(st.integers(0, 4))
    cells = st.lists(_CELLS, min_size=width, max_size=width)
    gold = draw(st.lists(cells, min_size=rows, max_size=rows))
    predicted = draw(st.lists(cells, min_size=rows, max_size=rows))
    return gold, predicted


@settings(max_examples=300, deadline=None)
@given(_gold_and_prediction(max_width=2))
def test_ex_is_the_same_for_every_row_order_of_the_prediction(tables):
    gold, predicted = tables
    answers = {execution_accuracy(list(order), gold) for order in permutations(predicted)}
    assert len(answers) == 1


@settings(max_examples=300, deadline=None)
@given(_gold_and_prediction(max_width=4), st.data())
def test_ex_is_unchanged_by_permuting_prediction_columns(tables, data):
    gold, predicted = tables
    width = len(gold[0]) if gold else 1
    order = data.draw(st.permutations(range(width)))
    permuted = [[row[i] for i in order] for row in predicted]
    assert execution_accuracy(permuted, gold) == execution_accuracy(predicted, gold)


@settings(max_examples=300, deadline=None)
@given(_gold_and_prediction(max_width=5), st.data())
def test_ex_agrees_with_brute_force(tables, data):
    gold, predicted = tables
    # Half the time, a column order of the gold rows with one cell nudged.
    if gold and data.draw(st.booleans()):
        order = data.draw(st.permutations(range(len(gold[0]))))
        predicted = [[row[i] for i in order] for row in reversed(gold)]
        row = data.draw(st.integers(0, len(gold) - 1))
        predicted[row][data.draw(st.integers(0, len(order) - 1))] = data.draw(_CELLS)
    assert execution_accuracy(predicted, gold) == brute_force_execution_accuracy(predicted, gold)


def test_near_miss_tries_only_column_orders_built_from_matching_columns(monkeypatch):
    # 8 columns x 20 rows, the prediction's columns in another order and one
    # cell off: no column order matches, and all 8! of them used to be tried.
    gold = [[f"{column}-{row}" for column in range(8)] for row in range(20)]
    predicted = [list(reversed(row)) for row in gold]
    predicted[7][3] = "off"
    calls = []
    original = metrics_module._multiset_match
    monkeypatch.setattr(
        metrics_module, "_multiset_match",
        lambda predicted, gold: calls.append(len(gold[0])) or original(predicted, gold),
    )
    assert execution_accuracy(predicted, gold) is False
    assert len(calls) <= 8 * 8 + 1
    predicted[7][3] = gold[7][4]
    calls.clear()
    assert execution_accuracy(predicted, gold) is True
    assert calls.count(8) == 1 and len(calls) <= 8 * 8 + 1


@pytest.mark.parametrize("width", [9, 12])
def test_column_order_is_ignored_past_eight_columns(width):
    gold = [[f"{column}-{row}" for column in range(width)] for row in range(3)]
    predicted = [list(reversed(row)) for row in gold]
    assert execution_accuracy(predicted, gold) is True
    predicted[1][2] = "off"
    assert execution_accuracy(predicted, gold) is False


@st.composite
def _wide_gold(draw):
    """A gold table 9 to 12 columns wide, each column a copy of one of a few
    kinds. Cells of different kinds never compare equal, so a predicted
    column fits only gold columns holding the same cells, and every column
    order the search builds from fitting columns is a right one. Tables whose
    columns fit each other without being the same are left out: EX can
    score a right answer to them False (see the strict xfail below)."""
    width = draw(st.integers(9, 12))
    rows = draw(st.integers(1, 5))
    kinds = draw(st.integers(1, width))

    def cell(kind: int):
        base = 10 * kind + 1
        # Numbers, numeric text and a value within tolerance of ``base``.
        return st.sampled_from([base, base + 1, str(base), f" {base + 2} ", base * (1 + 5e-7)])

    columns = [draw(st.lists(cell(kind), min_size=rows, max_size=rows)) for kind in range(kinds)]
    picks = draw(st.lists(st.integers(0, kinds - 1), min_size=width, max_size=width))
    return [[columns[kind][row] for kind in picks] for row in range(rows)]


@settings(max_examples=100, deadline=None)
@given(_wide_gold(), st.data())
def test_ex_past_eight_columns_is_blind_to_row_and_column_order(gold, data):
    order = data.draw(st.permutations(range(len(gold[0]))))
    predicted = [[row[i] for i in order] for row in data.draw(st.permutations(gold))]
    assert execution_accuracy(predicted, gold) is True
    # A value found nowhere in the table can pair with no gold cell.
    row = data.draw(st.integers(0, len(gold) - 1))
    predicted[row][data.draw(st.integers(0, len(order) - 1))] = "absent"
    assert execution_accuracy(predicted, gold) is False


@pytest.mark.xfail(strict=True, reason="past 8 columns, EX stops after 8! fitting column "
                   "orders; here each 0/1 column fits most others, and the right order "
                   "is not among the first 8!")
def test_a_row_and_column_permutation_of_eleven_0_1_columns_matches():
    gold = [[0, 0, 0, 1, 1, 1, 0, 1, 1, 1, 1],
            [1, 1, 0, 0, 0, 0, 1, 1, 0, 1, 1],
            [1, 1, 1, 1, 1, 0, 0, 0, 1, 0, 0]]
    order = [3, 5, 7, 4, 9, 8, 10, 0, 2, 6, 1]
    predicted = [[gold[row][i] for i in order] for row in (1, 2, 0)]
    assert predicted == [[0, 0, 1, 0, 1, 0, 1, 1, 0, 1, 1],
                         [1, 0, 0, 1, 0, 1, 0, 1, 1, 0, 1],
                         [1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0]]
    assert execution_accuracy(predicted, gold) is True


def test_column_orders_tried_are_bounded(monkeypatch):
    # Ten columns that each hold one 1 and two 0s, so every predicted column
    # fits every gold column on its own and all 10! orders are candidates.
    # None matches: the 1s split 4-3-3 over the gold rows, 5-3-2 over the
    # predicted ones.
    def rows(*split):
        ones = [range(sum(split[:r]), sum(split[: r + 1])) for r in range(len(split))]
        return [[int(column in row) for column in range(10)] for row in ones]

    gold, predicted = rows(4, 3, 3), rows(5, 3, 2)
    calls = []
    original = metrics_module._multiset_match
    monkeypatch.setattr(
        metrics_module, "_multiset_match",
        lambda predicted, gold: calls.append(len(gold[0])) or original(predicted, gold),
    )
    assert execution_accuracy(predicted, gold) is False
    assert 0 < calls.count(10) <= factorial(8)


def test_column_search_stops_at_once_when_no_column_order_exists(monkeypatch):
    # One aggregate row of 12 columns: 11 zero columns fit every zero gold
    # column, but the last gold value fits no predicted column, so none of
    # the 11! orders of the zeros can end in a whole order.
    gold, predicted = [[0] * 11 + [5]], [[0] * 11 + [6]]
    calls = {"match": [], "augment": 0}
    match, augment = metrics_module._multiset_match, metrics_module._augment

    def counted_augment(*args):
        calls["augment"] += 1
        return augment(*args)

    monkeypatch.setattr(
        metrics_module, "_multiset_match",
        lambda predicted, gold: calls["match"].append(len(gold[0])) or match(predicted, gold),
    )
    monkeypatch.setattr(metrics_module, "_augment", counted_augment)
    assert execution_accuracy(predicted, gold) is False
    assert calls["match"].count(12) == 0 and len(calls["match"]) <= 12 * 12
    assert calls["augment"] <= 12 + len(calls["match"])
    predicted = [[5] + [0] * 11]
    calls["match"].clear()
    assert execution_accuracy(predicted, gold) is True
    assert calls["match"].count(12) == 1 and len(calls["match"]) <= 12 * 12 + 1


@pytest.mark.parametrize("width", [1, 3])
def test_a_correct_answer_in_reversed_row_order_costs_linear_comparisons(monkeypatch, width):
    gold = [[i, f"name {i}", i * 0.5][:width] for i in range(1500)]
    predicted = [list(row) for row in reversed(gold)]
    calls = []
    original = metrics_module._cells_equal
    monkeypatch.setattr(
        metrics_module, "_cells_equal", lambda a, b: calls.append(1) or original(a, b)
    )
    assert execution_accuracy(predicted, gold) is True
    # Each column fits its gold column once, then the whole rows match once.
    assert len(calls) <= 2 * len(gold) * width


def _record(qid, phases, steps=None, **kwargs):
    counts = {}
    for phase in phases:
        counts[phase] = counts.get(phase, 0) + 1
    defaults = dict(
        question_id=qid,
        database_id="db",
        steps=steps if steps is not None else len(phases),
        input_tokens=kwargs.pop("input_tokens", 100),
        output_tokens=kwargs.pop("output_tokens", 40),
        wall_time_ms=kwargs.pop("wall_time_ms", 10),
        phase_counts=counts,
        correct=kwargs.pop("correct", None),
    )
    return RunRecord(**defaults)


def test_run_record_from_trajectory_counts_match():
    t = classify_trajectory(
        trajectory(
            [
                step(0, tools=("get_ddl",), action="get_ddl()"),
                step(1, tools=("sql_execute",), action='sql_execute(query="SELECT 1")'),
            ]
        )
    )
    record = RunRecord.from_trajectory(t, answer_rows=[[1]], correct=True)
    assert record.steps == 2
    assert sum(record.phase_counts.values()) == 2
    restored = RunRecord.from_dict(record.to_dict())
    assert restored == record


def test_report_ex_percentage():
    records = [
        _record("q1", ["execution"], correct=True),
        _record("q2", ["execution"], correct=True),
        _record("q3", ["execution"], correct=False),
        _record("q4", ["execution"], correct=False),
    ]
    text = report(records)
    assert "50.0" in text


def test_report_delta_against_baseline():
    current = [
        _record("q1", [], steps=15),
        _record("q2", [], steps=16, input_tokens=100),
    ]
    # current avg 15.5; craft baseline avg exactly 4.37 higher: 19.87.
    baseline = [
        _record("q1", [], steps=19),
        _record("q2", [], steps=20),
    ]
    baseline[1].steps = 20
    data = report_dict(current, baseline)
    assert data["current"]["avg_steps"] == 15.5
    assert data["baseline"]["avg_steps"] == 19.5
    assert data["deltas"]["avg_steps"] == pytest.approx(4.0)
    text = report(current, baseline)
    assert "+4.00" in text


def test_report_baseline_delta_has_two_decimal_rounding():
    # Averages 15.99 and 20.36 differ by exactly +4.37 on the baseline row.
    current = [_record("a", [], steps=15), _record("b", [], steps=16), _record("c", [], steps=16), _record("d", [], steps=17)]
    for record, steps in zip(current, (15, 16, 16, 17)):
        record.steps = steps
    baseline = [_record("e", [], steps=20), _record("f", [], steps=20), _record("g", [], steps=20), _record("h", [], steps=21)]
    current_avg = sum(r.steps for r in current) / 4
    baseline_avg = sum(r.steps for r in baseline) / 4
    data = report_dict(current, baseline)
    assert data["deltas"]["avg_steps"] == pytest.approx(
        round(baseline_avg - current_avg, 2)
    )
    assert "+" in report(current, baseline)


def test_report_without_baseline_uses_dashes():
    text = report([_record("q1", [], steps=3)])
    assert text.count("-") > 10  # delta columns dashed
    assert "baseline" not in text


def test_report_unscored_records_have_no_ex():
    data = report_dict([_record("q1", [], steps=3)])
    assert data["current"]["ex_percent"] is None


def test_report_is_pure():
    records = [_record("q1", ["execution"], correct=True)]
    assert report(records) == report(records)
