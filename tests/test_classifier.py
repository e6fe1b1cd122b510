from __future__ import annotations

import dataclasses
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trajmem.classifier as classifier_module
from trajmem.classifier import (
    DEFAULT_RULE_TABLE,
    ClassifierRule,
    RuleTable,
    Segment,
    classification_text,
    classify_step,
    classify_trajectory,
    parse_rule_lines,
    segment_trajectory,
)
from trajmem.errors import StateError, StructuralError
from trajmem.model import Phase

from helpers import step, trajectory


def test_file_read_step_is_exploration():
    s = step(0, tools=("read_file",), action='read_file(path="dbs/flights/knowledge.md")')
    assert classify_step(s) is Phase.EXPLORATION


def test_cte_sql_is_execution():
    s = step(
        0,
        tools=("sql_execute",),
        action='sql_execute(query="WITH t AS (SELECT 1 AS v) SELECT v FROM t")',
    )
    assert classify_step(s) is Phase.EXECUTION


def test_validation_tool_is_validation():
    s = step(0, tools=("validate_result",), action="validate_result()")
    assert classify_step(s) is Phase.VALIDATION


def test_probe_with_small_limit_is_exploration():
    s = step(
        0,
        tools=("sql_execute",),
        action='sql_execute(query="SELECT * FROM flights LIMIT 5")',
    )
    assert classify_step(s) is Phase.EXPLORATION


def test_large_limit_is_not_a_probe():
    s = step(
        0,
        tools=("sql_execute",),
        action='sql_execute(query="SELECT * FROM flights LIMIT 50")',
    )
    assert classify_step(s) is Phase.EXECUTION


def test_multi_clause_outranks_probe_limit():
    s = step(
        0,
        tools=("sql_execute",),
        action=(
            'sql_execute(query="SELECT origin, COUNT(*) AS c FROM flights '
            'GROUP BY origin ORDER BY c DESC LIMIT 1")'
        ),
    )
    assert classify_step(s) is Phase.EXECUTION


def test_composite_name_matches_exploration_rule():
    s = step(
        0,
        tools=("get_ext_then_get_ddl",),
        action="get_ext_then_get_ddl(database='flights')",
    )
    assert classify_step(s) is Phase.EXPLORATION


def test_unmatched_tool_step_gets_default():
    s = step(0, tools=("mystery_tool",), action="mystery_tool()")
    assert classify_step(s) is DEFAULT_RULE_TABLE.default is Phase.EXECUTION


def test_five_step_fixture_phases():
    # Hand-derived from the shipped table: ddl fetch, probe, CTE, reasoning
    # carry-forward, validation.
    t = trajectory(
        [
            step(0, tools=("get_ddl",), action="get_ddl(database='db')"),
            step(
                1,
                tools=("sql_execute",),
                action='sql_execute(query="SELECT * FROM t LIMIT 5")',
            ),
            step(
                2,
                tools=("sql_execute",),
                action='sql_execute(query="WITH c AS (SELECT 1 AS v) SELECT v FROM c")',
            ),
            step(3, action="", thought="the numbers look plausible"),
            step(4, tools=("validate_result",), action="validate_result()"),
        ]
    )
    classified = classify_trajectory(t)
    assert [s.phase for s in classified.steps] == [
        Phase.EXPLORATION,
        Phase.EXPLORATION,
        Phase.EXECUTION,
        Phase.EXECUTION,
        Phase.VALIDATION,
    ]


def test_reasoning_step_inherits_previous_phase():
    t = trajectory(
        [
            step(0, tools=("sql_execute",), action='sql_execute(query="SELECT 1")'),
            step(1, action="", thought="just thinking"),
        ]
    )
    classified = classify_trajectory(t)
    assert classified.steps[1].phase is Phase.EXECUTION


def test_first_reasoning_step_defaults_to_exploration():
    t = trajectory([step(0, action="", thought="let me plan")])
    assert classify_trajectory(t).steps[0].phase is Phase.EXPLORATION


def test_all_exploration_trajectory_is_uniform():
    t = trajectory(
        [
            step(0, tools=("get_ext",), action="get_ext()"),
            step(1, tools=("get_ddl",), action="get_ddl()"),
            step(2, tools=("read_file",), action="read_file(path='x')"),
        ]
    )
    assert all(s.phase is Phase.EXPLORATION for s in classify_trajectory(t).steps)


def test_classify_trajectory_does_not_mutate_input():
    t = trajectory([step(0, tools=("get_ddl",))])
    classify_trajectory(t)
    assert t.steps[0].phase is None


def test_classify_step_is_position_independent():
    base = step(0, tools=("get_ddl",), action="get_ddl()")
    moved = step(9, tools=("get_ddl",), action="get_ddl()")
    assert classify_step(base) is classify_step(moved)


def test_classification_is_total_over_random_steps():
    rng = random.Random(11)
    fragments = ["SELECT 1", "WITH x AS (SELECT 1) SELECT 1", "", "hello", "PRAGMA foo"]
    tools = [(), ("get_ddl",), ("sql_execute",), ("save_result",), ("oddball",)]
    steps = [
        step(i, tools=rng.choice(tools), action=rng.choice(fragments))
        for i in range(60)
    ]
    classified = classify_trajectory(trajectory(steps))
    assert all(s.phase is not None for s in classified.steps)


def test_segment_basic_runs():
    t = trajectory([step(i) for i in range(4)])
    for s, phase in zip(
        t.steps, [Phase.EXPLORATION, Phase.EXPLORATION, Phase.EXECUTION, Phase.VALIDATION]
    ):
        s.phase = phase
    assert segment_trajectory(t) == [
        Segment(Phase.EXPLORATION, 0, 1),
        Segment(Phase.EXECUTION, 2, 2),
        Segment(Phase.VALIDATION, 3, 3),
    ]


def test_segment_alternation_gives_singletons():
    t = trajectory([step(i) for i in range(4)])
    phases = [Phase.EXPLORATION, Phase.EXECUTION, Phase.EXPLORATION, Phase.EXECUTION]
    for s, phase in zip(t.steps, phases):
        s.phase = phase
    segments = segment_trajectory(t)
    assert len(segments) == 4
    assert all(seg.start == seg.end for seg in segments)


def test_segment_uniform_is_single_run():
    t = trajectory([step(i) for i in range(3)])
    for s in t.steps:
        s.phase = Phase.EXECUTION
    assert segment_trajectory(t) == [Segment(Phase.EXECUTION, 0, 2)]


def test_segments_cover_indices_exactly():
    rng = random.Random(3)
    t = trajectory([step(i) for i in range(25)])
    for s in t.steps:
        s.phase = rng.choice(list(Phase))
    segments = segment_trajectory(t)
    covered = [i for seg in segments for i in range(seg.start, seg.end + 1)]
    assert covered == list(range(25))


def test_segment_rejects_unclassified_steps():
    t = trajectory([step(0)])
    with pytest.raises(StateError):
        segment_trajectory(t)


def test_rule_table_requires_unique_priorities():
    rule = ClassifierRule(id="a", target=Phase.EXECUTION, pattern="x", priority=1)
    clash = ClassifierRule(id="b", target=Phase.EXPLORATION, pattern="y", priority=1)
    with pytest.raises(StructuralError):
        RuleTable(rules=(rule, clash))


def test_rule_table_rejects_bad_pattern():
    rule = ClassifierRule(id="a", target=Phase.EXECUTION, pattern="(", priority=1)
    with pytest.raises(StructuralError):
        RuleTable(rules=(rule,))


def test_parse_rule_lines_round_trip():
    table = parse_rule_lines(
        [
            "# comment",
            "10 v validate_result",
            "20 exploration get_ddl",
            "",
            "30 x sql_execute",
        ]
    )
    assert [rule.target for rule in table.rules] == [
        Phase.VALIDATION,
        Phase.EXPLORATION,
        Phase.EXECUTION,
    ]
    s = step(0, tools=("get_ddl",), action="get_ddl()")
    assert classify_step(s, table) is Phase.EXPLORATION


def test_parse_rule_lines_rejects_malformed():
    with pytest.raises(StructuralError):
        parse_rule_lines(["10 exploration"])


def test_each_table_keeps_a_bounded_memo_of_its_own():
    table = parse_rule_lines(["10 e get_", "20 x sql"])
    assert table._first_rule.cache_info().maxsize == classifier_module._CLASSIFY_MEMO_SIZE
    for number in range(classifier_module._CLASSIFY_MEMO_SIZE + 10):
        assert classify_step(step(0, action=f"sql {number}"), table) is Phase.EXECUTION
    assert table._first_rule.cache_info().currsize == classifier_module._CLASSIFY_MEMO_SIZE
    assert DEFAULT_RULE_TABLE._first_rule is not table._first_rule


def test_parse_rule_lines_rejects_a_pattern_that_does_not_compile():
    with pytest.raises(StructuralError, match="does not compile"):
        parse_rule_lines(["10 x sql_execute", "20 e (unclosed"])


# -- equivalence with matching each rule's pattern text in priority order -----

_PATTERNS = [rule.pattern for rule in DEFAULT_RULE_TABLE.rules] + [
    r"get_",
    r"(?i)\bfrom\b",
    r"x|y",
    r"^save",
    r"\d{2,}",
    r"[\s\S]",
    r"zz_never",
]
_TOOLS = ["get_ddl", "get_ext", "sql_execute", "save_result", "validate_result",
          "read_file", "get_ext_then_get_ddl", "oddball"]
_ACTIONS = ["", "SELECT 1", "select a from t limit 5", "WITH x AS (SELECT 1) SELECT 1",
            "SELECT a FROM t JOIN u GROUP BY a", "PRAGMA table_info(t)", "hello 42",
            "final_answer('x')", "save it"]


@st.composite
def _rule_tables(draw):
    if draw(st.booleans()):
        return DEFAULT_RULE_TABLE
    priorities = draw(st.lists(st.integers(0, 999), min_size=1, max_size=8, unique=True))
    return parse_rule_lines(
        f"{priority} {draw(st.sampled_from('exv'))} {draw(st.sampled_from(_PATTERNS))}"
        for priority in priorities
    )


@st.composite
def _steps(draw):
    actions = draw(st.lists(st.sampled_from(_ACTIONS) | st.text(max_size=12), max_size=3))
    return step(
        0,
        tools=tuple(draw(st.lists(st.sampled_from(_TOOLS), max_size=3))),
        action="\n".join(actions),
    )


def _reference_rule(s, table):
    text = classification_text(s)
    for rule in sorted(table.rules, key=lambda rule: rule.priority):
        if re.search(rule.pattern, text):
            return rule
    return None


_NEXT_PHASE = {Phase.EXPLORATION: Phase.EXECUTION, Phase.EXECUTION: Phase.VALIDATION,
               Phase.VALIDATION: Phase.EXPLORATION}


def _rotated(table):
    """The same patterns in the same order, every phase moved on by one, so
    each text has another answer than under ``table``."""
    return RuleTable(
        rules=tuple(dataclasses.replace(r, target=_NEXT_PHASE[r.target]) for r in table.rules),
        default=_NEXT_PHASE[table.default],
    )


@settings(max_examples=200, deadline=None)
@given(_rule_tables(), st.lists(_steps(), max_size=8))
def test_classification_equals_searching_each_pattern_in_priority_order(table, steps):
    # Each table classifies every text twice, around a table that holds the
    # same patterns with other phases, so an answer kept for a text is
    # neither lost nor seen by another table.
    tables = (table, _rotated(table), table)
    for s in steps:
        for each in tables:
            rule = _reference_rule(s, each)
            assert classify_step(s, each) is (rule.target if rule else each.default)

    t = trajectory([dataclasses.replace(s, index=i) for i, s in enumerate(steps)])
    t.final_answer, t.wall_time_ms = "answer", 7
    for each in tables:
        expected, previous = [], None
        for s in t.steps:
            rule = _reference_rule(s, each)
            if rule is not None:
                phase = rule.target
            elif s.invocations:
                phase = each.default
            else:
                phase = previous or Phase.EXPLORATION
            expected.append(dataclasses.replace(s, phase=phase))
            previous = phase
        classified = classify_trajectory(t, each)
        assert classified == dataclasses.replace(t, steps=expected)
    assert all(s.phase is None for s in t.steps)
