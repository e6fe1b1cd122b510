from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajmem.errors import StructuralError, TrajmemError
from trajmem.metrics import RunRecord
from trajmem.model import (
    Phase,
    Question,
    Step,
    ToolInvocation,
    ToolParam,
    ToolSpec,
    Trajectory,
    append_step,
    count_tokens,
)
from trajmem.policies import PolicyDecision, QuestionScript

from helpers import step, trajectory


def test_count_tokens_empty():
    assert count_tokens("") == 0


def test_count_tokens_exact_multiple():
    assert count_tokens("abcd") == 1


def test_count_tokens_rounds_up():
    assert count_tokens("abcdefghi") == 3  # ceil(9 / 4)


def test_count_tokens_uses_utf8_bytes():
    assert count_tokens("éé") == 1  # two 2-byte chars -> 4 bytes


def test_append_to_empty_trajectory():
    t = Trajectory(question_id="q", database_id="db")
    append_step(t, Step(index=0, thought="start"))
    assert len(t.steps) == 1


def test_append_extends_in_order():
    t = trajectory([step(0), step(1), step(2)])
    append_step(t, step(3))
    assert [s.index for s in t.steps] == [0, 1, 2, 3]


def test_append_index_mismatch_raises():
    t = trajectory([step(0), step(1), step(2)])
    with pytest.raises(StructuralError):
        append_step(t, step(5))


def test_append_updates_token_counters():
    t = Trajectory(question_id="q", database_id="db")
    append_step(
        t, Step(index=0, thought="abcd", action_code="efgh", observation="ijklmnop")
    )
    assert t.output_tokens == 2  # ceil(4/4) + ceil(4/4)
    assert t.input_tokens == 2  # ceil(8/4)


def test_token_counters_monotonic_under_random_appends():
    rng = random.Random(7)
    t = Trajectory(question_id="q", database_id="db")
    previous = (0, 0)
    for index in range(50):
        text = "x" * rng.randrange(0, 30)
        append_step(
            t,
            Step(index=index, thought=text, action_code=text, observation=text),
        )
        current = (t.input_tokens, t.output_tokens)
        assert current[0] >= previous[0] and current[1] >= previous[1]
        previous = current


def test_serialization_round_trip():
    t = trajectory(
        [
            step(0, tools=("get_ddl",), thought="look", observation="CREATE TABLE x"),
            step(1, action="sql_execute(query='SELECT 1')", thought="run"),
        ]
    )
    t.final_answer = "done"
    t.steps[0].phase = Phase.EXPLORATION
    t.steps[1].phase = Phase.EXECUTION
    restored = Trajectory.from_json(t.to_json())
    assert restored == t


def test_deserialization_rejects_non_contiguous_indices():
    t = trajectory([step(0), step(1)])
    data = t.to_dict()
    data["steps"][1]["index"] = 4
    with pytest.raises(StructuralError):
        Trajectory.from_dict(data)


def test_tool_spec_rejects_duplicate_params():
    with pytest.raises(StructuralError):
        ToolSpec("t", params=(ToolParam("a"), ToolParam("a")))


def test_phase_parse_round_trip():
    for phase in Phase:
        assert Phase.parse(phase.value) is phase
    with pytest.raises(ValueError):
        Phase.parse("unknown")


@pytest.mark.parametrize(
    "step_fields, invocation_fields",
    [
        ({"index": "0"}, {}),
        ({"index": 0.0}, {}),
        ({"index": False}, {}),
        ({"thought": 7}, {}),
        ({"action_code": 5}, {}),
        ({"observation": 3}, {}),
        ({}, {"tool_name": 9}),
        ({}, {"output": 1}),
        ({}, {"args": ["a"]}),
        ({}, {"args": {"a": 1}}),
        ({}, {"succeeded": "false"}),
        ({}, {"succeeded": 0}),
    ],
)
def test_deserialization_rejects_a_field_of_the_wrong_type(step_fields, invocation_fields):
    data = trajectory([step(0, tools=("get_ddl",), observation="CREATE TABLE x")]).to_dict()
    data["steps"][0].update(step_fields)
    data["steps"][0]["invocations"][0].update(invocation_fields)
    with pytest.raises(StructuralError):
        Trajectory.from_dict(data)


@pytest.mark.parametrize(
    "fields",
    [
        {"question_id": 7},
        {"database_id": ["db1"]},
        {"final_answer": 3},
        {"input_tokens": True},
        {"output_tokens": "12"},
        {"wall_time_ms": 1.9},
        {"question_id": 7, "final_answer": 3, "input_tokens": True,
         "output_tokens": "12", "wall_time_ms": 1.9},
    ],
)
def test_deserialization_rejects_a_trajectory_field_of_the_wrong_type(fields):
    data = trajectory([step(0, tools=("get_ddl",))]).to_dict()
    data.update(fields)
    with pytest.raises(StructuralError):
        Trajectory.from_dict(data)


def test_deserialization_keeps_a_null_final_answer_and_absent_counts():
    data = trajectory([step(0)]).to_dict()
    for name in ("final_answer", "input_tokens", "output_tokens", "wall_time_ms"):
        del data[name]
    restored = Trajectory.from_dict(data)
    assert restored.final_answer is None
    assert (restored.input_tokens, restored.output_tokens, restored.wall_time_ms) == (0, 0, 0)


# Every field name of the objects read below, so drawn objects often hold
# the fields their reader looks for, at any depth.
_FIELD_NAMES = [
    "id", "text", "database_id", "synthetic", "question_id", "steps", "final_answer",
    "input_tokens", "output_tokens", "wall_time_ms", "index", "thought", "action_code",
    "invocations", "observation", "phase", "tool_name", "args", "output", "succeeded",
    "phase_counts", "answer_rows", "correct", "probes", "main_sql", "answer", "check",
    "refine",
]
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.sampled_from(["", "q1", "flights", "exploration", "done"])
    | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.sampled_from(_FIELD_NAMES) | st.text(max_size=3), children, max_size=6),
    max_leaves=16,
)


@pytest.mark.parametrize(
    "read",
    [Question.from_dict, ToolInvocation.from_dict, Step.from_dict, Trajectory.from_dict,
     RunRecord.from_dict, QuestionScript.from_dict, PolicyDecision.from_dict],
    ids=lambda read: read.__qualname__,
)
@settings(max_examples=150, deadline=None)
@given(data=_JSON_VALUES)
def test_a_reader_of_any_json_value_returns_or_raises_a_checked_error(read, data):
    try:
        read(data)
    except (TrajmemError, ValueError):
        pass
