"""Shared builders for tests."""

from __future__ import annotations

from trajmem.model import Phase, Question, Step, ToolInvocation, Trajectory, append_step
from trajmem.store import MemoryEntry, StructuredTrajectory


def invocation(name: str, **args: object) -> ToolInvocation:
    return ToolInvocation(
        tool_name=name,
        args={key: str(value) for key, value in args.items()},
        output="ok",
        succeeded=True,
    )


def step(
    index: int,
    tools: tuple[str, ...] = (),
    action: str | None = None,
    thought: str = "",
    observation: str = "",
    phase: Phase | None = None,
) -> Step:
    if action is None:
        action = "\n".join(f"{name}()" for name in tools)
    return Step(
        index=index,
        thought=thought,
        action_code=action,
        invocations=[invocation(name) for name in tools],
        observation=observation,
        phase=phase,
    )


def trajectory(
    steps: list[Step], question_id: str = "q", database_id: str = "db"
) -> Trajectory:
    built = Trajectory(question_id=question_id, database_id=database_id)
    for item in steps:
        append_step(built, item)
    return built


def tool_trajectory(
    pairs: list[tuple[str, Phase]], question_id: str = "q", database_id: str = "db"
) -> Trajectory:
    """A classified trajectory with one invocation per step."""
    steps = [
        Step(
            index=index,
            action_code=f"{name}()",
            invocations=[invocation(name)],
            phase=phase,
        )
        for index, (name, phase) in enumerate(pairs)
    ]
    return trajectory(steps, question_id, database_id)


def memory_entry(
    question_id: str,
    database_id: str,
    text: str,
    structured: StructuredTrajectory | None = None,
    created_at: str = "2026-01-01T00:00:00+00:00",
) -> MemoryEntry:
    question = Question(
        id=question_id, text=text, database_id=database_id, synthetic=True
    )
    return MemoryEntry(
        question=question,
        structured=structured or StructuredTrajectory(segments=[]),
        created_at=created_at,
    )
