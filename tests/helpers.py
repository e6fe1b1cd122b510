"""Shared builders for tests."""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Sequence

from trajmem.model import Phase, Question, Step, ToolInvocation, Trajectory, append_step
from trajmem.store import MemoryEntry, structure_trajectory


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
    steps: Sequence[Step] = (),
    created_at: str = "2026-01-01T00:00:00+00:00",
) -> MemoryEntry:
    """An entry for a synthetic question, with the segments that
    ``trajectory(steps, question_id, database_id)`` renders; ``persist`` it
    with that trajectory."""
    question = Question(
        id=question_id, text=text, database_id=database_id, synthetic=True
    )
    return MemoryEntry(
        question=question,
        structured=structure_trajectory(trajectory(list(steps), question_id, database_id)),
        created_at=created_at,
    )


def restamp_index_line(entry_dir: Path) -> None:
    """Give the entry's line in its database's index the stamp its
    ``meta.json`` has now, so a load takes the entry from that line."""
    index = entry_dir.parent / ".index.jsonl"
    meta = os.stat(entry_dir / "meta.json")
    lines = []
    for raw in index.read_text(encoding="utf-8").splitlines():
        line = json.loads(raw)
        if line["question"]["id"] == entry_dir.name:
            line["stamp"] = [meta.st_ino, meta.st_mtime_ns, meta.st_ctime_ns, meta.st_size]
        lines.append(json.dumps(line, ensure_ascii=False, separators=(",", ":")) + "\n")
    index.write_text("".join(lines), encoding="utf-8")


# Ways to leave a meta.json's trajectory unable to render the entry's segments.
_UNRENDERABLE = {
    "trajectory missing": lambda meta: meta.pop("trajectory"),
    "unclassified step": lambda meta: meta["trajectory"]["steps"][1].update(phase=None),
    "unknown phase": lambda meta: meta["trajectory"]["steps"][1].update(phase="planning"),
}
UNRENDERABLE = sorted(_UNRENDERABLE)


def break_segments(entry_dir: Path, damage: str) -> None:
    """Leave the entry's ``meta.json``, which holds no segments, with a
    trajectory that cannot render them, damaged as ``UNRENDERABLE`` names."""
    meta = json.loads((entry_dir / "meta.json").read_text(encoding="utf-8"))
    assert "segments" not in meta
    _UNRENDERABLE[damage](meta)
    (entry_dir / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
