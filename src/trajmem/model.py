"""Core trajectory data model shared by every other module.

A trajectory is the full ordered record of one agent episode: per step a
thought, the emitted action code, the tool invocations parsed from it, and
the resulting observation. Token counters are maintained on append so that
episode cost can be reported without a model-specific tokenizer.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Iterable

from .errors import ConfigurationError, StructuralError

# Ids that are safe as one path component: they name database directories
# and store and run files.
ID_PATTERN = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*")


class Phase(Enum):
    """Workflow stage a classified step belongs to."""

    EXPLORATION = "exploration"
    EXECUTION = "execution"
    VALIDATION = "validation"

    @classmethod
    def parse(cls, value: str) -> "Phase":
        try:
            return cls(value.strip().lower())
        except ValueError:
            raise ValueError(f"unknown phase: {value!r}") from None


def count_tokens(text: str) -> int:
    """Deterministic token-count proxy: ceil(UTF-8 byte length / 4)."""
    if not text:
        return 0
    return math.ceil(len(text.encode("utf-8")) / 4)


@dataclass(frozen=True)
class ToolParam:
    name: str
    description: str = ""


@dataclass(frozen=True)
class ToolSpec:
    """Declared interface of a callable tool."""

    name: str
    description: str = ""
    params: tuple[ToolParam, ...] = ()

    def __post_init__(self) -> None:
        names = [p.name for p in self.params]
        if len(names) != len(set(names)):
            raise StructuralError(f"duplicate parameter names in tool spec {self.name!r}")


# The exact types each field of a stored invocation, step and trajectory may
# hold, so a bool is no int and the JSON string "false" is no bool.
_INVOCATION_TYPES = (("tool_name", (str,)), ("output", (str,)), ("succeeded", (bool,)))
_STEP_TYPES = (
    ("index", (int,)), ("thought", (str,)), ("action_code", (str,)), ("observation", (str,))
)
_TRAJECTORY_TYPES = (
    ("question_id", (str,)),
    ("database_id", (str,)),
    ("final_answer", (str, type(None))),
    ("input_tokens", (int,)),
    ("output_tokens", (int,)),
    ("wall_time_ms", (int,)),
)


def check_types(value: Any, types: tuple[tuple[str, tuple[type, ...]], ...]) -> None:
    """Raise ``StructuralError`` naming the first field of ``value`` whose
    type is not exactly one of its types."""
    for name, kinds in types:
        field_value = getattr(value, name)
        if type(field_value) not in kinds:
            expected = " or ".join(kind.__name__ for kind in kinds)
            raise StructuralError(f"{name} is not {expected}: {field_value!r}")


def render_observation(outputs: Iterable[tuple[str, str]]) -> str:
    """The observation of tool outputs, given as (tool name, output) pairs in
    call order: one ``### <tool>`` block per output, separated by a blank
    line. Empty when there is no output."""
    return "\n\n".join(f"### {name}\n{output}" for name, output in outputs)


# The value that ``ToolInvocation.from_dict`` and ``Step.from_dict`` give
# each optional field absent from their JSON object; a store may leave out a
# field that holds it. Read-only: ``from_dict`` copies the containers.
INVOCATION_DEFAULTS: dict[str, Any] = {"args": {}, "output": "", "succeeded": True}
STEP_DEFAULTS: dict[str, Any] = {
    "thought": "", "action_code": "", "invocations": [], "observation": ""
}


@dataclass(slots=True)
class ToolInvocation:
    """One concrete tool call with its arguments and observed output."""

    tool_name: str
    args: dict[str, str] = field(default_factory=dict)
    output: str = ""
    succeeded: bool = True

    def to_dict(self) -> dict[str, Any]:
        return {
            "tool_name": self.tool_name,
            "args": dict(self.args),
            "output": self.output,
            "succeeded": self.succeeded,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ToolInvocation":
        """An invocation from its JSON object; ``StructuralError`` names a
        field of the wrong type."""
        args = data.get("args", INVOCATION_DEFAULTS["args"])
        if type(args) is not dict or not all(type(value) is str for value in args.values()):
            raise StructuralError(f"args are not an object of strings: {args!r}")
        invocation = cls(
            tool_name=data["tool_name"],
            args=dict(args),
            output=data.get("output", INVOCATION_DEFAULTS["output"]),
            succeeded=data.get("succeeded", INVOCATION_DEFAULTS["succeeded"]),
        )
        check_types(invocation, _INVOCATION_TYPES)
        return invocation


@dataclass(slots=True)
class Step:
    """One observe/reason/act cycle. A step with no invocations is reasoning-only."""

    index: int
    thought: str = ""
    action_code: str = ""
    invocations: list[ToolInvocation] = field(default_factory=list)
    observation: str = ""
    phase: Phase | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "thought": self.thought,
            "action_code": self.action_code,
            "invocations": [inv.to_dict() for inv in self.invocations],
            "observation": self.observation,
            "phase": self.phase.value if self.phase is not None else None,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Step":
        """A step from its JSON object; ``StructuralError`` names a field of
        the wrong type (an ``index`` must be an int, not a bool)."""
        phase = data.get("phase")
        step = cls(
            index=data["index"],
            thought=data.get("thought", STEP_DEFAULTS["thought"]),
            action_code=data.get("action_code", STEP_DEFAULTS["action_code"]),
            invocations=[
                ToolInvocation.from_dict(d)
                for d in data.get("invocations", STEP_DEFAULTS["invocations"])
            ],
            observation=data.get("observation", STEP_DEFAULTS["observation"]),
            phase=Phase.parse(phase) if phase else None,
        )
        check_types(step, _STEP_TYPES)
        return step


@dataclass
class Question:
    """A natural-language question tied to one database."""

    id: str
    text: str
    database_id: str
    synthetic: bool = False

    def to_dict(self) -> dict[str, Any]:
        return {
            "id": self.id,
            "text": self.text,
            "database_id": self.database_id,
            "synthetic": self.synthetic,
        }

    @classmethod
    def from_dict(cls, data: Any) -> "Question":
        """A question from its JSON object, as a questions file, a store index
        line and a ``meta.json`` hold it. Both ids must match ``ID_PATTERN``
        (they name files and directories), ``text`` must be a string and a
        given ``synthetic`` a bool; otherwise ``ConfigurationError`` names
        the field."""
        try:
            qid, text, database_id = data["id"], data["text"], data["database_id"]
        except (LookupError, TypeError):
            raise ConfigurationError("not an object with id, text and database_id") from None
        synthetic = data.get("synthetic", False)
        if not (isinstance(qid, str) and ID_PATTERN.fullmatch(qid)):
            raise ConfigurationError(f"unsafe question id {qid!r}")
        if not (isinstance(database_id, str) and ID_PATTERN.fullmatch(database_id)):
            raise ConfigurationError(f"unsafe database id {database_id!r}")
        if not isinstance(text, str):
            raise ConfigurationError(f"text is not a string: {text!r}")
        if not isinstance(synthetic, bool):
            raise ConfigurationError(f"synthetic is not a bool: {synthetic!r}")
        return cls(qid, text, database_id, synthetic)


@dataclass
class Trajectory:
    """Ordered step record of one episode, with token accounting."""

    question_id: str
    database_id: str
    steps: list[Step] = field(default_factory=list)
    final_answer: str | None = None
    input_tokens: int = 0
    output_tokens: int = 0
    wall_time_ms: int = 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "question_id": self.question_id,
            "database_id": self.database_id,
            "steps": [step.to_dict() for step in self.steps],
            "final_answer": self.final_answer,
            "input_tokens": self.input_tokens,
            "output_tokens": self.output_tokens,
            "wall_time_ms": self.wall_time_ms,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Trajectory":
        """A trajectory from its JSON object; ``StructuralError`` names a
        field of the wrong type (a count must be an int, not a bool) or a
        step out of place."""
        steps = [Step.from_dict(d) for d in data.get("steps", [])]
        for position, step in enumerate(steps):
            if step.index != position:
                raise StructuralError(
                    f"step index {step.index} does not match position {position}"
                )
        trajectory = cls(
            question_id=data["question_id"],
            database_id=data["database_id"],
            steps=steps,
            final_answer=data.get("final_answer"),
            input_tokens=data.get("input_tokens", 0),
            output_tokens=data.get("output_tokens", 0),
            wall_time_ms=data.get("wall_time_ms", 0),
        )
        check_types(trajectory, _TRAJECTORY_TYPES)
        return trajectory

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, ensure_ascii=False) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "Trajectory":
        return cls.from_dict(json.loads(text))


def append_step(trajectory: Trajectory, step: Step) -> Trajectory:
    """Append a step in index order and update the token counters.

    Thought and action code count toward output tokens, the observation
    toward input tokens. Raises StructuralError on an index mismatch.
    """
    if step.index != len(trajectory.steps):
        raise StructuralError(
            f"step index {step.index} does not extend trajectory of length "
            f"{len(trajectory.steps)}"
        )
    trajectory.steps.append(step)
    trajectory.output_tokens += count_tokens(step.thought) + count_tokens(step.action_code)
    trajectory.input_tokens += count_tokens(step.observation)
    return trajectory
