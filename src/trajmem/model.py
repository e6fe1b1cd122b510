"""Core trajectory data model shared by every other module.

A trajectory is the full ordered record of one agent episode: per step a
thought, the emitted action code, the tool invocations parsed from it, and
the resulting observation. Token counters are maintained on append so that
episode cost can be reported without a model-specific tokenizer.

``read_fields`` is the one checker of JSON objects read from outside the
program (stored trajectories, questions-file lines, scripts, replay files,
manifests and run records): each reader gives it a table of its fields.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Iterable, Mapping

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


# A field table maps each field name of a JSON object to its default
# (``REQUIRED`` when it must be given), then the exact types its value may
# have (so a bool is no int and the string "false" no bool) or a function
# that checks it, then what the value must be, as an error names it.
REQUIRED: Any = object()
Fields = Mapping[str, tuple[Any, tuple[type, ...] | Callable[[Any], bool], str]]


def read_fields(data: Any, fields: Fields, error: Callable[[str], Exception]) -> list[Any]:
    """The value of each field of ``fields`` in the JSON object ``data``, in
    table order, an absent field's being its default (shared: copy a
    container before changing it). Raises ``error(message)`` naming the
    first field that is missing or wrong, or saying that ``data`` is not a
    JSON object."""
    if type(data) is not dict:
        raise error(f"not a JSON object: {data!r}")
    values = []
    for name, (default, valid, expected) in fields.items():
        value = data.get(name, default)
        if value is REQUIRED:
            raise error(f"{name} is missing")
        if (type(value) not in valid) if type(valid) is tuple else not valid(value):
            raise error(f"{name} is not {expected}: {value!r}")
        values.append(value)
    return values


def holding(container: type, kind: type) -> Callable[[Any], bool]:
    """A field check: the value is exactly a ``container``, ``list`` or
    ``dict``, whose items (a dict's values) are each exactly a ``kind``."""
    if container is dict:
        return lambda value: type(value) is dict and all(type(v) is kind for v in value.values())
    return lambda value: type(value) is list and all(type(v) is kind for v in value)


def _is_id(value: Any) -> bool:
    return type(value) is str and ID_PATTERN.fullmatch(value) is not None


def render_observation(outputs: Iterable[tuple[str, str]]) -> str:
    """The observation of tool outputs, given as (tool name, output) pairs in
    call order: one ``### <tool>`` block per output, separated by a blank
    line. Empty when there is no output."""
    return "\n\n".join(f"### {name}\n{output}" for name, output in outputs)


_INVOCATION_FIELDS: Fields = {
    "tool_name": (REQUIRED, (str,), "a string"),
    "args": ({}, holding(dict, str), "an object of strings"),
    "output": ("", (str,), "a string"),
    "succeeded": (True, (bool,), "a bool"),
}
_STEP_FIELDS: Fields = {
    "index": (REQUIRED, (int,), "an int"),
    "thought": ("", (str,), "a string"),
    "action_code": ("", (str,), "a string"),
    "invocations": ([], (list,), "a list"),
    "observation": ("", (str,), "a string"),
    "phase": (None, (str, type(None)), "a phase name or null"),
}
# The value that ``ToolInvocation.from_dict`` and ``Step.from_dict`` give
# each optional field absent from their JSON object; a store may leave out a
# field that holds it. A stored step always has a phase. Read-only:
# ``from_dict`` copies the containers.
INVOCATION_DEFAULTS = {k: v[0] for k, v in _INVOCATION_FIELDS.items() if k != "tool_name"}
STEP_DEFAULTS = {k: v[0] for k, v in _STEP_FIELDS.items() if k not in ("index", "phase")}


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
    def from_dict(cls, data: Any) -> "ToolInvocation":
        """An invocation from its JSON object; ``StructuralError`` names a
        field that is missing or of the wrong type."""
        tool_name, args, output, succeeded = read_fields(data, _INVOCATION_FIELDS, StructuralError)
        return cls(tool_name, dict(args), output, succeeded)


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
    def from_dict(cls, data: Any) -> "Step":
        """A step from its JSON object; ``StructuralError`` names a field that
        is missing or of the wrong type (an ``index`` must be an int, not a
        bool), and an unknown phase raises ``ValueError``."""
        index, thought, action_code, invocations, observation, phase = read_fields(
            data, _STEP_FIELDS, StructuralError
        )
        return cls(
            index,
            thought,
            action_code,
            [ToolInvocation.from_dict(d) for d in invocations],
            observation,
            Phase.parse(phase) if phase else None,
        )


_QUESTION_FIELDS: Fields = {
    "id": (REQUIRED, _is_id, "a safe question id"),
    "text": (REQUIRED, (str,), "a string"),
    "database_id": (REQUIRED, _is_id, "a safe database id"),
    "synthetic": (False, (bool,), "a bool"),
}


@dataclass(slots=True)
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
        return cls(*read_fields(data, _QUESTION_FIELDS, ConfigurationError))


_TRAJECTORY_FIELDS: Fields = {
    "question_id": (REQUIRED, (str,), "a string"),
    "database_id": (REQUIRED, (str,), "a string"),
    "steps": ([], (list,), "a list"),
    "final_answer": (None, (str, type(None)), "a string or null"),
    "input_tokens": (0, (int,), "an int"),
    "output_tokens": (0, (int,), "an int"),
    "wall_time_ms": (0, (int,), "an int"),
}


@dataclass(slots=True)
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
    def from_dict(cls, data: Any) -> "Trajectory":
        """A trajectory from its JSON object; ``StructuralError`` names a
        field that is missing or of the wrong type (a count must be an int,
        not a bool) or a step out of place."""
        trajectory = cls(*read_fields(data, _TRAJECTORY_FIELDS, StructuralError))
        trajectory.steps = [Step.from_dict(d) for d in trajectory.steps]
        for position, step in enumerate(trajectory.steps):
            if step.index != position:
                raise StructuralError(
                    f"step index {step.index} does not match position {position}"
                )
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
