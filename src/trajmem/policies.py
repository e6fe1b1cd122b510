"""Episode policies: the pluggable decision source for the agent loop.

A policy maps the transcript so far plus the visible tool specs to either a
(thought, action code) pair or a final answer. Shipped implementations:

* ScriptedPolicy: per-question playbooks, fully deterministic; used by the
  bundled fixture suite. It adapts to a memory prefix (skipping exploration)
  and to composite tools visible in the registry.
* ReplayPolicy / RecordingPolicy: a script file mapping transcript
  fingerprints to actions, for exact replays.
* ExplorerPolicy: the restricted offline agent that turns synthetic
  questions into exploration-rich trajectories.
* HttpPolicy: a chat-endpoint-backed policy for real models.
"""

from __future__ import annotations

import abc
import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from .errors import ConfigurationError, StateError
from .llm import ChatEndpoint
from .model import Question, Step, ToolSpec

BOOTSTRAP_COMPOSITE = "get_ext_then_get_ddl"


@dataclass
class PolicyDecision:
    thought: str = ""
    action_code: str = ""
    final_answer: str | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "thought": self.thought,
            "action_code": self.action_code,
            "final_answer": self.final_answer,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "PolicyDecision":
        return cls(
            thought=data.get("thought", ""),
            action_code=data.get("action_code", ""),
            final_answer=data.get("final_answer"),
        )


@dataclass
class Transcript:
    """What a policy sees: the question, any memory prefix, and prior steps."""

    question: Question
    context_prefix: str = ""
    steps: Sequence[Step] = field(default_factory=list)


class Policy(abc.ABC):
    """Port for the per-step decision source."""

    @abc.abstractmethod
    def next_action(
        self, transcript: Transcript, tools: Sequence[ToolSpec]
    ) -> PolicyDecision: ...

    def refine_sql(self, query: str, feedback: str) -> str | None:
        """Optional one-shot SQL correction hook; None declines to refine."""
        return None


def transcript_fingerprint(transcript: Transcript) -> str:
    """Stable digest of a transcript for script-file replay."""
    payload = {
        "question": transcript.question.text,
        "database": transcript.question.database_id,
        "has_prefix": bool(transcript.context_prefix),
        "steps": [
            [step.thought, step.action_code, step.observation]
            for step in transcript.steps
        ],
    }
    blob = json.dumps(payload, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ReplayPolicy(Policy):
    """Plays back decisions recorded against transcript fingerprints."""

    def __init__(
        self,
        mapping: Mapping[str, PolicyDecision],
        refinements: Mapping[str, str] | None = None,
    ) -> None:
        self.mapping = dict(mapping)
        self.refinements = dict(refinements or {})

    @classmethod
    def from_file(cls, path: str | Path) -> "ReplayPolicy":
        """The policy a script file holds, as ``RecordingPolicy.save`` writes
        it. Raises ConfigurationError, naming the file, when it is not a JSON
        object whose ``fingerprints`` map to decisions (objects whose
        ``thought`` and ``action_code`` are strings and whose
        ``final_answer`` is a string or null) and whose ``refinements`` map
        queries to strings."""
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(data, dict):
            raise ConfigurationError(f"replay script {path} does not hold a JSON object")
        fingerprints = data.get("fingerprints", {})
        refinements = data.get("refinements", {})
        if not (isinstance(fingerprints, dict) and all(map(_is_decision, fingerprints.values()))):
            raise ConfigurationError(f"replay script {path}: a fingerprint maps to no decision")
        if not (
            isinstance(refinements, dict) and all(isinstance(f, str) for f in refinements.values())
        ):
            raise ConfigurationError(f"replay script {path}: a refinement is not a string")
        return cls(
            {
                fingerprint: PolicyDecision.from_dict(decision)
                for fingerprint, decision in fingerprints.items()
            },
            refinements=refinements,
        )

    def next_action(
        self, transcript: Transcript, tools: Sequence[ToolSpec]
    ) -> PolicyDecision:
        fingerprint = transcript_fingerprint(transcript)
        decision = self.mapping.get(fingerprint)
        if decision is None:
            raise StateError(f"no recorded action for transcript {fingerprint[:12]}...")
        return decision

    def refine_sql(self, query: str, feedback: str) -> str | None:
        return self.refinements.get(query)


def _is_decision(raw: Any) -> bool:
    return (
        isinstance(raw, dict)
        and isinstance(raw.get("thought", ""), str)
        and isinstance(raw.get("action_code", ""), str)
        and isinstance(raw.get("final_answer"), (str, type(None)))
    )


class RecordingPolicy(Policy):
    """Wraps another policy and records its decisions for later replay."""

    def __init__(self, inner: Policy) -> None:
        self.inner = inner
        self.mapping: dict[str, PolicyDecision] = {}
        self.refinements: dict[str, str] = {}

    def next_action(
        self, transcript: Transcript, tools: Sequence[ToolSpec]
    ) -> PolicyDecision:
        decision = self.inner.next_action(transcript, tools)
        self.mapping[transcript_fingerprint(transcript)] = decision
        return decision

    def refine_sql(self, query: str, feedback: str) -> str | None:
        corrected = self.inner.refine_sql(query, feedback)
        if corrected is not None:
            self.refinements[query] = corrected
        return corrected

    def save(self, path: str | Path) -> None:
        payload = {
            "fingerprints": {
                fingerprint: decision.to_dict()
                for fingerprint, decision in self.mapping.items()
            },
            "refinements": dict(self.refinements),
        }
        Path(path).write_text(
            json.dumps(payload, indent=2, ensure_ascii=False) + "\n", encoding="utf-8"
        )


@dataclass
class QuestionScript:
    """Deterministic playbook for one question.

    ``memory_mode`` controls behaviour when a memory prefix is present:
    "condensed" keeps a quick schema fetch and drops probes and planning;
    "skip_exploration" drops all exploration steps but keeps the plan step.
    """

    probes: list[str] = field(default_factory=list)
    main_sql: str = ""
    answer: str = "done"
    check: bool = False
    refine: dict[str, str] = field(default_factory=dict)
    memory_mode: str = "condensed"

    def to_dict(self) -> dict[str, Any]:
        return {
            "probes": list(self.probes),
            "main_sql": self.main_sql,
            "answer": self.answer,
            "check": self.check,
            "refine": dict(self.refine),
            "memory_mode": self.memory_mode,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "QuestionScript":
        """A script from its JSON object; a mistyped field raises
        ``ConfigurationError`` naming it."""
        return cls(
            probes=list(_script_field(data, "probes", [], "a list of strings", _is_str_list)),
            main_sql=_script_field(data, "main_sql", "", "a string", _is_str),
            answer=_script_field(data, "answer", "done", "a string", _is_str),
            check=_script_field(data, "check", False, "a bool", lambda v: isinstance(v, bool)),
            refine=dict(
                _script_field(data, "refine", {}, "an object of strings", _is_str_object)
            ),
            memory_mode=_script_field(
                data, "memory_mode", "condensed", "condensed or skip_exploration",
                lambda v: v in ("condensed", "skip_exploration"),
            ),
        )


def _is_str(value: object) -> bool:
    return isinstance(value, str)


def _is_str_list(value: object) -> bool:
    return isinstance(value, list) and all(map(_is_str, value))


def _is_str_object(value: object) -> bool:
    return isinstance(value, dict) and all(map(_is_str, value.values()))


def _script_field(
    data: Mapping[str, Any],
    name: str,
    default: Any,
    expected: str,
    valid: Callable[[object], bool],
) -> Any:
    value = data.get(name, default)
    if not valid(value):
        raise ConfigurationError(f"script field {name} is not {expected}: {value!r}")
    return value


def _sql_call(query: str) -> str:
    return f"sql_execute(query={query!r})"


class ScriptedPolicy(Policy):
    """Replays per-question playbooks, branching on memory and composites."""

    def __init__(self, scripts: Mapping[str, QuestionScript]) -> None:
        self.scripts = dict(scripts)

    def _decisions(
        self, transcript: Transcript, tools: Sequence[ToolSpec]
    ) -> list[PolicyDecision]:
        question = transcript.question
        script = self.scripts.get(question.id)
        if script is None:
            raise StateError(f"no script for question {question.id!r}")
        names = {tool.name for tool in tools}
        db = question.database_id
        has_memory = bool(transcript.context_prefix)

        decisions: list[PolicyDecision] = []

        def schema_fetch() -> list[PolicyDecision]:
            if BOOTSTRAP_COMPOSITE in names:
                return [
                    PolicyDecision(
                        thought="Load the knowledge file and schema in one step.",
                        action_code=f"{BOOTSTRAP_COMPOSITE}(database={db!r})",
                    )
                ]
            return [
                PolicyDecision(
                    thought="Read the external knowledge file.",
                    action_code=f"get_ext(database={db!r})",
                ),
                PolicyDecision(
                    thought="Fetch the schema definition.",
                    action_code=f"get_ddl(database={db!r})",
                ),
            ]

        plan_needed = True
        if has_memory and script.memory_mode == "skip_exploration":
            pass
        elif has_memory:
            decisions.extend(schema_fetch())
            plan_needed = False
        else:
            decisions.extend(schema_fetch())
            for probe in script.probes:
                decisions.append(
                    PolicyDecision(
                        thought="Probe a few rows to understand the data.",
                        action_code=_sql_call(probe),
                    )
                )
        if plan_needed:
            decisions.append(
                PolicyDecision(
                    thought=f"Plan: translate the question into one query on {db}.",
                    action_code="",
                )
            )
        decisions.append(
            PolicyDecision(
                thought="Run the main query.", action_code=_sql_call(script.main_sql)
            )
        )
        if script.check:
            decisions.append(
                PolicyDecision(
                    thought="Check that the result looks plausible before validating.",
                    action_code="",
                )
            )
        decisions.append(
            PolicyDecision(
                thought="Validate the result by re-running the final query.",
                action_code="validate_result()",
            )
        )
        decisions.append(
            PolicyDecision(
                thought="Save the answer rows.", action_code="save_result()"
            )
        )
        decisions.append(
            PolicyDecision(thought="Report the answer.", final_answer=script.answer)
        )
        return decisions

    def next_action(
        self, transcript: Transcript, tools: Sequence[ToolSpec]
    ) -> PolicyDecision:
        decisions = self._decisions(transcript, tools)
        position = len(transcript.steps)
        if position < len(decisions):
            return decisions[position]
        return PolicyDecision(thought="Script exhausted.", final_answer="(no answer)")

    def refine_sql(self, query: str, feedback: str) -> str | None:
        for script in self.scripts.values():
            corrected = script.refine.get(query)
            if corrected is not None:
                return corrected
        return None


_CREATE_TABLE = re.compile(r"CREATE TABLE (\w+)", re.IGNORECASE)
_FIRST_COLUMN = re.compile(r"CREATE TABLE \w+\s*\(\s*(\w+)", re.IGNORECASE)
_PROBED_TABLES = 2


class ExplorerPolicy(Policy):
    """Offline exploration flow for synthetic questions.

    Reads knowledge and schema, probes the first tables it saw in the DDL
    observation, attempts one analytical query, then stops. Answers are
    never graded; the value is the exploration trace.
    """

    def next_action(
        self, transcript: Transcript, tools: Sequence[ToolSpec]
    ) -> PolicyDecision:
        db = transcript.question.database_id
        position = len(transcript.steps)
        if position == 0:
            return PolicyDecision(
                thought="Read the external knowledge file.",
                action_code=f"get_ext(database={db!r})",
            )
        if position == 1:
            return PolicyDecision(
                thought="Fetch the schema definition.",
                action_code=f"get_ddl(database={db!r})",
            )
        ddl = transcript.steps[1].observation
        tables = _CREATE_TABLE.findall(ddl)[:_PROBED_TABLES]
        probe_index = position - 2
        if probe_index < len(tables):
            table = tables[probe_index]
            return PolicyDecision(
                thought=f"Probe a few rows of {table}.",
                action_code=_sql_call(f"SELECT * FROM {table} LIMIT 5"),
            )
        if probe_index == len(tables) and tables:
            first_table = tables[0]
            match = _FIRST_COLUMN.search(ddl)
            column = match.group(1) if match else "rowid"
            attempt = (
                f"SELECT {column}, COUNT(*) AS n FROM {first_table} "
                f"GROUP BY {column} ORDER BY n DESC"
            )
            return PolicyDecision(
                thought="Attempt an aggregate query for the question.",
                action_code=_sql_call(attempt),
            )
        return PolicyDecision(
            thought="Exploration recorded.",
            final_answer=f"exploration complete for {db}",
        )


_FINAL_ANSWER = re.compile(r"^\s*final answer\s*:\s*(.*)$", re.IGNORECASE | re.DOTALL)
_THOUGHT = re.compile(r"^\s*thought\s*:\s*(.*?)(?:\n\s*action\s*:|\Z)", re.IGNORECASE | re.DOTALL)
_PROMPT_OBSERVATION_LIMIT = 1500


class HttpPolicy(Policy):
    """Chat-endpoint-backed policy for real model runs."""

    SYSTEM = (
        "You are a data analyst agent working over a relational database. "
        "Each turn, reply either with\n"
        "Thought: <one line>\nAction:\n<one tool call per line, e.g. "
        "tool_name(arg=\"value\")>\n"
        "or, when done,\nFinal Answer: <text>."
    )

    def __init__(self, endpoint: ChatEndpoint) -> None:
        self.endpoint = endpoint

    def _render(self, transcript: Transcript, tools: Sequence[ToolSpec]) -> str:
        lines = [f"Question ({transcript.question.database_id}): {transcript.question.text}"]
        tool_lines = []
        for tool in tools:
            params = ", ".join(p.name for p in tool.params)
            tool_lines.append(f"- {tool.name}({params}): {tool.description}")
        lines.append("Available tools:\n" + "\n".join(tool_lines))
        if transcript.context_prefix:
            lines.append("Relevant prior exploration:\n" + transcript.context_prefix)
        for step in transcript.steps:
            lines.append(f"Thought: {step.thought}")
            if step.action_code:
                lines.append(f"Action:\n{step.action_code}")
            observation = step.observation
            if len(observation) > _PROMPT_OBSERVATION_LIMIT:
                observation = observation[:_PROMPT_OBSERVATION_LIMIT] + "\n[truncated]"
            lines.append(f"Observation:\n{observation}")
        lines.append("Next step?")
        return "\n\n".join(lines)

    def next_action(
        self, transcript: Transcript, tools: Sequence[ToolSpec]
    ) -> PolicyDecision:
        reply = self.endpoint.complete(self._render(transcript, tools), system=self.SYSTEM)
        final = _FINAL_ANSWER.match(reply)
        if final:
            return PolicyDecision(thought="", final_answer=final.group(1).strip())
        thought_match = _THOUGHT.search(reply)
        action_match = re.search(r"action\s*:\s*\n?(.*)$", reply, re.IGNORECASE | re.DOTALL)
        thought = thought_match.group(1).strip() if thought_match else reply.strip()
        action = action_match.group(1).strip() if action_match else ""
        return PolicyDecision(thought=thought, action_code=action)

    def refine_sql(self, query: str, feedback: str) -> str | None:
        prompt = (
            "The SQL query below failed. Reply with a corrected SQL query only, "
            f"no prose.\n\nQuery:\n{query}\n\nFeedback:\n{feedback}"
        )
        try:
            corrected = self.endpoint.complete(prompt).strip()
        except Exception:  # noqa: BLE001 - refinement is best effort
            return None
        corrected = corrected.strip("`").strip()
        return corrected or None
