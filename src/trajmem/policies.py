"""Episode policies: the pluggable decision source for the agent loop.

A policy maps the transcript so far plus the visible tool specs to either a
(thought, action code) pair or a final answer. Shipped implementations:

* ScriptedPolicy: per-question playbooks, fully deterministic; used by the
  bundled fixture suite. A playbook is an opening plus a closing. The
  opening is fetch, one step per probe and a plan without a memory prefix,
  and the fetch alone with one. The fetch is the bootstrap composite when
  the registry shows it, else ``get_ext`` then ``get_ddl``. The closing is
  the main query, a reasoning-only check when the script asks for it, then
  validate, save and report.
* ReplayPolicy / RecordingPolicy: a script file mapping transcript
  fingerprints to actions, for exact replays.
* ExplorerPolicy: the restricted offline agent that turns synthetic
  questions into exploration-rich trajectories.
* HttpPolicy: a chat-endpoint-backed policy for real models.
"""

from __future__ import annotations

import abc
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

from .errors import ConfigurationError, StateError
from .llm import ChatEndpoint
from .model import Fields, Question, Step, ToolSpec, holding, read_fields

BOOTSTRAP_COMPOSITE = "get_ext_then_get_ddl"

_DECISION_FIELDS: Fields = {
    "thought": ("", (str,), "a string"),
    "action_code": ("", (str,), "a string"),
    "final_answer": (None, (str, type(None)), "a string or null"),
}


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
    def from_dict(cls, data: Any) -> "PolicyDecision":
        """A decision from its JSON object; a mistyped field raises
        ``ConfigurationError`` naming it."""
        return cls(*read_fields(data, _DECISION_FIELDS, ConfigurationError))


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
    import hashlib  # loads OpenSSL; only replay files need it

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


_REPLAY_FIELDS: Fields = {
    "fingerprints": ({}, (dict,), "an object of decisions"),
    "refinements": ({}, holding(dict, str), "an object of strings"),
}


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
        it. Raises ConfigurationError, naming the file, when it is not JSON
        (or is nested too deeply to parse) or not a JSON object whose
        ``fingerprints`` map to decisions (objects whose
        ``thought`` and ``action_code`` are strings and whose
        ``final_answer`` is a string or null) and whose ``refinements`` map
        queries to strings."""
        def error(message: str) -> ConfigurationError:
            return ConfigurationError(f"replay script {path}: {message}")

        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except (ValueError, RecursionError) as exc:
            raise error(f"not JSON: {exc}") from None
        fingerprints, refinements = read_fields(data, _REPLAY_FIELDS, error)
        try:
            mapping = {key: PolicyDecision.from_dict(raw) for key, raw in fingerprints.items()}
        except ConfigurationError as exc:
            raise error(f"a fingerprint maps to no decision: {exc}") from None
        return cls(mapping, refinements=refinements)

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


_SCRIPT_FIELDS: Fields = {
    "probes": ([], holding(list, str), "a list of strings"),
    "main_sql": ("", (str,), "a string"),
    "answer": ("done", (str,), "a string"),
    "check": (False, (bool,), "a bool"),
    "refine": ({}, holding(dict, str), "an object of strings"),
}


@dataclass
class QuestionScript:
    """Deterministic playbook for one question, played as the module
    docstring sets out; no field picks the opening. ``from_dict`` ignores
    keys outside the field table, such as the opening mode that older
    questions files name."""

    probes: list[str] = field(default_factory=list)
    main_sql: str = ""
    answer: str = "done"
    check: bool = False
    refine: dict[str, str] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "probes": list(self.probes),
            "main_sql": self.main_sql,
            "answer": self.answer,
            "check": self.check,
            "refine": dict(self.refine),
        }

    @classmethod
    def from_dict(cls, data: Any) -> "QuestionScript":
        """A script from its JSON object; a mistyped field raises
        ``ConfigurationError`` naming it."""
        probes, main_sql, answer, check, refine = read_fields(
            data, _SCRIPT_FIELDS, lambda message: ConfigurationError(f"script field {message}")
        )
        return cls(list(probes), main_sql, answer, check, dict(refine))


def _sql_call(query: str) -> str:
    return f"sql_execute(query={query!r})"


def _get_ext(db: str) -> PolicyDecision:
    return PolicyDecision("Read the external knowledge file.", f"get_ext(database={db!r})")


def _get_ddl(db: str) -> PolicyDecision:
    return PolicyDecision("Fetch the schema definition.", f"get_ddl(database={db!r})")


# Shared by every playbook; nothing mutates a decision.
_CHECK = PolicyDecision("Check that the result looks plausible before validating.")
_VALIDATE = PolicyDecision("Validate the result by re-running the final query.", "validate_result()")
_SAVE = PolicyDecision("Save the answer rows.", "save_result()")


class ScriptedPolicy(Policy):
    """Replays per-question playbooks, branching on memory and composites.

    The playbook of the episode in progress is built at its first step and
    kept in one slot with the transcript and tool list it was built for; a
    step of any other episode, such as one run in another worker thread,
    builds its own. So a script changed between episodes plays from the next
    episode on.
    """

    def __init__(self, scripts: Mapping[str, QuestionScript]) -> None:
        self.scripts = dict(scripts)
        # (transcript, tools, playbook), read and replaced as one value.
        self._episode: tuple[
            Transcript | None, Sequence[ToolSpec] | None, list[PolicyDecision]
        ] = (None, None, [])

    def next_action(
        self, transcript: Transcript, tools: Sequence[ToolSpec]
    ) -> PolicyDecision:
        held, held_tools, playbook = self._episode
        if held is not transcript or held_tools is not tools:
            playbook = self._playbook(transcript, tools)
            self._episode = (transcript, tools, playbook)
        position = len(transcript.steps)
        if position < len(playbook):
            return playbook[position]
        return PolicyDecision(thought="Script exhausted.", final_answer="(no answer)")

    def _playbook(
        self, transcript: Transcript, tools: Sequence[ToolSpec]
    ) -> list[PolicyDecision]:
        question = transcript.question
        script = self.scripts.get(question.id)
        if script is None:
            raise StateError(f"no script for question {question.id!r}")
        db = question.database_id
        if BOOTSTRAP_COMPOSITE in {tool.name for tool in tools}:
            fetch = [
                PolicyDecision(
                    "Load the knowledge file and schema in one step.",
                    f"{BOOTSTRAP_COMPOSITE}(database={db!r})",
                )
            ]
        else:
            fetch = [_get_ext(db), _get_ddl(db)]
        opening = fetch
        if not transcript.context_prefix:
            opening += [
                PolicyDecision("Probe a few rows to understand the data.", _sql_call(probe))
                for probe in script.probes
            ] + [PolicyDecision(f"Plan: translate the question into one query on {db}.")]
        closing = (
            [PolicyDecision("Run the main query.", _sql_call(script.main_sql))]
            + [_CHECK] * script.check
            + [_VALIDATE, _SAVE, PolicyDecision("Report the answer.", final_answer=script.answer)]
        )
        return opening + closing

    def refine_sql(self, query: str, feedback: str) -> str | None:
        for script in self.scripts.values():
            corrected = script.refine.get(query)
            if corrected is not None:
                return corrected
        return None


_CREATE_TABLE = re.compile(r"CREATE TABLE (\w+)\s*\(", re.IGNORECASE)
# Whitespace and comments, never given back, then the first name.
_FIRST_COLUMN = re.compile(r"(?:\s|--[^\n]*|/\*.*?\*/)*+(\w+)", re.DOTALL)
_PROBED_TABLES = 2


def schema_tables(ddl: str) -> list[tuple[str, str]]:
    """Each ``CREATE TABLE`` of a schema text in order, with its first
    column: the first name after the parenthesis, comments skipped, or
    ``rowid`` when none follows."""
    tables = []
    for table in _CREATE_TABLE.finditer(ddl):
        column = _FIRST_COLUMN.match(ddl, table.end())
        tables.append((table.group(1), column.group(1) if column else "rowid"))
    return tables


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
            return _get_ext(db)
        if position == 1:
            return _get_ddl(db)
        tables = schema_tables(transcript.steps[1].observation)[:_PROBED_TABLES]
        probe_index = position - 2
        if probe_index < len(tables):
            table = tables[probe_index][0]
            return PolicyDecision(
                thought=f"Probe a few rows of {table}.",
                action_code=_sql_call(f"SELECT * FROM {table} LIMIT 5"),
            )
        if probe_index == len(tables) and tables:
            table, column = tables[0]
            attempt = (
                f"SELECT {column}, COUNT(*) AS n FROM {table} "
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
