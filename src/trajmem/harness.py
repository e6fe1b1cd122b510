"""The episode loop: a planner agent over the workspace tools.

Planner episodes run observe/reason/act cycles over the workspace tools
until the policy answers or the step budget runs out. With memory enabled,
the exploration segment of the most similar stored trajectory is injected
as step-0 context; with composites enabled, mined composite tools join the
registry.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .backend import SqliteBackend
from .classifier import classify_trajectory
from .errors import ConfigurationError
from .metrics import RunRecord, execution_accuracy
from .mining import MinedComposite, build_composite_tool, load_manifest
from .model import (
    Fields,
    Phase,
    Question,
    Step,
    ToolParam,
    ToolSpec,
    Trajectory,
    append_step,
    read_fields,
)
from .policies import Policy, QuestionScript, ScriptedPolicy, Transcript
from .retrieval import select_trajectory
from .store import MemoryEntry, MemoryStore, existing_store
from .tools import (
    EpisodeContext,
    Tool,
    ToolRegistry,
    Workspace,
    database_tools,
    execute_action,
    file_tools,
    sql_tool,
    validation_tools,
)


@dataclass
class EpisodeConfig:
    """Budgets and feature switches for one episode."""

    max_planner_steps: int = 30
    sql_retry_limit: int = 1
    memory_enabled: bool = True
    composites_enabled: bool = True

    def __post_init__(self) -> None:
        if self.max_planner_steps < 1:
            raise ValueError("max_planner_steps must be positive")
        if self.sql_retry_limit < 0:
            raise ValueError("sql_retry_limit must be nonnegative")


# -- registries --------------------------------------------------------------------


def _memory_tool(store: MemoryStore) -> Tool:
    def _retrieve(ctx: EpisodeContext, question: str = "", phase: str = "exploration") -> str:
        text = question or ctx.question.text
        probe = Question(
            id=f"{ctx.question.id}-retrieve", text=text, database_id=ctx.database_id
        )
        entry = select_trajectory(probe, store)
        if entry is None:
            return "(no stored trajectory for this database)"
        wanted = None if phase == "full" else Phase.parse(phase)
        segment = store.load_phase_segment(entry, wanted)
        return f"retrieved trajectory {entry.question.id!r}:\n{segment}"

    return Tool(
        ToolSpec(
            "retrieve_trajectory",
            "Load the stored trajectory segment most similar to a question.",
            (
                ToolParam("question", "query text; defaults to the episode question"),
                ToolParam("phase", "exploration, execution, validation, or full"),
            ),
        ),
        _retrieve,
    )


def build_explorer_registry(config: EpisodeConfig, policy: Policy) -> ToolRegistry:
    """Restricted offline registry: SQL execution and file/schema reading only."""
    registry = ToolRegistry()
    for tool in file_tools() + database_tools():
        registry.register(tool)
    registry.register(sql_tool(policy.refine_sql, config.sql_retry_limit))
    return registry


def build_planner_registry(
    config: EpisodeConfig,
    policy: Policy,
    memory_store: MemoryStore | None = None,
    composites: Sequence[MinedComposite] | None = None,
) -> ToolRegistry:
    """Planner tool set: the explorer's tools plus validation and memory."""
    registry = build_explorer_registry(config, policy)
    for tool in validation_tools():
        registry.register(tool)
    if config.memory_enabled and memory_store is not None:
        registry.register(_memory_tool(memory_store))
    if config.composites_enabled and composites:
        for mined in composites:
            build_composite_tool(mined, registry)
    return registry


# -- episodes -----------------------------------------------------------------------


@dataclass
class EpisodeResult:
    trajectory: Trajectory
    answer: str | None
    answer_rows: list[tuple] | None = None


def memory_prefix(store: MemoryStore, entry: MemoryEntry) -> str:
    """The markdown an episode injects from its retrieved entry: the
    entry's exploration segments."""
    return store.load_phase_segment(entry, Phase.EXPLORATION)


def run_episode(
    question: Question,
    workspace: Workspace,
    config: EpisodeConfig,
    policy: Policy,
    memory_store: MemoryStore | None = None,
    composites: Sequence[MinedComposite] | None = None,
    answer_dir: Path | None = None,
    registry: ToolRegistry | None = None,
) -> EpisodeResult:
    """Run one planner episode and return the classified, timed trajectory.

    A given ``registry`` replaces the planner's; tool state lives on the context.
    """
    start = time.monotonic()
    backend = SqliteBackend(workspace.db_path(question.database_id))
    try:
        ctx = EpisodeContext(
            workspace=workspace,
            database_id=question.database_id,
            backend=backend,
            question=question,
            answer_dir=answer_dir,
        )
        prefix = ""
        if config.memory_enabled and memory_store is not None:
            entry = select_trajectory(question, memory_store)
            if entry is not None:
                prefix = memory_prefix(memory_store, entry)
        if registry is None:
            registry = build_planner_registry(
                config, policy, memory_store=memory_store, composites=composites
            )
        trajectory = Trajectory(question_id=question.id, database_id=question.database_id)
        transcript = Transcript(
            question=question, context_prefix=prefix, steps=trajectory.steps
        )
        specs = registry.specs()
        answer: str | None = None
        for _ in range(config.max_planner_steps):
            decision = policy.next_action(transcript, specs)
            answer = decision.final_answer
            if answer is None:
                action_code = decision.action_code
                invocations, observation = execute_action(registry, ctx, action_code)
            else:
                action_code = f"final_answer({answer!r})"
                invocations, observation = [], ""
            append_step(
                trajectory,
                Step(
                    index=len(trajectory.steps),
                    thought=decision.thought,
                    action_code=action_code,
                    invocations=invocations,
                    observation=observation,
                ),
            )
            if answer is not None:
                break
        trajectory.final_answer = answer
        classified = classify_trajectory(trajectory)
        classified.wall_time_ms = int((time.monotonic() - start) * 1000)
        return EpisodeResult(
            trajectory=classified,
            answer=answer,
            answer_rows=ctx.saved_rows if ctx.saved_rows is not None else ctx.last_rows,
        )
    finally:
        backend.close()


# -- batched runs -------------------------------------------------------------------


# A questions-file line's fields besides its question's.
_LINE_FIELDS: Fields = {
    "gold_csv": (None, (str, type(None)), "a string or null"),
    "script": (None, (dict, type(None)), "an object or null"),
}


@dataclass
class QuestionRecord:
    """One line of a questions file: the question plus optional script and gold."""

    question: Question
    script: QuestionScript | None = None
    gold_csv: str | None = None


def load_questions_file(path: str | Path) -> list[QuestionRecord]:
    """Parse a JSONL questions file (id, text, database_id, gold_csv, script).

    Each line is a question that ``Question.from_dict`` checks, with an
    optional gold_csv string and script object whose fields
    ``QuestionScript.from_dict`` checks; question ids must be unique. An
    error names the line.
    """
    records: list[QuestionRecord] = []
    seen: set[str] = set()
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            data = json.loads(line)
            question = Question.from_dict(data)
            if question.id in seen:
                raise ConfigurationError(f"duplicate question id {question.id!r}")
            seen.add(question.id)
            gold_csv, script = read_fields(data, _LINE_FIELDS, ConfigurationError)
            record = QuestionRecord(
                question, QuestionScript.from_dict(script) if script else None, gold_csv
            )
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"{path} line {lineno}: not JSON: {exc}") from None
        except ConfigurationError as exc:
            raise ConfigurationError(f"{path} line {lineno}: {exc}") from None
        records.append(record)
    return records


def load_gold_rows(workspace: Workspace, gold_csv: str) -> list[list[str]]:
    """Gold answer rows from a CSV next to the questions file (header dropped)."""
    path = workspace.resolve(gold_csv)
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[1:] if rows else []


def scripted_policy_from_records(records: Sequence[QuestionRecord]) -> ScriptedPolicy:
    """Build the default scripted policy; every question must carry a script."""
    scripts = {
        record.question.id: record.script
        for record in records
        if record.script is not None
    }
    if len(scripts) != len(records):
        missing = [r.question.id for r in records if r.script is None]
        raise ConfigurationError(f"questions lack scripts: {missing}")
    return ScriptedPolicy(scripts)


@dataclass
class SuiteResult:
    records: list[RunRecord]
    out_dir: Path


def run_suite(
    records: Sequence[QuestionRecord],
    workspace: Workspace,
    out_dir: str | Path,
    config: EpisodeConfig,
    store_root: str | Path | None = None,
    manifest_path: str | Path | None = None,
    policy: Policy | None = None,
    workers: int = 1,
) -> SuiteResult:
    """Run every question and write one RunRecord and trajectory JSON each.
    With memory on, ``store_root`` must be a directory (see
    ``existing_store``); nothing is written otherwise."""
    memory_store = (
        existing_store(store_root) if config.memory_enabled and store_root is not None else None
    )
    out = Path(out_dir)
    (out / "records").mkdir(parents=True, exist_ok=True)
    (out / "trajectories").mkdir(parents=True, exist_ok=True)
    answer_dir = out / "answers"

    if policy is None:
        policy = scripted_policy_from_records(records)

    composites = (
        load_manifest(manifest_path)
        if config.composites_enabled and manifest_path is not None
        else None
    )
    # One tool set for every episode and worker thread: tools keep their
    # state on each episode's EpisodeContext.
    registry = build_planner_registry(
        config, policy, memory_store=memory_store, composites=composites
    )

    def _one(record: QuestionRecord) -> tuple[RunRecord, EpisodeResult]:
        result = run_episode(
            record.question,
            workspace,
            config,
            policy,
            memory_store=memory_store,
            answer_dir=answer_dir,
            registry=registry,
        )
        correct: bool | None = None
        if record.gold_csv is not None:
            gold = load_gold_rows(workspace, record.gold_csv)
            correct = execution_accuracy(result.answer_rows, gold)
        run_record = RunRecord.from_trajectory(result.trajectory, result.answer_rows, correct)
        return run_record, result

    pairs: list[tuple[RunRecord, EpisodeResult]]
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor  # a serial run never loads it

        with ThreadPoolExecutor(max_workers=workers) as pool:
            pairs = list(pool.map(_one, records))
    else:
        pairs = [_one(record) for record in records]

    suite = SuiteResult(records=[], out_dir=out)
    for record, (run_record, result) in zip(records, pairs):
        suite.records.append(run_record)
        (out / "records" / f"{record.question.id}.json").write_text(
            json.dumps(run_record.to_dict(), indent=2, ensure_ascii=False) + "\n",
            encoding="utf-8",
        )
        (out / "trajectories" / f"{record.question.id}.json").write_text(
            result.trajectory.to_json(), encoding="utf-8"
        )
    return suite
