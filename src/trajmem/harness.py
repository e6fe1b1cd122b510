"""The episode loop: a planner agent with a budgeted schema-linking sub-agent.

Planner episodes run observe/reason/act cycles over the workspace tools
until the policy answers or the step budget runs out. With memory enabled,
the exploration segment of the most similar stored trajectory is injected
as step-0 context; with composites enabled, mined composite tools join the
registry. The schema-linking sub-agent owns vector search and reports back
a summary, never its transcript.
"""

from __future__ import annotations

import csv
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from .backend import SqliteBackend
from .classifier import DEFAULT_RULE_TABLE, RuleTable, classify_trajectory
from .errors import ConfigurationError
from .metrics import RunRecord, execution_accuracy
from .mining import MinedComposite, build_composite_tool, load_manifest
from .model import Phase, Question, Step, ToolParam, ToolSpec, Trajectory, append_step
from .policies import Policy, QuestionScript, ScriptedPolicy, Transcript
from .retrieval import EmbeddingProvider, HashingEmbedder, rank, select_trajectory
from .store import ID_PATTERN, MemoryStore
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
    schema_link_budget: int = 5
    sql_retry_limit: int = 1
    memory_enabled: bool = True
    composites_enabled: bool = True

    def __post_init__(self) -> None:
        if self.max_planner_steps < 1:
            raise ValueError("max_planner_steps must be positive")
        if self.schema_link_budget < 1:
            raise ValueError("schema_link_budget must be positive")
        if self.sql_retry_limit < 0:
            raise ValueError("sql_retry_limit must be nonnegative")


# -- schema index and vector search ---------------------------------------------


@dataclass(frozen=True)
class SchemaIndexEntry:
    table: str
    column: str
    description: str
    embedding: tuple[float, ...]


@dataclass(frozen=True)
class SchemaIndex:
    entries: tuple[SchemaIndexEntry, ...]


def build_schema_index(
    workspace: Workspace, database_id: str, provider: EmbeddingProvider
) -> SchemaIndex:
    """Embed one description per column of every table in the database."""
    backend = SqliteBackend(workspace.db_path(database_id))
    try:
        tables = [
            name
            for (name,) in backend.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table' "
                "AND name NOT LIKE 'sqlite_%' ORDER BY name"
            ).rows
        ]
        entries: list[SchemaIndexEntry] = []
        for table in tables:
            for _, column, col_type, *_ in backend.execute(
                f"PRAGMA table_info({table})"
            ).rows:
                description = f"{table} {column} {col_type}".strip()
                entries.append(
                    SchemaIndexEntry(
                        table=table,
                        column=column,
                        description=description,
                        embedding=tuple(provider.embed(description)),
                    )
                )
    finally:
        backend.close()
    return SchemaIndex(entries=tuple(entries))


def vector_search(
    query: str,
    index: SchemaIndex,
    provider: EmbeddingProvider,
    k: int = 5,
) -> list[tuple[str, str, float]]:
    """Top-k schema elements by similarity; ties break by (table, column)."""
    ranked = rank(
        provider.embed(query),
        (((entry.table, entry.column), entry.embedding) for entry in index.entries),
        k,
    )
    return [(table, column, score) for (table, column), score in ranked]


# -- registries --------------------------------------------------------------------


def _memory_tool(store: MemoryStore, provider: EmbeddingProvider) -> Tool:
    def _retrieve(ctx: EpisodeContext, question: str = "", phase: str = "exploration") -> str:
        text = question or ctx.question.text
        probe = Question(
            id=f"{ctx.question.id}-retrieve", text=text, database_id=ctx.database_id
        )
        entry = select_trajectory(probe, store, provider)
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


def _schema_link_tool(
    config: EpisodeConfig,
    linker_policy: Policy,
    schema_index: SchemaIndex,
    provider: EmbeddingProvider,
) -> Tool:
    def _link(ctx: EpisodeContext, question: str = "") -> str:
        probe = Question(
            id=f"{ctx.question.id}-link",
            text=question or ctx.question.text,
            database_id=ctx.database_id,
        )
        return schema_link(
            probe,
            ctx.workspace,
            config.schema_link_budget,
            linker_policy,
            schema_index,
            provider=provider,
        )

    return Tool(
        ToolSpec(
            "schema_link",
            "Delegate fine-grained schema exploration to the linking sub-agent.",
            (ToolParam("question", "query text; defaults to the episode question"),),
        ),
        _link,
    )


def build_planner_registry(
    config: EpisodeConfig,
    policy: Policy,
    memory_store: MemoryStore | None = None,
    provider: EmbeddingProvider | None = None,
    composites: Sequence[MinedComposite] | None = None,
    linker_policy: Policy | None = None,
    schema_index: SchemaIndex | None = None,
) -> ToolRegistry:
    """Planner tool set: files, database, SQL, validation, memory. No vector search."""
    registry = ToolRegistry()
    for tool in file_tools() + database_tools():
        registry.register(tool)
    registry.register(sql_tool(policy.refine_sql, config.sql_retry_limit))
    for tool in validation_tools():
        registry.register(tool)
    if config.memory_enabled and memory_store is not None:
        registry.register(_memory_tool(memory_store, provider or HashingEmbedder(memory_store.dimension)))
    if linker_policy is not None and schema_index is not None:
        registry.register(
            _schema_link_tool(
                config, linker_policy, schema_index, provider or HashingEmbedder()
            )
        )
    if config.composites_enabled and composites:
        for mined in composites:
            build_composite_tool(mined, registry)
    return registry


def build_explorer_registry(config: EpisodeConfig, policy: Policy) -> ToolRegistry:
    """Restricted offline registry: SQL execution and file/schema reading only."""
    registry = ToolRegistry()
    for tool in file_tools() + database_tools():
        registry.register(tool)
    registry.register(sql_tool(policy.refine_sql, config.sql_retry_limit))
    return registry


def build_linker_registry(
    schema_index: SchemaIndex, provider: EmbeddingProvider
) -> ToolRegistry:
    """Sub-agent tool set: vector search plus probe SQL and file reads."""
    registry = ToolRegistry()

    def _search(ctx: EpisodeContext, query: str = "", k: int = 5) -> str:
        matches = vector_search(query or ctx.question.text, schema_index, provider, k=int(k))
        if not matches:
            return "(no schema index entries)"
        return "\n".join(f"{table}.{column}\t{score:.4f}" for table, column, score in matches)

    registry.register(
        Tool(
            ToolSpec(
                "vector_search",
                "Rank schema elements by similarity to a query.",
                (ToolParam("query", "search text"), ToolParam("k", "result count")),
            ),
            _search,
        )
    )
    for tool in file_tools():
        registry.register(tool)
    registry.register(sql_tool(None, 0))
    return registry


# -- episodes -----------------------------------------------------------------------


@dataclass
class EpisodeResult:
    trajectory: Trajectory
    answer: str | None
    answer_columns: list[str] | None = None
    answer_rows: list[tuple] | None = None


def _final_answer_code(answer: str) -> str:
    return f"final_answer({answer!r})"


def run_episode(
    question: Question,
    workspace: Workspace,
    config: EpisodeConfig,
    policy: Policy,
    memory_store: MemoryStore | None = None,
    provider: EmbeddingProvider | None = None,
    composites: Sequence[MinedComposite] | None = None,
    linker_policy: Policy | None = None,
    schema_index: SchemaIndex | None = None,
    rule_table: RuleTable | None = None,
    answer_dir: Path | None = None,
    registry_factory: Callable[[EpisodeContext], ToolRegistry] | None = None,
) -> EpisodeResult:
    """Run one planner episode and return the classified, timed trajectory."""
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
            emb = provider or HashingEmbedder(memory_store.dimension)
            entry = select_trajectory(question, memory_store, emb)
            if entry is not None:
                prefix = memory_store.load_phase_segment(entry, Phase.EXPLORATION)
        if registry_factory is not None:
            registry = registry_factory(ctx)
        else:
            registry = build_planner_registry(
                config,
                policy,
                memory_store=memory_store,
                provider=provider,
                composites=composites,
                linker_policy=linker_policy,
                schema_index=schema_index,
            )
        trajectory = Trajectory(question_id=question.id, database_id=question.database_id)
        transcript = Transcript(
            question=question, context_prefix=prefix, steps=trajectory.steps
        )
        specs = registry.specs()
        answer: str | None = None
        for _ in range(config.max_planner_steps):
            decision = policy.next_action(transcript, specs)
            if decision.final_answer is not None:
                answer = decision.final_answer
                append_step(
                    trajectory,
                    Step(
                        index=len(trajectory.steps),
                        thought=decision.thought,
                        action_code=_final_answer_code(answer),
                    ),
                )
                break
            invocations, observation = execute_action(registry, ctx, decision.action_code)
            append_step(
                trajectory,
                Step(
                    index=len(trajectory.steps),
                    thought=decision.thought,
                    action_code=decision.action_code,
                    invocations=invocations,
                    observation=observation,
                ),
            )
        trajectory.final_answer = answer
        classified = classify_trajectory(trajectory, rule_table or DEFAULT_RULE_TABLE)
        classified.wall_time_ms = int((time.monotonic() - start) * 1000)
        return EpisodeResult(
            trajectory=classified,
            answer=answer,
            answer_columns=(
                ctx.saved_columns if ctx.saved_columns is not None else ctx.last_columns
            ),
            answer_rows=ctx.saved_rows if ctx.saved_rows is not None else ctx.last_rows,
        )
    finally:
        backend.close()


def schema_link(
    question: Question,
    workspace: Workspace,
    budget: int,
    policy: Policy,
    schema_index: SchemaIndex,
    provider: EmbeddingProvider | None = None,
) -> str:
    """Run the budgeted linking sub-episode and return only its report."""
    if budget < 1:
        raise ValueError("schema link budget must be at least 1")
    provider = provider or HashingEmbedder()
    backend = SqliteBackend(workspace.db_path(question.database_id))
    try:
        ctx = EpisodeContext(
            workspace=workspace,
            database_id=question.database_id,
            backend=backend,
            question=question,
        )
        registry = build_linker_registry(schema_index, provider)
        steps: list[Step] = []
        transcript = Transcript(question=question, context_prefix="", steps=steps)
        observations: list[str] = []
        specs = registry.specs()
        for _ in range(budget):
            decision = policy.next_action(transcript, specs)
            if decision.final_answer is not None:
                return decision.final_answer
            invocations, observation = execute_action(registry, ctx, decision.action_code)
            steps.append(
                Step(
                    index=len(steps),
                    thought=decision.thought,
                    action_code=decision.action_code,
                    invocations=invocations,
                    observation=observation,
                )
            )
            if observation:
                observations.append(observation)
        gathered = "\n\n".join(observations) if observations else "(no observations gathered)"
        return (
            f"schema linking budget exhausted after {budget} step(s); "
            f"gathered observations:\n{gathered}"
        )
    finally:
        backend.close()


# -- batched runs -------------------------------------------------------------------


@dataclass
class QuestionRecord:
    """One line of a questions file: the question plus optional script and gold."""

    question: Question
    script: QuestionScript | None = None
    gold_csv: str | None = None


def load_questions_file(path: str | Path) -> list[QuestionRecord]:
    """Parse a JSONL questions file (id, text, database_id, gold_csv, script).

    Ids name the run's output files: each must be unique and match ID_PATTERN.
    """
    records: list[QuestionRecord] = []
    seen: set[str] = set()
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        data = json.loads(line)
        qid = data["id"]
        if not isinstance(qid, str) or not ID_PATTERN.fullmatch(qid):
            raise ConfigurationError(f"unsafe question id in {path}: {qid!r}")
        if qid in seen:
            raise ConfigurationError(f"duplicate question id {qid!r} in {path}")
        seen.add(qid)
        question = Question(
            id=qid,
            text=data["text"],
            database_id=data["database_id"],
            synthetic=bool(data.get("synthetic", False)),
        )
        script = (
            QuestionScript.from_dict(data["script"]) if data.get("script") else None
        )
        records.append(
            QuestionRecord(question=question, script=script, gold_csv=data.get("gold_csv"))
        )
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
    results: dict[str, EpisodeResult] = field(default_factory=dict)


def run_suite(
    records: Sequence[QuestionRecord],
    workspace: Workspace,
    out_dir: str | Path,
    config: EpisodeConfig,
    store_root: str | Path | None = None,
    manifest_path: str | Path | None = None,
    policy: Policy | None = None,
    provider: EmbeddingProvider | None = None,
    workers: int = 1,
) -> SuiteResult:
    """Run every question and write one RunRecord and trajectory JSON each."""
    out = Path(out_dir)
    (out / "records").mkdir(parents=True, exist_ok=True)
    (out / "trajectories").mkdir(parents=True, exist_ok=True)
    answer_dir = out / "answers"

    if policy is None:
        policy = scripted_policy_from_records(records)

    memory_store = (
        MemoryStore(store_root) if config.memory_enabled and store_root is not None else None
    )
    composites = (
        load_manifest(manifest_path)
        if config.composites_enabled and manifest_path is not None
        else None
    )

    def _one(record: QuestionRecord) -> tuple[RunRecord, EpisodeResult]:
        result = run_episode(
            record.question,
            workspace,
            config,
            policy,
            memory_store=memory_store,
            provider=provider,
            composites=composites,
            answer_dir=answer_dir,
        )
        correct: bool | None = None
        if record.gold_csv is not None:
            gold = load_gold_rows(workspace, record.gold_csv)
            correct = execution_accuracy(result.answer_rows, gold)
        run_record = RunRecord.from_trajectory(result.trajectory, result.answer_rows, correct)
        return run_record, result

    pairs: list[tuple[RunRecord, EpisodeResult]]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            pairs = list(pool.map(_one, records))
    else:
        pairs = [_one(record) for record in records]

    suite = SuiteResult(records=[], out_dir=out)
    for record, (run_record, result) in zip(records, pairs):
        suite.records.append(run_record)
        suite.results[record.question.id] = result
        (out / "records" / f"{record.question.id}.json").write_text(
            json.dumps(run_record.to_dict(), indent=2, ensure_ascii=False) + "\n",
            encoding="utf-8",
        )
        (out / "trajectories" / f"{record.question.id}.json").write_text(
            result.trajectory.to_json(), encoding="utf-8"
        )
    return suite
