"""Command-line surface: synth -> mine -> run -> report, plus utilities."""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import asdict
from pathlib import Path

from .classifier import DEFAULT_RULE_TABLE, classify_trajectory, load_rule_table, segment_trajectory
from .errors import TrajmemError
from .fixtures import build_fixture_workspace
from .harness import (
    EpisodeConfig,
    load_questions_file,
    memory_prefix,
    run_suite,
    scripted_policy_from_records,
)
from .llm import ChatEndpoint
from .metrics import load_run_records, report, report_dict
from .policies import HttpPolicy, Policy, RecordingPolicy, ReplayPolicy
from .mining import MinerConfig, export_manifest, mine_composites
from .model import Question, Trajectory, count_tokens
from .retrieval import select_trajectory
from .store import MemoryStore, existing_store
from .synthesis import QueryDistribution, allocate, generate_questions, synthesize_memory
from .tools import Workspace

logger = logging.getLogger(__name__)


def read_config(path: str | Path) -> dict[str, str]:
    """Parse a key=value config file; '#' starts a comment."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise TrajmemError(f"config line {lineno} is not key=value: {raw!r}")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip().strip('"')
    return values


def _config_value(args: argparse.Namespace, key: str, default: object) -> object:
    config = getattr(args, "_config_values", {})
    if key in config:
        raw = config[key]
        if isinstance(default, int):
            return int(raw)
        if isinstance(default, float):
            return float(raw)
        return raw
    return default


def _emit(args: argparse.Namespace, payload: dict, text: str) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2, ensure_ascii=False))
    else:
        print(text)


# -- commands -----------------------------------------------------------------


def cmd_fixtures(args: argparse.Namespace) -> int:
    path = build_fixture_workspace(args.out)
    _emit(args, {"workspace": str(path)}, f"fixture workspace written to {path}")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    workspace = Workspace(args.workspace)
    store = MemoryStore(args.store)

    if args.workload:
        distribution = QueryDistribution.from_workload_file(args.workload)
        databases = sorted(distribution.weights)
    else:
        databases = workspace.database_ids()
        distribution = QueryDistribution.uniform(databases)
    counts = allocate(databases, distribution, args.budget)
    total_entries = 0
    per_db: dict[str, int] = {}
    with workspace:
        for database_id in databases:
            schema_file = workspace.db_dir(database_id) / "schema.sql"
            schema = (
                schema_file.read_text(encoding="utf-8")
                if schema_file.is_file()
                else workspace.ddl(database_id)
            )
            existing = [entry.question for entry in store.load_entries(database_id)]
            questions = generate_questions(database_id, schema, existing, counts[database_id])
            entries = synthesize_memory(questions, workspace, store)
            per_db[database_id] = len(entries)
            total_entries += len(entries)
    payload = {"allocation": counts, "persisted": per_db, "total": total_entries}
    text = "\n".join(
        [f"allocated {counts[db]} question(s) to {db}, persisted {per_db[db]}" for db in databases]
        + [f"total entries persisted: {total_entries}"]
    )
    _emit(args, payload, text)
    return 0


def cmd_mine(args: argparse.Namespace) -> int:
    store = MemoryStore(args.store)
    corpus = [
        trajectory
        for database_id in store.database_ids()
        for trajectory in store.load_trajectories(database_id)
    ]
    if not corpus:
        print("error: store contains no trajectories to mine", file=sys.stderr)
        return 2
    tau = args.tau if args.tau is not None else float(_config_value(args, "tau", 0.5))
    max_size = (
        args.max_size if args.max_size is not None else int(_config_value(args, "max_size", 4))
    )
    config = MinerConfig(tau=tau, max_size=max_size)
    composites = mine_composites(corpus, config)
    export_manifest(composites, args.out)
    payload = {
        "corpus_size": len(corpus),
        "composites": [
            {
                "name": comp.name,
                "tools": list(comp.sequence.tools),
                "phase": comp.sequence.phase.value,
                "support_count": comp.support_count,
                "support_ratio": comp.support_ratio,
            }
            for comp in composites
        ],
        "manifest": str(args.out),
        # meta.json files parsed, and those skipped as corrupt.
        "entries": asdict(store.counts),
    }
    lines = [f"mined {len(composites)} composite(s) from {len(corpus)} trajectories:"]
    for comp in composites:
        lines.append(
            f"  {comp.name}  [{comp.sequence.phase.value}]  "
            f"support {comp.support_count} ({comp.support_ratio:.2f})"
        )
    if store.counts.corrupt:
        lines.append(f"skipped {store.counts.corrupt} corrupt stored entry(s)")
    lines.append(f"manifest written to {args.out}")
    _emit(args, payload, "\n".join(lines))
    return 0


def _build_policy(args: argparse.Namespace, records) -> Policy | None:
    """Resolve --policy: scripted (default), replay:<file>, or http:<url>."""
    spec = args.policy
    if spec == "scripted":
        policy = None
    elif spec.startswith("replay:"):
        policy = ReplayPolicy.from_file(spec.split(":", 1)[1])
    elif spec.startswith("http:") or spec.startswith("https:"):
        endpoint = ChatEndpoint(
            url=spec,
            model=str(_config_value(args, "chat_model", "default")),
            auth_env=str(_config_value(args, "chat_auth_env", "TRAJMEM_API_KEY")),
        )
        policy = HttpPolicy(endpoint)
    else:
        raise TrajmemError(f"unknown policy spec: {spec!r}")
    if args.record:
        inner = policy if policy is not None else scripted_policy_from_records(records)
        policy = RecordingPolicy(inner)
    return policy


def cmd_run(args: argparse.Namespace) -> int:
    if not args.no_memory and args.store is None:
        # run_suite would run such a suite with memory off, saying nothing.
        raise TrajmemError("memory is on but no --store was given; pass --store or --no-memory")
    workspace = Workspace(args.workspace)
    records = load_questions_file(args.questions)
    max_steps = (
        args.max_steps
        if args.max_steps is not None
        else int(_config_value(args, "max_planner_steps", 30))
    )
    config = EpisodeConfig(
        max_planner_steps=max_steps,
        sql_retry_limit=int(_config_value(args, "sql_retry_limit", 1)),
        memory_enabled=not args.no_memory,
        composites_enabled=not args.no_composites,
    )
    policy = _build_policy(args, records)
    with workspace:
        suite = run_suite(
            records,
            workspace,
            args.out,
            config,
            store_root=args.store,
            manifest_path=args.manifest,
            policy=policy,
            workers=args.workers,
        )
    if args.record and isinstance(policy, RecordingPolicy):
        policy.save(args.record)
    correct = sum(1 for r in suite.records if r.correct)
    scored = sum(1 for r in suite.records if r.correct is not None)
    payload = {
        "questions": len(suite.records),
        "scored": scored,
        "correct": correct,
        "total_steps": sum(r.steps for r in suite.records),
        "out": str(suite.out_dir),
    }
    _emit(
        args,
        payload,
        f"ran {len(suite.records)} question(s): {correct}/{scored} correct, "
        f"{payload['total_steps']} total steps, records in {suite.out_dir}",
    )
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    trajectory = Trajectory.from_json(Path(args.trajectory).read_text(encoding="utf-8"))
    table = load_rule_table(args.rules) if args.rules else DEFAULT_RULE_TABLE
    classified = classify_trajectory(trajectory, table)
    segments = segment_trajectory(classified)
    payload = {
        "phases": [step.phase.value for step in classified.steps],
        "segments": [
            {"phase": seg.phase.value, "start": seg.start, "end": seg.end}
            for seg in segments
        ],
    }
    lines = [
        f"step {step.index}: {step.phase.value}" for step in classified.steps
    ] + [
        "segments: "
        + ", ".join(f"{seg.phase.value}[{seg.start}-{seg.end}]" for seg in segments)
    ]
    _emit(args, payload, "\n".join(lines))
    return 0


def cmd_retrieve(args: argparse.Namespace) -> int:
    store = existing_store(args.store)
    question = Question(id="query", text=args.question, database_id=args.db)
    entry = select_trajectory(question, store)
    # Entries taken from the index, meta.json files parsed, entries skipped as corrupt.
    counts = asdict(store.counts)
    if entry is None:
        _emit(
            args,
            {"entry": None, "prefix_tokens": 0, "entries": counts},
            "(no stored entry for this database)",
        )
        return 0
    # What an episode asking this question would add to its context.
    tokens = count_tokens(memory_prefix(store, entry))
    _emit(
        args,
        {
            "entry": str(entry.path),
            "question_id": entry.question.id,
            "prefix_tokens": tokens,
            "entries": counts,
        },
        f"{entry.path}\nprefix tokens: {tokens}",
    )
    return 0


def cmd_show(args: argparse.Namespace) -> int:
    store = MemoryStore(args.store)
    entry = next((e for e in store.load_entries(args.db) if e.question.id == args.id), None)
    if entry is None or not store.read_segments(entry):
        print(f"error: no readable memory entry {args.id!r} in {args.db!r}", file=sys.stderr)
        return 2
    document = store.load_phase_segment(entry)
    if args.json:
        _emit(args, {"entry": str(entry.path), "document": document}, document)
    else:
        # The document's own bytes, whatever the terminal's encoding.
        sys.stdout.flush()
        sys.stdout.buffer.write(document.encode("utf-8"))
        sys.stdout.flush()
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    records = load_run_records(args.runs)
    if not records:
        print(f"error: no run records under {args.runs}", file=sys.stderr)
        return 2
    baseline = load_run_records(args.baseline) if args.baseline else None
    if args.json:
        print(
            json.dumps(
                report_dict(records, baseline, label=str(args.runs),
                            baseline_label=str(args.baseline) if args.baseline else "baseline"),
                indent=2,
                ensure_ascii=False,
            )
        )
    else:
        print(
            report(records, baseline, label=Path(args.runs).name,
                   baseline_label=Path(args.baseline).name if args.baseline else "baseline")
        )
    return 0


# -- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trajmem",
        description="Semantic trajectory memory engine and scripted SQL agent harness.",
    )
    parser.add_argument("--config", help="key=value config file", default=None)
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fixtures", help="materialize the bundled fixture workspace")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fixtures)

    p = sub.add_parser("synth", help="allocate, generate, and explore synthetic questions")
    p.add_argument("--workspace", required=True)
    p.add_argument("--workload", default=None, help="question_id database_id lines")
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--store", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("mine", help="mine composite tools from stored trajectories")
    p.add_argument("--store", required=True)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--max-size", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("run", help="run batched scripted episodes")
    p.add_argument("--questions", required=True)
    p.add_argument("--workspace", required=True)
    p.add_argument("--store", default=None)
    p.add_argument("--manifest", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--no-memory", action="store_true")
    p.add_argument("--no-composites", action="store_true")
    p.add_argument("--max-steps", type=int, default=None)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument(
        "--policy",
        default="scripted",
        help="scripted (default), replay:<script.json>, or http(s):<chat endpoint url>",
    )
    p.add_argument("--record", default=None, help="save a replayable script file")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("classify", help="print per-step phases of a trajectory file")
    p.add_argument("--trajectory", required=True)
    p.add_argument("--rules", default=None, help="optional rule table file")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("retrieve", help="print the selected entry path for a question")
    p.add_argument("--question", required=True)
    p.add_argument("--db", required=True)
    p.add_argument("--store", required=True)
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("show", help="print a stored entry's markdown document")
    p.add_argument("--store", required=True)
    p.add_argument("--db", required=True)
    p.add_argument("--id", required=True, help="the entry's question id")
    p.set_defaults(func=cmd_show)

    p = sub.add_parser("report", help="print the metrics table for a run directory")
    p.add_argument("--runs", required=True)
    p.add_argument("--baseline", default=None)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    args._config_values = read_config(args.config) if args.config else {}
    try:
        return args.func(args)
    except TrajmemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
