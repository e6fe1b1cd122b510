"""Write ``expected.json``: the pinned outputs the benchmark checks.

    python3 perfbench/pin.py

For every fixture question and every mode (memory prefix or not, mined
composites or not) it records EX, the step count and a digest of the run
record with ``wall_time_ms`` removed, plus the composite names that mining
the synthesized store yields. The store and the composites are built by
``workloads.Bench.build_store``, the set-up of ``explore-nomem``, so the pins
describe what the benchmark builds. Run it only when a change is meant to
alter what episodes do; the diff of ``expected.json`` then shows what moved.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import trajmem.harness as harness  # noqa: E402
import trajmem.metrics as metrics  # noqa: E402
import trajmem.mining as mining  # noqa: E402

import workloads  # noqa: E402
from checks import EXPECTED_PATH, mode_name, record_digest  # noqa: E402


def main() -> int:
    work = ROOT / "perfbench" / ".work" / "pin"
    shutil.rmtree(work, ignore_errors=True)
    try:
        built = workloads.Result()
        workspace, store, manifest = workloads.Bench(work, 0, built).build_store(work, 5)
        # Re-pinning may change the composite names; any other failure stops it.
        problems = [message for message in built.failures if not message.startswith("mined ")]
        if problems:
            raise SystemExit("set-up failed: " + "; ".join(problems))
        composites = mining.load_manifest(manifest)
        records = harness.load_questions_file(workspace.root / "questions.jsonl")
        policy = harness.scripted_policy_from_records(records)
        episodes: dict[str, dict] = {}
        for record in records:
            gold = harness.load_gold_rows(workspace, record.gold_csv)
            for memory in (True, False):
                for with_composites in (True, False):
                    config = harness.EpisodeConfig(memory_enabled=memory)
                    result = harness.run_episode(
                        record.question, workspace, config, policy,
                        memory_store=store if memory else None,
                        composites=composites if with_composites else None,
                        answer_dir=work / "answers",
                    )
                    correct = metrics.execution_accuracy(result.answer_rows, gold)
                    run_record = metrics.RunRecord.from_trajectory(
                        result.trajectory, result.answer_rows, correct
                    )
                    episodes.setdefault(record.question.id, {})[
                        mode_name(memory, with_composites)
                    ] = {"correct": correct, "steps": run_record.steps,
                         "digest": record_digest(run_record)}
    finally:
        shutil.rmtree(work)
    payload = {"composites": [c.name for c in composites], "episodes": episodes}
    EXPECTED_PATH.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
