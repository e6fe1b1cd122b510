"""Pinned outputs and the checks against them.

``expected.json`` holds, for every fixture question and mode, the EX
verdict, the step count and a digest of the run record with
``wall_time_ms`` removed, and the composite names mining must yield.
``pin.py`` writes it.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from trajmem.metrics import RunRecord

EXPECTED_PATH = Path(__file__).with_name("expected.json")
EXPECTED = json.loads(EXPECTED_PATH.read_text(encoding="utf-8")) if EXPECTED_PATH.is_file() else {}


def mode_name(memory: bool, composites: bool) -> str:
    return f"{'memory' if memory else 'no-memory'}+{'composites' if composites else 'no-composites'}"


def record_digest(record: RunRecord) -> str:
    data = record.to_dict()
    del data["wall_time_ms"]
    blob = json.dumps(data, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def check_record(result, record: RunRecord, mode: str) -> None:
    """Compare one run record with the pinned EX, step count and digest."""
    result.correct_flags.append(bool(record.correct))
    result.steps.append(record.steps)
    pinned = EXPECTED["episodes"][record.question_id][mode]
    if (record.correct, record.steps, record_digest(record)) != (
        pinned["correct"],
        pinned["steps"],
        pinned["digest"],
    ):
        result.fail(
            f"{record.question_id} [{mode}]: correct={record.correct} steps={record.steps} "
            f"digest={record_digest(record)[:12]}, pinned {pinned}"
        )
