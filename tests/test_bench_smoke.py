"""Smoke test for the benchmark driver in ``perfbench/``.

Each workload runs for one second with every layer traced. The traced run
patches trajmem functions at the bindings their callers look up, and counts
a span that never fires as a failed operation, so a refactor that renames or
bypasses such a binding fails here. No timing is asserted.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["learn-interleaved", "explore-nomem"])
def test_traced_bench_run_is_correct(workload):
    completed = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload",
            workload,
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "1",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0, completed.stderr
    assert result["correct"] is True
