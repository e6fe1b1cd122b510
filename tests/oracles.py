"""Independent brute-force reference implementations used to check the library.

These deliberately restate the definitions with different code paths than
the modules they verify: explicit window enumeration and per-candidate
containment scans for mining, a dense float embedding, an explicit
filter-then-scan argmax over exact fractions for retrieval, and a playbook
spelled out step kind by step kind for the scripted policy.
"""

from __future__ import annotations

import json
import math
import zlib
from fractions import Fraction
from itertools import permutations
from pathlib import Path
from typing import Collection, Sequence

from trajmem.metrics import _cells_equal
from trajmem.mining import ToolSequence
from trajmem.model import Phase, Question, Trajectory
from trajmem.policies import QuestionScript
from trajmem.retrieval import HashingEmbedder
from trajmem.store import (
    MemoryEntry,
    StructuredSegment,
    StructuredTrajectory,
    structure_trajectory,
)


def _flat(trajectory: Trajectory) -> list[tuple[str, Phase]]:
    pairs: list[tuple[str, Phase]] = []
    for step in trajectory.steps:
        assert step.phase is not None
        for inv in step.invocations:
            pairs.append((inv.tool_name, step.phase))
    return pairs


def _contains(
    pairs: list[tuple[str, Phase]], tools: tuple[str, ...], phase: Phase
) -> bool:
    for start in range(len(pairs)):
        if start + len(tools) > len(pairs):
            return False
        window = pairs[start : start + len(tools)]
        if [t for t, _ in window] == list(tools) and all(p == phase for _, p in window):
            return True
    return False


def count_support(corpus: list[Trajectory], sequence: ToolSequence) -> int:
    """Trajectories containing the run in-phase; each counts at most once."""
    return sum(1 for t in corpus if _contains(_flat(t), sequence.tools, sequence.phase))


def brute_force_mine(
    corpus: list[Trajectory], tau: float, max_size: int
) -> set[tuple[tuple[str, ...], Phase, int]]:
    """Every maximal in-phase window meeting the support threshold."""
    flats = [_flat(t) for t in corpus]

    phases_seen: dict[str, set[Phase]] = {}
    for pairs in flats:
        for tool, phase in pairs:
            phases_seen.setdefault(tool, set()).add(phase)
    cross = {tool for tool, phases in phases_seen.items() if len(phases) >= 2}

    candidates: set[tuple[tuple[str, ...], Phase]] = set()
    for pairs in flats:
        for start in range(len(pairs)):
            for size in range(2, max_size + 1):
                if start + size > len(pairs):
                    continue
                window = pairs[start : start + size]
                phases = {p for _, p in window}
                tools = tuple(t for t, _ in window)
                if len(phases) == 1 and not (set(tools) & cross):
                    candidates.add((tools, window[0][1]))

    total = len(corpus)
    qualifying: dict[tuple[tuple[str, ...], Phase], int] = {}
    for tools, phase in candidates:
        support = sum(1 for pairs in flats if _contains(pairs, tools, phase))
        if support / total >= tau:
            qualifying[(tools, phase)] = support

    def subsumed(tools: tuple[str, ...], phase: Phase) -> bool:
        for (other_tools, other_phase) in qualifying:
            if other_phase != phase or len(other_tools) <= len(tools):
                continue
            for start in range(len(other_tools) - len(tools) + 1):
                if other_tools[start : start + len(tools)] == tools:
                    return True
        return False

    return {
        (tools, phase, support)
        for (tools, phase), support in qualifying.items()
        if not subsumed(tools, phase)
    }


def reference_embed(text: str, dimension: int) -> list[float]:
    """Hashed character trigrams, counted densely and L2-normalized."""
    buckets = [0.0] * dimension
    lowered = text.lower()
    if len(lowered) < 3:
        buckets[0] = 1.0
    else:
        for start in range(len(lowered) - 2):
            trigram = lowered[start : start + 3]
            buckets[zlib.crc32(trigram.encode("utf-8")) % dimension] += 1.0
    return _dense_l2_normalize(buckets)


def _dense_l2_normalize(vector: Sequence[float]) -> list[float]:
    norm = math.sqrt(sum(v * v for v in vector))
    if norm == 0.0:
        return list(vector)
    return [v / norm for v in vector]


def cosine_similarity(a: Sequence[float], b: Sequence[float]) -> float:
    """Cosine of the angle between two dense vectors, clamped to [-1, 1]."""
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    na = _dense_l2_normalize(a)
    nb = _dense_l2_normalize(b)
    dot = sum(x * y for x, y in zip(na, nb))
    return max(-1.0, min(1.0, dot))


def exact_similarity(provider: HashingEmbedder, a: str, b: str) -> Fraction:
    """The squared cosine of two texts' embeddings, exactly: dot² / (|a|² |b|²)
    over their integer trigram counts."""
    counts_a, counts_b = provider.trigram_counts(a), provider.trigram_counts(b)
    dot = sum(count * counts_b[bucket] for bucket, count in counts_a.items())
    norm_a = sum(count * count for count in counts_a.values())
    norm_b = sum(count * count for count in counts_b.values())
    return Fraction(dot * dot, norm_a * norm_b)


def brute_force_select(
    question: Question, entries: list[MemoryEntry], provider: HashingEmbedder
) -> MemoryEntry | None:
    """Exhaustive scan: same-database filter, then argmax of the exact squared
    cosine (the cosine is never negative, so squaring keeps its order), then
    the smallest question id among exact ties; of equal ids, the first."""
    matching = [e for e in entries if e.database_id == question.database_id]
    if not matching:
        return None
    scored = [(exact_similarity(provider, question.text, e.question.text), e) for e in matching]
    best_score = max(score for score, _ in scored)
    tied = [e for score, e in scored if score == best_score]
    return min(tied, key=lambda e: e.question.id)


def entries_on_disk(database_dir: Path, corrupt: Collection[str] = ()) -> list[MemoryEntry]:
    """Every entry under a database directory, read with ``json`` alone: no
    store, no cache and no index. Entries named in ``corrupt`` are left out;
    any other entry that cannot be read raises.

    A ``meta.json`` without ``segments`` gets those its trajectory renders,
    once the fields its writer leaves out are filled in: the ids from its
    question, each step's index from its position and an absent
    observation from the step's invocations."""
    entries = []
    for entry_dir in sorted(database_dir.iterdir() if database_dir.is_dir() else []):
        if entry_dir.name.startswith(".") or not entry_dir.is_dir() or entry_dir.name in corrupt:
            continue
        meta = json.loads((entry_dir / "meta.json").read_text(encoding="utf-8"))
        question = Question(**meta["question"])
        if "segments" in meta:
            segments = [
                StructuredSegment(Phase(seg["phase"]), seg["header"], seg["body"])
                for seg in meta["segments"]
            ]
        else:
            segments = structure_trajectory(_filled_trajectory(meta)).segments
        entries.append(
            MemoryEntry(question, StructuredTrajectory(segments), meta["created_at"], entry_dir)
        )
    return entries


def _filled_trajectory(meta: dict) -> Trajectory:
    raw = meta["trajectory"]
    steps = []
    for position, stored in enumerate(raw.get("steps", [])):
        data = dict(stored)
        data.setdefault("index", position)
        if "observation" not in data:
            data["observation"] = "\n\n".join(
                "### " + invocation["tool_name"] + "\n" + invocation.get("output", "")
                for invocation in data.get("invocations", [])
            )
        steps.append(data)
    data = dict(raw, steps=steps)
    data.setdefault("question_id", meta["question"]["id"])
    data.setdefault("database_id", meta["question"]["database_id"])
    return Trajectory.from_dict(data)


def brute_force_execution_accuracy(
    predicted: list[list[object]], gold: list[list[object]]
) -> bool:
    """Some column order and some row pairing make every cell equal."""
    if len(predicted) != len(gold):
        return False
    if not gold:
        return True
    width = len(gold[0])
    return any(
        all(
            _cells_equal(row[column], gold_row[j])
            for row, gold_row in zip(paired, gold)
            for j, column in enumerate(columns)
        )
        for columns in permutations(range(width))
        for paired in permutations(predicted)
    )


def reference_playbook(
    script: QuestionScript, database_id: str, has_prefix: bool, bootstrap_visible: bool
) -> list[tuple[str, str, str | None]]:
    """The scripted policy's (thought, action code, final answer) at each
    position, spelled out step kind by step kind.

    Without a memory prefix: fetch, one probe per script probe, plan. With
    one: fetch alone. Then the main query, a check when asked for, validate,
    save and report. The fetch is the bootstrap composite when the registry
    shows it, else the knowledge file and then the schema."""
    if has_prefix:
        kinds = ["fetch"]
    else:
        kinds = ["fetch"] + ["probe"] * len(script.probes) + ["plan"]
    kinds += ["main"] + (["check"] if script.check else []) + ["validate", "save", "report"]

    db = repr(database_id)
    playbook: list[tuple[str, str, str | None]] = []
    probes = iter(script.probes)
    for kind in kinds:
        if kind == "fetch" and bootstrap_visible:
            playbook.append(
                (
                    "Load the knowledge file and schema in one step.",
                    "get_ext_then_get_ddl(database=" + db + ")",
                    None,
                )
            )
        elif kind == "fetch":
            playbook += [
                ("Read the external knowledge file.", "get_ext(database=" + db + ")", None),
                ("Fetch the schema definition.", "get_ddl(database=" + db + ")", None),
            ]
        elif kind == "probe":
            playbook.append(
                (
                    "Probe a few rows to understand the data.",
                    "sql_execute(query=" + repr(next(probes)) + ")",
                    None,
                )
            )
        elif kind == "plan":
            playbook.append(
                ("Plan: translate the question into one query on " + database_id + ".", "", None)
            )
        elif kind == "main":
            playbook.append(
                ("Run the main query.", "sql_execute(query=" + repr(script.main_sql) + ")", None)
            )
        elif kind == "check":
            playbook.append(
                ("Check that the result looks plausible before validating.", "", None)
            )
        elif kind == "validate":
            playbook.append(
                ("Validate the result by re-running the final query.", "validate_result()", None)
            )
        elif kind == "save":
            playbook.append(("Save the answer rows.", "save_result()", None))
        else:
            playbook.append(("Report the answer.", "", script.answer))
    return playbook


def reference_allocate(counts: dict[str, int], n: int) -> dict[str, int]:
    """Largest-remainder allocation in integers: one question per database,
    then each database's quota (n - databases) * count / total split into
    its whole part and a remainder numerator over total; leftover seats go
    to the largest numerators, ties to the smaller database id."""
    total = sum(counts.values())
    spare = n - len(counts)
    allocation = {db: 1 + spare * count // total for db, count in counts.items()}
    leftover = n - sum(allocation.values())
    by_remainder = sorted(counts, key=lambda db: (-(spare * counts[db] % total), db))
    for db in by_remainder[:leftover]:
        allocation[db] += 1
    return allocation
