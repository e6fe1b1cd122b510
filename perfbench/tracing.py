"""Layer spans recorded from outside the package.

Each span wraps one public function of a ``trajmem`` module, patched at the
binding its caller actually looks up: a module global such as
``trajmem.harness.select_trajectory`` (run_episode's own lookup), or a
class attribute such as ``MemoryStore.load_entries`` for method calls.
Spans are aggregated in memory as they end (calls, inclusive and self
time, and the parent span that caused them) and written out when the run
ends. Self time is a span's duration minus the time of its child spans.

``trajmem.llm`` and the HTTP ports (policies, embedders, summarizers,
namers) are on no offline path, so they are not wrapped.
"""

from __future__ import annotations

import inspect
import os
import pathlib
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable

import trajmem.backend
import trajmem.harness
import trajmem.metrics
import trajmem.mining
import trajmem.model
import trajmem.policies
import trajmem.retrieval
import trajmem.store
import trajmem.synthesis
import trajmem.tools

Observer = Callable[["Tracer", tuple, Any], None]


def patch(owner: Any, attr: str, make: Callable[[Callable], Callable]) -> Callable[[], None]:
    """Replace ``owner.attr`` by ``make(original)``; return the undo."""
    original = inspect.getattr_static(owner, attr)
    setattr(owner, attr, make(original))
    return lambda: setattr(owner, attr, original)


class _Stat:
    __slots__ = ("calls", "total_ns", "self_ns")

    def __init__(self) -> None:
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0


class Tracer:
    """In-memory span aggregates keyed by span name and by caller edge."""

    def __init__(self) -> None:
        self.stats: dict[str, _Stat] = defaultdict(_Stat)
        self.edges: Counter = Counter()  # (parent, child) -> calls
        self.counters: Counter = Counter()
        self.sizes: dict[str, int] = {}  # file sizes, read once per path
        self._stack: list[list] = []  # [name, child_ns]
        self._undo: list[Callable[[], None]] = []

    def wrap(self, owner: Any, attr: str, name: str, observe: Observer | None = None,
             under: str | None = None) -> None:
        """Record ``owner.attr`` as span ``name``; with ``under``, only the
        calls made directly inside a span of that name."""
        tracer, stack, stats, edges = self, self._stack, self.stats, self.edges

        def make(original: Callable) -> Callable:
            def traced(*args: Any, **kwargs: Any) -> Any:
                if under is not None and (not stack or stack[-1][0] != under):
                    return original(*args, **kwargs)
                frame = [name, 0]
                parent = stack[-1] if stack else None
                stack.append(frame)
                start = perf_counter_ns()
                try:
                    result = original(*args, **kwargs)
                except BaseException:
                    tracer.counters[f"{name}.raised"] += 1
                    raise
                finally:
                    duration = perf_counter_ns() - start
                    stack.pop()
                    stat = stats[name]
                    stat.calls += 1
                    stat.total_ns += duration
                    stat.self_ns += duration - frame[1]
                    if parent is not None:
                        parent[1] += duration
                    edges[(parent[0] if parent else "-", name)] += 1
                if observe is not None:
                    observe(tracer, args, result)
                return result

            return traced

        self._undo.append(patch(owner, attr, make))

    def close(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- reading -----------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats[name].calls if name in self.stats else 0

    def mean_ms(self, name: str, self_time: bool = False) -> float:
        stat = self.stats.get(name)
        if stat is None or stat.calls == 0:
            return 0.0
        return (stat.self_ns if self_time else stat.total_ns) / stat.calls / 1e6

    def table(self) -> list[dict]:
        """One row per span name: calls, inclusive and self milliseconds."""
        return [
            {
                "span": name,
                "calls": stat.calls,
                "total_ms": stat.total_ns / 1e6,
                "self_ms": stat.self_ns / 1e6,
                "callers": {
                    parent: count for (parent, child), count in self.edges.items() if child == name
                },
            }
            for name, stat in sorted(self.stats.items())
        ]


# -- counters read from arguments and results --------------------------------

def _size(tracer: Tracer, path: Path) -> int:
    # Entries are written once under a fresh path, so a cached size stays right.
    key = str(path)
    size = tracer.sizes.get(key)
    if size is None:
        size = tracer.sizes[key] = os.stat(key).st_size
    return size


def _hits(tracer: Tracer, args: tuple, entry: Any) -> None:
    tracer.counters["retrieval.hits"] += entry is not None


def _candidates(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.counters["retrieval.candidates"] += len(args[1])


def _entries_read(tracer: Tracer, args: tuple, entries: list) -> None:
    tracer.counters["store.load_entries_bytes"] += sum(
        _size(tracer, entry.path / "meta.json") for entry in entries
    )


def _trajectories_read(tracer: Tracer, args: tuple, result: Any) -> None:
    store, database_id = args[0], args[1]
    tracer.counters["store.load_trajectories_bytes"] += sum(
        _size(tracer, entry / "meta.json")
        for entry in (store.root / database_id).iterdir()
        if entry.is_dir() and not entry.name.startswith(".")
    )


def _persisted(tracer: Tracer, args: tuple, final: Path) -> None:
    tracer.counters["store.persist_bytes"] += sum(item.stat().st_size for item in final.iterdir())


def _composites(tracer: Tracer, args: tuple, mined: list) -> None:
    tracer.counters["mining.composites"] += len(mined)


def _invocations(tracer: Tracer, args: tuple, result: tuple) -> None:
    invocations = result[0]
    tracer.counters["tools.invocations"] += len(invocations)
    tracer.counters["tools.invocations_failed"] += sum(not inv.succeeded for inv in invocations)


def _refinements(tracer: Tracer, args: tuple, outcome: Any) -> None:
    tracer.counters["backend.refinements"] += outcome.refinements


def install(tracer: Tracer) -> None:
    """Wrap every traced binding. Names are ``<layer>.<operation>``."""
    harness, store, retrieval = trajmem.harness, trajmem.store, trajmem.retrieval
    mining, synthesis = trajmem.mining, trajmem.synthesis
    wrap = tracer.wrap
    wrap(harness, "run_suite", "harness.suite")
    # run_suite's own writes: each trajectory's JSON and the two files per record.
    wrap(trajmem.model.Trajectory, "to_json", "harness.record_write", under="harness.suite")
    wrap(pathlib.Path, "write_text", "harness.record_write", under="harness.suite")
    wrap(harness, "run_episode", "harness.episode")
    wrap(harness, "build_planner_registry", "harness.registry")
    wrap(synthesis, "run_episode", "synthesis.explore")
    wrap(harness, "select_trajectory", "retrieval.select", _hits)
    wrap(retrieval, "select_from_entries", "retrieval.score", _candidates)
    wrap(retrieval.HashingEmbedder, "embed", "retrieval.embed")
    wrap(store.MemoryStore, "load_entries", "store.load_entries", _entries_read)
    wrap(store.MemoryStore, "load_phase_segment", "store.load_phase_segment")
    wrap(store.MemoryStore, "load_trajectories", "store.load_trajectories", _trajectories_read)
    wrap(store.MemoryStore, "persist", "store.persist", _persisted)
    wrap(synthesis, "structure_trajectory", "store.structure")
    wrap(mining, "mine_composites", "mining.mine", _composites)
    for owner in (mining, harness):
        wrap(owner, "load_manifest", "mining.manifest")
    wrap(mining, "export_manifest", "mining.manifest")
    for policy in (trajmem.policies.ScriptedPolicy, trajmem.policies.ExplorerPolicy):
        wrap(policy, "next_action", "policies.next_action")
    wrap(harness, "execute_action", "tools.execute_action", _invocations)
    wrap(trajmem.tools.Workspace, "ddl", "tools.ddl")
    wrap(trajmem.tools, "execute_sql_with_refinement", "backend.sql", _refinements)
    wrap(trajmem.backend.SqliteBackend, "execute", "backend.execute")
    wrap(harness, "classify_trajectory", "classifier.classify")
    for owner in (harness, trajmem.metrics):
        wrap(owner, "execution_accuracy", "metrics.ex")
    wrap(harness, "load_gold_rows", "metrics.gold")


ALL = ("recall-1k", "explore-nomem", "learn-interleaved")
MEMORY = ("recall-1k", "learn-interleaved")

# Workloads on which each span must fire. A refactor that moves a call
# away from the binding wrapped above fails this check instead of silently
# zeroing a layer.
EXPECTED = {
    "harness.episode": ALL,
    "harness.registry": ALL,
    "policies.next_action": ALL,
    "tools.execute_action": ALL,
    "tools.ddl": ALL,
    "backend.sql": ALL,
    "backend.execute": ALL,
    "classifier.classify": ALL,
    "metrics.ex": ALL,
    "metrics.gold": ALL,
    "mining.manifest": ALL,
    "harness.suite": ("recall-1k", "explore-nomem"),
    "harness.record_write": ("recall-1k", "explore-nomem"),
    "retrieval.select": MEMORY,
    "retrieval.score": MEMORY,
    "retrieval.embed": MEMORY,
    "store.load_entries": MEMORY,
    "store.load_phase_segment": MEMORY,
    "synthesis.explore": ("learn-interleaved",),
    "store.structure": ("learn-interleaved",),
    "store.persist": ("learn-interleaved",),
    "store.load_trajectories": ("learn-interleaved",),
    "mining.mine": ("learn-interleaved",),
}


def coverage_errors(tracer: Tracer, workload: str) -> list[str]:
    errors = [
        f"span {name} never fired on {workload}"
        for name, workloads in EXPECTED.items()
        if workload in workloads and tracer.calls(name) == 0
    ]
    if workload == "explore-nomem":
        errors += [
            f"span {name} fired {stat.calls} times on explore-nomem, which has memory off"
            for name, stat in tracer.stats.items()
            if name.startswith("retrieval.") and stat.calls
        ]
    return errors


def layer_metrics(tracer: Tracer, ops: int, records_written: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics: ms are means per call, counts are per operation."""
    c = tracer.counters

    def per_op(value: float) -> float:
        return value / ops if ops else 0.0

    def per_call(value: float, name: str) -> float:
        calls = tracer.calls(name)
        return value / calls if calls else 0.0

    episode = tracer.stats.get("harness.episode")
    select = tracer.stats.get("retrieval.select")
    write = tracer.stats.get("harness.record_write")
    ms = tracer.mean_ms
    return {
        "retrieval.select_ms": (ms("retrieval.select"), "ms"),
        "retrieval.select_share": (
            100.0 * select.total_ns / episode.total_ns if select and episode else 0.0,
            "%",
        ),
        "retrieval.score_ms": (ms("retrieval.score", self_time=True), "ms"),
        "retrieval.candidates": (per_call(c["retrieval.candidates"], "retrieval.score"), "count"),
        "retrieval.embed_ms": (ms("retrieval.embed"), "ms"),
        "retrieval.embed_calls": (per_op(tracer.calls("retrieval.embed")), "count"),
        "retrieval.hit_ratio": (per_call(c["retrieval.hits"], "retrieval.select"), "ratio"),
        "store.load_entries_ms": (ms("store.load_entries"), "ms"),
        "store.load_entries_bytes": (
            per_call(c["store.load_entries_bytes"], "store.load_entries"),
            "B",
        ),
        "store.load_phase_segment_ms": (ms("store.load_phase_segment"), "ms"),
        "store.structure_ms": (ms("store.structure"), "ms"),
        "store.persist_ms": (ms("store.persist"), "ms"),
        "store.persist_bytes": (per_call(c["store.persist_bytes"], "store.persist"), "B"),
        "store.load_trajectories_ms": (ms("store.load_trajectories"), "ms"),
        "store.load_trajectories_bytes": (
            per_call(c["store.load_trajectories_bytes"], "store.load_trajectories"),
            "B",
        ),
        "mining.mine_ms": (ms("mining.mine"), "ms"),
        "mining.composites": (per_call(c["mining.composites"], "mining.mine"), "count"),
        "mining.manifest_ms": (ms("mining.manifest"), "ms"),
        "harness.registry_ms": (ms("harness.registry"), "ms"),
        "policies.next_action_ms": (ms("policies.next_action"), "ms"),
        "policies.decisions": (per_op(tracer.calls("policies.next_action")), "count"),
        "tools.execute_action_ms": (ms("tools.execute_action", self_time=True), "ms"),
        "tools.invocations": (per_op(c["tools.invocations"]), "count"),
        "tools.invocations_failed": (per_op(c["tools.invocations_failed"]), "count"),
        "tools.ddl_ms": (ms("tools.ddl"), "ms"),
        "tools.ddl_calls": (per_op(tracer.calls("tools.ddl")), "count"),
        "backend.execute_ms": (ms("backend.execute"), "ms"),
        "backend.queries": (per_op(tracer.calls("backend.execute")), "count"),
        "backend.errors": (per_op(c["backend.execute.raised"]), "count"),
        "backend.refinements": (per_op(c["backend.refinements"]), "count"),
        "classifier.classify_ms": (ms("classifier.classify"), "ms"),
        "metrics.ex_ms": (ms("metrics.ex"), "ms"),
        "metrics.gold_ms": (ms("metrics.gold"), "ms"),
        "harness.record_write_ms": (
            write.total_ns / records_written / 1e6 if write and records_written else 0.0,
            "ms",
        ),
        "harness.episode_self_ms": (ms("harness.episode", self_time=True), "ms"),
        "synthesis.explore_ms": (ms("synthesis.explore"), "ms"),
    }

