"""The three workloads: set-up, the measured phase and the output checks.

Each workload is one closed loop with one client in one process: the next
operation starts when the previous one has returned. The package is called
the way the ``trajmem`` CLI calls it: ``synth`` is ``synthesize_memory``
with one shared ``HashingEmbedder``, ``mine`` is ``load_trajectories`` over
every database then ``mine_composites`` and ``export_manifest``, and ``run``
is ``load_questions_file`` then ``run_suite`` with no ``provider``, so each
episode builds a fresh embedder.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns
from typing import Callable

import trajmem.harness as harness
import trajmem.metrics as metrics
import trajmem.mining as mining
import trajmem.synthesis as synthesis
from trajmem.fixtures import build_fixture_workspace
from trajmem.model import Question
from trajmem.retrieval import HashingEmbedder
from trajmem.store import MemoryStore
from trajmem.tools import Workspace

import inputs
from checks import EXPECTED, check_record, mode_name
from tracing import patch

ROUND_FILES = 16  # distinct seeded question files the run phase cycles through
CYCLE_PAIRS = 120  # learn-interleaved: pairs per store lifetime; whole rounds of 12 questions
REMINE_EVERY = 25
MINER_CONFIG = mining.MinerConfig(tau=0.5, max_size=4)


@dataclass
class Result:
    """Samples and counts from one run; times in nanoseconds."""

    setup_ns: list[int] = field(default_factory=list)
    episode_ns: list[int] = field(default_factory=list)
    ingest_ns: list[int] = field(default_factory=list)
    mine_ns: list[int] = field(default_factory=list)
    measured_ns: int = 0
    measured_ops: int = 0
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    correct_flags: list[bool] = field(default_factory=list)
    steps: list[int] = field(default_factory=list)
    store_bytes_per_entry: float = 0.0
    records_written: int = 0
    # learn-interleaved: (entries in the question's database, episode ns)
    by_store_size: list[tuple[int, int]] = field(default_factory=list)

    def fail(self, message: str, ops: int = 1) -> None:
        self.failed += ops
        self.failures.append(message)


def mine(store: MemoryStore, manifest: Path) -> list:
    """The ``trajmem mine`` path, then the manifest reloaded as episodes load it."""
    corpus = [
        trajectory
        for database_id in store.database_ids()
        for trajectory in store.load_trajectories(database_id)
    ]
    mining.export_manifest(mining.mine_composites(corpus, MINER_CONFIG), manifest)
    return mining.load_manifest(manifest)


def apparent_bytes(root: Path) -> int:
    return sum(
        os.stat(os.path.join(folder, name)).st_size
        for folder, _, names in os.walk(root)
        for name in names
    )


class Bench:
    """Shared set-up steps, timed and checked."""

    def __init__(self, work: Path, seed: int, result: Result) -> None:
        self.work = work
        self.seed = seed
        self.result = result
        self.suites = 0  # run_suite calls so far; picks the next question file

    def ingest(self, question: Question, workspace: Workspace, store: MemoryStore,
               provider: HashingEmbedder) -> bool:
        self.result.attempted += 1
        start = perf_counter_ns()
        try:
            entries = synthesis.synthesize_memory([question], workspace, store, provider=provider)
        except Exception as exc:  # noqa: BLE001 - counted as a failed operation
            self.result.fail(f"ingest {question.id} raised {type(exc).__name__}: {exc}")
            return False
        self.result.ingest_ns.append(perf_counter_ns() - start)
        if len(entries) != 1:
            self.result.fail(f"ingest {question.id} persisted {len(entries)} entries, not 1")
            return False
        return True

    def remine(self, store: MemoryStore, manifest: Path) -> list:
        """One timed ``mine``, checked against the pinned composite names."""
        self.result.attempted += 1
        start = perf_counter_ns()
        try:
            composites = mine(store, manifest)
        except Exception as exc:  # noqa: BLE001 - counted as a failed operation
            self.result.fail(f"mine raised {type(exc).__name__}: {exc}")
            return []
        self.result.mine_ns.append(perf_counter_ns() - start)
        names = [composite.name for composite in composites]
        if names != EXPECTED.get("composites"):
            self.result.fail(f"mined {names}, pinned {EXPECTED.get('composites')}")
        return composites

    def build_store(self, target: Path, per_db: int) -> tuple[Workspace, MemoryStore, Path]:
        """Fixtures, ``per_db`` synthesized entries per database, then a mine."""
        workspace = Workspace(build_fixture_workspace(target / "workspace"))
        store = MemoryStore(target / "store", dimension=256)
        provider = HashingEmbedder(store.dimension)
        questions = inputs.store_questions(random.Random(self.seed), per_db)
        persisted = sum(self.ingest(q, workspace, store, provider) for q in questions)
        manifest = target / "manifest.json"
        self.remine(store, manifest)
        if persisted:
            self.result.store_bytes_per_entry = apparent_bytes(store.root) / persisted
        return workspace, store, manifest

    def setup(self, build: Callable[[Path], object]) -> object:
        """Run one timed set-up in a fresh directory. Directories are removed
        when the run ends, not in between."""
        start = perf_counter_ns()
        built = build(self.work / f"setup-{len(self.result.setup_ns)}")
        self.result.setup_ns.append(perf_counter_ns() - start)
        return built

    def question_files(self, workspace: Workspace) -> list:
        rng = random.Random(f"{self.seed}/rounds")
        folder = self.work / "questions"
        folder.mkdir(exist_ok=True)
        return [
            harness.load_questions_file(
                inputs.write_questions_file(
                    workspace.root, inputs.fixture_round(rng), folder / f"round-{n}.jsonl"
                )
            )
            for n in range(ROUND_FILES)
        ]


@dataclass
class Setup:
    """What set-up leaves for the measured phase."""

    workspace: Workspace
    rounds: list  # seeded question files, parsed by load_questions_file
    store: MemoryStore | None = None
    manifest: Path | None = None


def store_setup(bench: Bench, per_db: int) -> Callable[[Path], Setup]:
    def build(target: Path) -> Setup:
        workspace, store, manifest = bench.build_store(target, per_db)
        return Setup(workspace, bench.question_files(workspace), store, manifest)

    return build


def fixtures_setup(bench: Bench) -> Callable[[Path], Setup]:
    def build(target: Path) -> Setup:
        workspace = Workspace(build_fixture_workspace(target / "workspace"))
        return Setup(workspace, bench.question_files(workspace))

    return build


def run_suites(bench: Bench, setup: Setup, seconds: float, memory: bool) -> None:
    """Closed loop over whole ``run_suite`` calls until ``seconds`` have passed.

    Each call writes to an output directory of its own, as one ``trajmem run``
    into a new directory does. Rewriting the same answer and record files
    instead would, on ext4 mounted with ``discard``, make every rewrite wait
    for the device to discard the blocks the last one wrote (0.16 ms against
    0.05 ms for a new file at the median), so the episode tail would follow
    the shared disk.
    """
    result = bench.result
    config = harness.EpisodeConfig(memory_enabled=memory, composites_enabled=True)
    mode = mode_name(memory, True)
    store_root = setup.store.root if memory else None
    start = perf_counter_ns()
    deadline = start + int(seconds * 1e9)
    while perf_counter_ns() < deadline:
        records = setup.rounds[bench.suites % len(setup.rounds)]
        out = bench.work / "run" / str(bench.suites)
        bench.suites += 1
        result.attempted += len(records)
        try:
            suite = harness.run_suite(
                records, setup.workspace, out, config,
                store_root=store_root, manifest_path=setup.manifest, workers=1,
            )
        except Exception as exc:  # noqa: BLE001 - every episode of the suite failed
            result.fail(f"run_suite raised {type(exc).__name__}: {exc}", len(records))
            continue
        result.measured_ops += len(suite.records)
        result.records_written += len(suite.records)
        for record in suite.records:
            check_record(result, record, mode)
    result.measured_ns += perf_counter_ns() - start


def learn_interleaved(bench: Bench, setup: Setup, seconds: float) -> None:
    """Alternate one ingest and one memory-on episode on one shared store,
    re-mining every 25 ingests. Each cycle starts from an empty store and
    runs CYCLE_PAIRS pairs, so every cycle sees the same store sizes; whole
    cycles run until ``seconds`` have passed. Each episode writes its answer
    into a directory of its own, for the reason ``run_suites`` gives."""
    result = bench.result
    workspace = setup.workspace
    ingests = inputs.store_questions(random.Random(bench.seed), CYCLE_PAIRS // 2)
    episodes = [record for records in setup.rounds for record in records]
    policy = harness.scripted_policy_from_records(setup.rounds[0])
    config = harness.EpisodeConfig(memory_enabled=True, composites_enabled=True)

    start = perf_counter_ns()
    deadline = start + int(seconds * 1e9)
    cycle = 0
    while perf_counter_ns() < deadline:
        target = bench.work / f"cycle-{cycle}"
        store = MemoryStore(target / "store", dimension=256)
        provider = HashingEmbedder(store.dimension)
        manifest = target / "manifest.json"
        composites: list = []
        per_db = {db: 0 for db in workspace.database_ids()}
        for pair in range(CYCLE_PAIRS):
            question = ingests[pair]
            if bench.ingest(question, workspace, store, provider):
                per_db[question.database_id] += 1
            result.measured_ops += 1
            if (pair + 1) % REMINE_EVERY == 0:
                composites = bench.remine(store, manifest)
                result.measured_ops += 1
            record = episodes[(cycle * CYCLE_PAIRS + pair) % len(episodes)]
            _learn_episode(bench, workspace, store, config, policy, composites, per_db,
                           record, target / "answers" / str(pair))
            result.measured_ops += 1
        result.store_bytes_per_entry = apparent_bytes(store.root) / max(1, sum(per_db.values()))
        cycle += 1
    result.measured_ns += perf_counter_ns() - start


def _learn_episode(bench: Bench, workspace: Workspace, store: MemoryStore,
                   config: harness.EpisodeConfig, policy, composites: list,
                   per_db: dict, record, answers: Path) -> None:
    """One memory-on episode, scored as ``run_suite`` scores it and checked
    against the pins; no record files are written."""
    result = bench.result
    result.attempted += 1
    question = record.question
    try:
        episode = harness.run_episode(
            question, workspace, config, policy,
            memory_store=store, composites=composites, answer_dir=answers,
        )
    except Exception as exc:  # noqa: BLE001 - counted as a failed operation
        result.fail(f"episode {question.id} raised {type(exc).__name__}: {exc}")
        return
    result.by_store_size.append((per_db[question.database_id], result.episode_ns[-1]))
    gold = harness.load_gold_rows(workspace, record.gold_csv)
    correct = metrics.execution_accuracy(episode.answer_rows, gold)
    run_record = metrics.RunRecord.from_trajectory(episode.trajectory, episode.answer_rows, correct)
    check_record(result, run_record, mode_name(per_db[question.database_id] > 0, bool(composites)))


@dataclass(frozen=True)
class Workload:
    """How a run is laid out: ``rounds`` times, ``setups`` set-ups and then
    ``seconds / rounds`` of the measured phase. Spreading the set-ups over
    the run samples their timings at the same moments as the measured
    operations, so a slow minute of the machine weighs on both alike."""

    make_setup: Callable[[Bench], Callable[[Path], Setup]]
    measure: Callable[[Bench, Setup, float], None]
    rounds: int
    setups: int = 1


WORKLOADS = {
    "recall-1k": Workload(
        lambda bench: store_setup(bench, 500),
        lambda bench, setup, seconds: run_suites(bench, setup, seconds, memory=True),
        rounds=5,
    ),
    "explore-nomem": Workload(
        lambda bench: store_setup(bench, 5),
        lambda bench, setup, seconds: run_suites(bench, setup, seconds, memory=False),
        rounds=50,
    ),
    # A cycle must not be cut, so all set-ups come first.
    "learn-interleaved": Workload(fixtures_setup, learn_interleaved, rounds=1, setups=50),
}


def time_episodes(result: Result) -> Callable[[], None]:
    """Time every ``run_episode`` call made by ``run_suite`` or the loop above."""

    def make(original: Callable) -> Callable:
        def timed(*args, **kwargs):
            start = perf_counter_ns()
            value = original(*args, **kwargs)
            result.episode_ns.append(perf_counter_ns() - start)
            return value

        return timed

    return patch(harness, "run_episode", make)
