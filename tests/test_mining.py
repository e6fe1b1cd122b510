from __future__ import annotations

import random

import pytest

from trajmem.errors import ConfigurationError, StateError, ToolError
from trajmem.mining import (
    MinedComposite,
    MinerConfig,
    ToolSequence,
    build_composite_tool,
    cross_phase_tools,
    export_manifest,
    extract_tool_sequence,
    load_manifest,
    mine_composites,
    name_composite,
    sanitize_identifier,
)
from trajmem.model import Phase, Step, ToolParam, ToolSpec
from trajmem.tools import Tool, ToolRegistry

from helpers import invocation, step, tool_trajectory, trajectory
from oracles import brute_force_mine, count_support

E, X, V = Phase.EXPLORATION, Phase.EXECUTION, Phase.VALIDATION


def test_extract_flattens_in_order_and_skips_reasoning():
    steps = [
        Step(index=0, invocations=[invocation("read_file")], phase=E),
        Step(index=1, invocations=[invocation("get_ddl")], phase=E),
        Step(index=2, invocations=[], phase=E),
    ]
    t = trajectory(steps)
    assert extract_tool_sequence(t) == [("read_file", E), ("get_ddl", E)]


def test_extract_emits_multiple_invocations_per_step_in_order():
    steps = [
        Step(index=0, invocations=[invocation("a"), invocation("b")], phase=X),
    ]
    assert extract_tool_sequence(trajectory(steps)) == [("a", X), ("b", X)]


def test_extract_all_reasoning_is_empty():
    steps = [Step(index=0, phase=E), Step(index=1, phase=X)]
    assert extract_tool_sequence(trajectory(steps)) == []


def test_extract_rejects_unclassified():
    with pytest.raises(StateError):
        extract_tool_sequence(trajectory([step(0, tools=("a",))]))


def _pair_fixture_corpus():
    """Four trajectories; three contain (get_ext, get_ddl) contiguously in E."""
    return [
        tool_trajectory([("get_ext", E), ("get_ddl", E), ("sql_execute", X)], "t1"),
        tool_trajectory([("get_ext", E), ("get_ddl", E), ("sql_execute", X)], "t2"),
        tool_trajectory([("get_ext", E), ("get_ddl", E)], "t3"),
        tool_trajectory([("get_ddl", E), ("sql_execute", X)], "t4"),
    ]


def test_count_support_on_fixture():
    corpus = _pair_fixture_corpus()
    sequence = ToolSequence(tools=("get_ext", "get_ddl"), phase=E)
    assert count_support(corpus, sequence) == 3


def test_count_support_absent_sequence_is_zero():
    corpus = _pair_fixture_corpus()
    assert count_support(corpus, ToolSequence(tools=("a", "b"), phase=E)) == 0


def test_count_support_counts_each_trajectory_once():
    doubled = tool_trajectory(
        [("get_ext", E), ("get_ddl", E), ("get_ext", E), ("get_ddl", E)], "t"
    )
    sequence = ToolSequence(tools=("get_ext", "get_ddl"), phase=E)
    assert count_support([doubled], sequence) == 1


def test_count_support_requires_matching_phase():
    wrong_phase = tool_trajectory([("get_ext", X), ("get_ddl", X)], "t")
    sequence = ToolSequence(tools=("get_ext", "get_ddl"), phase=E)
    assert count_support([wrong_phase], sequence) == 0


def test_cross_phase_tools_detection():
    corpus = [
        tool_trajectory([("sql_execute", E), ("read_file", E)], "t1"),
        tool_trajectory([("sql_execute", X)], "t2"),
    ]
    assert cross_phase_tools(corpus) == {"sql_execute"}


def test_cross_phase_tools_empty_corpus():
    assert cross_phase_tools([]) == set()


def test_mine_fixture_pair():
    mined = mine_composites(_pair_fixture_corpus(), MinerConfig(tau=0.5))
    assert len(mined) == 1
    composite = mined[0]
    assert composite.sequence.tools == ("get_ext", "get_ddl")
    assert composite.sequence.phase is E
    assert composite.support_count == 3
    assert composite.support_ratio == pytest.approx(0.75)
    assert composite.name == "get_ext_then_get_ddl"


def test_mine_full_threshold_excludes_missing_sequence():
    assert mine_composites(_pair_fixture_corpus(), MinerConfig(tau=1.0)) == []


def test_mine_maximality_keeps_only_the_triple():
    corpus = [
        tool_trajectory([("a", E), ("b", E), ("c", E)], "t1"),
        tool_trajectory([("a", E), ("b", E), ("c", E)], "t2"),
    ]
    mined = mine_composites(corpus, MinerConfig(tau=0.5))
    assert [c.sequence.tools for c in mined] == [("a", "b", "c")]


def test_mine_rejects_empty_corpus():
    with pytest.raises(ValueError):
        mine_composites([], MinerConfig())


def test_mine_respects_max_size():
    corpus = [
        tool_trajectory([("a", E), ("b", E), ("c", E), ("d", E)], "t1"),
        tool_trajectory([("a", E), ("b", E), ("c", E), ("d", E)], "t2"),
    ]
    mined = mine_composites(corpus, MinerConfig(tau=0.5, max_size=3))
    lengths = {len(c.sequence.tools) for c in mined}
    assert max(lengths) == 3


def test_mine_sorted_by_ratio_then_length_then_name():
    corpus = [
        tool_trajectory([("a", E), ("b", E)], "t1"),
        tool_trajectory([("a", E), ("b", E)], "t2"),
        tool_trajectory([("x", V), ("y", V)], "t3"),
    ]
    mined = mine_composites(corpus, MinerConfig(tau=0.3))
    ratios = [c.support_ratio for c in mined]
    assert ratios == sorted(ratios, reverse=True)


def _random_corpus(rng: random.Random, max_trajectories=12, max_steps=8, tool_count=5):
    tools = [f"t{i}" for i in range(tool_count)]
    corpus = []
    for index in range(rng.randint(1, max_trajectories)):
        pairs = [
            (rng.choice(tools), rng.choice(list(Phase)))
            for _ in range(rng.randint(1, max_steps))
        ]
        corpus.append(tool_trajectory(pairs, f"traj{index}"))
    return corpus


def test_mine_matches_brute_force_on_random_corpora():
    rng = random.Random(99)
    for _ in range(60):
        corpus = _random_corpus(rng)
        for tau in (0.2, 0.5, 0.8):
            config = MinerConfig(tau=tau, max_size=4)
            mined = {
                (c.sequence.tools, c.sequence.phase, c.support_count)
                for c in mine_composites(corpus, config)
            }
            assert mined == brute_force_mine(corpus, tau, 4)


def _qualifying_set(corpus, tau, max_size=4):
    """Windows meeting the threshold, before maximality filtering."""
    excluded = cross_phase_tools(corpus)
    candidates = set()
    for t in corpus:
        pairs = extract_tool_sequence(t)
        for start in range(len(pairs)):
            for size in range(2, max_size + 1):
                if start + size > len(pairs):
                    continue
                window = pairs[start : start + size]
                phase = window[0][1]
                tools = tuple(tool for tool, _ in window)
                if all(p == phase for _, p in window) and not (set(tools) & excluded):
                    candidates.add((tools, phase))
    return {
        (tools, phase)
        for tools, phase in candidates
        if count_support(corpus, ToolSequence(tools, phase)) / len(corpus) >= tau
    }


def test_threshold_monotonicity():
    # Raising tau never adds a qualifying run. Maximality can re-expose a
    # shorter run once its subsumer drops out, so compare qualifying sets.
    rng = random.Random(4)
    for _ in range(20):
        corpus = _random_corpus(rng)
        low = _qualifying_set(corpus, 0.2)
        mid = _qualifying_set(corpus, 0.5)
        high = _qualifying_set(corpus, 0.8)
        assert high <= mid <= low
        for tau, expected in ((0.2, low), (0.5, mid), (0.8, high)):
            mined = {
                (c.sequence.tools, c.sequence.phase)
                for c in mine_composites(corpus, MinerConfig(tau=tau))
            }
            assert mined <= expected


def test_support_anti_monotonicity():
    rng = random.Random(13)
    for _ in range(20):
        corpus = _random_corpus(rng)
        for t in corpus:
            pairs = extract_tool_sequence(t)
            for start in range(len(pairs)):
                for size in range(3, min(4, len(pairs) - start) + 1):
                    window = pairs[start : start + size]
                    phase = window[0][1]
                    if any(p != phase for _, p in window):
                        continue
                    big = ToolSequence(tools=tuple(t for t, _ in window), phase=phase)
                    small = ToolSequence(tools=big.tools[:-1], phase=phase)
                    assert count_support(corpus, small) >= count_support(corpus, big)


def test_mined_sequences_are_phase_pure_and_cross_phase_free():
    rng = random.Random(17)
    for _ in range(30):
        corpus = _random_corpus(rng)
        excluded = cross_phase_tools(corpus)
        for composite in mine_composites(corpus, MinerConfig(tau=0.2)):
            assert not (set(composite.sequence.tools) & excluded)
            assert count_support(corpus, composite.sequence) == composite.support_count


def test_sequence_requires_two_tools():
    with pytest.raises(ValueError):
        ToolSequence(tools=("solo",), phase=E)


def test_miner_config_validation():
    with pytest.raises(ValueError):
        MinerConfig(tau=0.0)
    with pytest.raises(ValueError):
        MinerConfig(max_size=1)


# -- naming ---------------------------------------------------------------------


def test_fallback_name_joins_with_then():
    name, description = name_composite(ToolSequence(("get_ext", "get_ddl"), E))
    assert name == "get_ext_then_get_ddl"
    assert "get_ext" in description and "get_ddl" in description


def test_name_collision_appends_suffix():
    name, _ = name_composite(ToolSequence(("a", "b"), E), taken={"a_then_b"})
    assert name == "a_then_b_2"


def test_sanitize_identifier_edge_cases():
    assert sanitize_identifier("123 go") == "t_123_go"
    assert sanitize_identifier("  !! ") == "composite"


def test_manifest_round_trip(tmp_path):
    mined = mine_composites(_pair_fixture_corpus(), MinerConfig(tau=0.5))
    path = export_manifest(mined, tmp_path / "manifest.json")
    loaded = load_manifest(path)
    assert [(c.name, c.sequence.tools, c.sequence.phase, c.support_count) for c in loaded] == [
        (c.name, c.sequence.tools, c.sequence.phase, c.support_count) for c in mined
    ]


# -- executable binding ------------------------------------------------------------


def _registry_with(*tools: Tool) -> ToolRegistry:
    registry = ToolRegistry()
    for tool in tools:
        registry.register(tool)
    return registry


def _mined(tools: tuple[str, ...], name: str = "") -> MinedComposite:
    sequence = ToolSequence(tools=tools, phase=E)
    auto_name, description = name_composite(sequence)
    return MinedComposite(
        sequence=sequence,
        support_count=2,
        support_ratio=1.0,
        name=name or auto_name,
        description=description,
    )


def test_composite_runs_constituents_in_order():
    registry = _registry_with(
        Tool(ToolSpec("get_ext", params=(ToolParam("database"),)),
             lambda ctx, database="": f"knowledge of {database}"),
        Tool(ToolSpec("get_ddl", params=(ToolParam("database"),)),
             lambda ctx, database="": f"ddl of {database}"),
    )
    composite = build_composite_tool(_mined(("get_ext", "get_ddl")), registry)
    output = composite.fn(None, database="flights")
    assert output.index("knowledge of flights") < output.index("ddl of flights")
    assert "### get_ext" in output and "### get_ddl" in output


def test_composite_constituent_failure_reports_partials():
    def boom(ctx, **kwargs):
        raise RuntimeError("backend gone")

    registry = _registry_with(
        Tool(ToolSpec("one"), lambda ctx: "first output"),
        Tool(ToolSpec("two"), boom),
        Tool(ToolSpec("three"), lambda ctx: "third output"),
    )
    composite = build_composite_tool(_mined(("one", "two", "three")), registry)
    with pytest.raises(ToolError) as excinfo:
        composite.fn(None)
    message = str(excinfo.value)
    assert "constituent 2" in message and "'two'" in message
    assert "first output" in message
    assert "third output" not in message


def test_composite_param_collision_is_prefixed():
    registry = _registry_with(
        Tool(ToolSpec("alpha", params=(ToolParam("path"),)),
             lambda ctx, path="": f"alpha:{path}"),
        Tool(ToolSpec("beta", params=(ToolParam("path"),)),
             lambda ctx, path="": f"beta:{path}"),
    )
    composite = build_composite_tool(_mined(("alpha", "beta")), registry)
    names = [p.name for p in composite.spec.params]
    assert names == ["alpha_path", "beta_path"]
    output = composite.fn(None, alpha_path="a.txt", beta_path="b.txt")
    assert "alpha:a.txt" in output and "beta:b.txt" in output
    # Bare name reaches both constituents when prefixes are omitted.
    shared = composite.fn(None, path="c.txt")
    assert "alpha:c.txt" in shared and "beta:c.txt" in shared


def test_composite_requires_registered_constituents():
    registry = _registry_with(Tool(ToolSpec("only"), lambda ctx: "x"))
    with pytest.raises(ConfigurationError):
        build_composite_tool(_mined(("only", "missing")), registry)
