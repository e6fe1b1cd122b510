"""Mining of frequently co-occurring tool sequences into composite tools.

A candidate is a contiguous run of 2..max_size tool invocations whose steps
all share one phase and whose tools never appear in more than one phase
anywhere in the corpus. A candidate qualifies when the fraction of
trajectories containing it (each counted once) reaches the support
threshold; qualifying runs subsumed by a longer qualifying run are dropped.
"""

from __future__ import annotations

import json
import re
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Sequence

from .errors import ConfigurationError, StateError, ToolError
from .model import (
    REQUIRED,
    Fields,
    Phase,
    ToolParam,
    ToolSpec,
    Trajectory,
    holding,
    read_fields,
    render_observation,
)
from .tools import EpisodeContext, Tool, ToolRegistry


@dataclass(frozen=True)
class ToolSequence:
    """An ordered run of tool names inside one phase."""

    tools: tuple[str, ...]
    phase: Phase

    def __post_init__(self) -> None:
        if len(self.tools) < 2:
            raise ValueError("a tool sequence needs at least two tools")


@dataclass
class MinedComposite:
    sequence: ToolSequence
    support_count: int
    support_ratio: float
    name: str
    description: str


@dataclass(frozen=True)
class MinerConfig:
    tau: float = 0.5
    max_size: int = 4

    def __post_init__(self) -> None:
        if not (0.0 < self.tau <= 1.0):
            raise ValueError("tau must lie in (0, 1]")
        if self.max_size < 2:
            raise ValueError("max_size must be at least 2")


def extract_tool_sequence(trajectory: Trajectory) -> list[tuple[str, Phase]]:
    """Flatten a classified trajectory into (tool name, phase) pairs in order."""
    sequence: list[tuple[str, Phase]] = []
    for step in trajectory.steps:
        if step.phase is None:
            raise StateError(f"step {step.index} is unclassified")
        for invocation in step.invocations:
            sequence.append((invocation.tool_name, step.phase))
    return sequence


def cross_phase_tools(corpus: Iterable[Trajectory]) -> set[str]:
    """Tools observed under two or more distinct phases anywhere in the corpus."""
    phases_by_tool: dict[str, set[Phase]] = defaultdict(set)
    for trajectory in corpus:
        for tool, phase in extract_tool_sequence(trajectory):
            phases_by_tool[tool].add(phase)
    return {tool for tool, phases in phases_by_tool.items() if len(phases) >= 2}


def _is_subrun(small: tuple[str, ...], big: tuple[str, ...]) -> bool:
    if len(small) >= len(big):
        return False
    return any(
        big[start : start + len(small)] == small
        for start in range(len(big) - len(small) + 1)
    )


def sanitize_identifier(text: str) -> str:
    cleaned = re.sub(r"[^0-9a-zA-Z]+", "_", text.strip().lower()).strip("_")
    if not cleaned:
        cleaned = "composite"
    if cleaned[0].isdigit():
        cleaned = f"t_{cleaned}"
    return cleaned


def name_composite(
    sequence: ToolSequence, taken: Iterable[str] = ()
) -> tuple[str, str]:
    """Identifier-safe (name, description): the tools joined with ``_then_``,
    with a numeric suffix when the name is already taken."""
    name = sanitize_identifier("_then_".join(sequence.tools))
    description = (
        f"Composite tool: runs {', then '.join(sequence.tools)} as one "
        f"{sequence.phase.value} action."
    )
    taken_set = set(taken)
    if name in taken_set:
        suffix = 2
        while f"{name}_{suffix}" in taken_set:
            suffix += 1
        name = f"{name}_{suffix}"
    return name, description


def mine_composites(
    corpus: Sequence[Trajectory],
    config: MinerConfig = MinerConfig(),
) -> list[MinedComposite]:
    """All maximal in-phase runs whose support ratio meets the threshold."""
    if not corpus:
        raise ValueError("mining requires a non-empty corpus")
    excluded = cross_phase_tools(corpus)
    support: dict[tuple[tuple[str, ...], Phase], set[int]] = defaultdict(set)
    for index, trajectory in enumerate(corpus):
        sequence = extract_tool_sequence(trajectory)
        for start, (first_tool, phase) in enumerate(sequence):
            if first_tool in excluded:
                continue
            tools = [first_tool]
            limit = min(start + config.max_size, len(sequence))
            for position in range(start + 1, limit):
                tool, tool_phase = sequence[position]
                if tool_phase != phase or tool in excluded:
                    break
                tools.append(tool)
                support[(tuple(tools), phase)].add(index)
    total = len(corpus)
    qualifying = [
        (tools, phase, len(trajectory_ids))
        for (tools, phase), trajectory_ids in support.items()
        if len(trajectory_ids) / total >= config.tau
    ]
    kept = [
        (tools, phase, count)
        for tools, phase, count in qualifying
        if not any(
            phase == other_phase and _is_subrun(tools, other_tools)
            for other_tools, other_phase, _ in qualifying
        )
    ]
    taken: set[str] = set()
    mined: list[MinedComposite] = []
    for tools, phase, count in kept:
        sequence = ToolSequence(tools=tools, phase=phase)
        name, description = name_composite(sequence, taken)
        taken.add(name)
        mined.append(
            MinedComposite(
                sequence=sequence,
                support_count=count,
                support_ratio=count / total,
                name=name,
                description=description,
            )
        )
    mined.sort(key=lambda c: (-c.support_ratio, -len(c.sequence.tools), c.name))
    return mined


# -- manifest ------------------------------------------------------------------


def export_manifest(composites: Sequence[MinedComposite], path: str | Path) -> Path:
    target = Path(path)
    payload = {
        "version": 1,
        "composites": [
            {
                "name": comp.name,
                "description": comp.description,
                "tools": list(comp.sequence.tools),
                "phase": comp.sequence.phase.value,
                "support_count": comp.support_count,
                "support_ratio": comp.support_ratio,
            }
            for comp in composites
        ],
    }
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(payload, indent=2, ensure_ascii=False) + "\n", encoding="utf-8")
    return target


_COMPOSITE_FIELDS: Fields = {
    "name": (REQUIRED, (str,), "a string"),
    "description": ("", (str,), "a string"),
    "tools": (REQUIRED, holding(list, str), "a list of tool names"),
    "phase": (REQUIRED, (str,), "a phase name"),
    "support_count": (REQUIRED, (int,), "an int"),
    "support_ratio": (REQUIRED, (int, float), "a number"),
}


def load_manifest(path: str | Path) -> list[MinedComposite]:
    """The composites a manifest file lists.

    Raises ConfigurationError, naming the file, when it is not a JSON object
    whose ``composites`` is a list, and naming the composite's position and
    field when a composite lacks a field, gives one the wrong type, names an
    unknown phase or lists fewer than two tools. ``description`` may be left
    out.
    """
    (raw_composites,) = read_fields(
        json.loads(Path(path).read_text(encoding="utf-8")),
        {"composites": ([], (list,), "a list")},
        lambda message: ConfigurationError(f"manifest {path}: {message}"),
    )
    composites = []
    for position, raw in enumerate(raw_composites):
        where = f"manifest {path}, composite {position}"
        name, description, tools, phase, support_count, support_ratio = read_fields(
            raw, _COMPOSITE_FIELDS, lambda message: ConfigurationError(f"{where}: {message}")
        )
        try:
            sequence = ToolSequence(tools=tuple(tools), phase=Phase.parse(phase))
        except ValueError as exc:
            raise ConfigurationError(f"{where}: {exc}") from None
        composites.append(
            MinedComposite(sequence, support_count, float(support_ratio), name, description)
        )
    return composites


# -- executable binding ---------------------------------------------------------


def build_composite_tool(mined: MinedComposite, registry: ToolRegistry) -> Tool:
    """Register a composite that runs its constituents in sequence.

    The composite's parameters are the union of the constituents' parameters;
    names claimed by more than one constituent are prefixed with the tool
    name. At call time a prefixed parameter falls back to the bare name, so
    a shared argument (like ``database``) can be passed once.
    """
    constituents: list[Tool] = []
    for tool_name in mined.sequence.tools:
        tool = registry.get(tool_name)
        if tool is None:
            raise ConfigurationError(
                f"composite {mined.name!r} needs unregistered tool {tool_name!r}"
            )
        constituents.append(tool)

    param_owners: dict[str, int] = defaultdict(int)
    for tool in constituents:
        for param in {p.name for p in tool.spec.params}:
            param_owners[param] += 1
    exposed: list[ToolParam] = []
    lookup: list[list[tuple[str, str]]] = []  # per constituent: (param, exposed name)
    exposed_names: set[str] = set()
    for tool in constituents:
        plan: list[tuple[str, str]] = []
        for param in tool.spec.params:
            name = (
                f"{tool.spec.name}_{param.name}"
                if param_owners[param.name] > 1
                else param.name
            )
            base = name
            suffix = 2
            while name in exposed_names:
                name = f"{base}_{suffix}"
                suffix += 1
            exposed_names.add(name)
            exposed.append(ToolParam(name, param.description))
            plan.append((param.name, name))
        lookup.append(plan)

    def _run(ctx: EpisodeContext, **kwargs: Any) -> str:
        outputs: list[tuple[str, str]] = []
        for position, tool in enumerate(constituents):
            args: dict[str, Any] = {}
            for param_name, exposed_name in lookup[position]:
                if exposed_name in kwargs:
                    args[param_name] = kwargs[exposed_name]
                elif param_name in kwargs:
                    args[param_name] = kwargs[param_name]
            try:
                output = tool.fn(ctx, **args)
            except Exception as exc:  # noqa: BLE001 - abort chain, report partials
                partial = render_observation(outputs) or "(no partial outputs)"
                raise ToolError(
                    f"composite {mined.name!r} failed at constituent "
                    f"{position + 1} ({tool.spec.name!r}): {exc}\n"
                    f"partial outputs:\n{partial}"
                ) from exc
            outputs.append((tool.spec.name, output))
        return render_observation(outputs)

    spec = ToolSpec(
        name=mined.name,
        description=mined.description,
        params=tuple(exposed),
    )
    tool = Tool(spec=spec, fn=_run)
    registry.register(tool)
    return tool
