"""Deterministic step-phase classification from an ordered text-pattern rule table.

Rules match over a step's action code plus its invocation tool names, never
over the step position, so classification is stable under reordering. A
trajectory-level pass handles reasoning-only steps, which inherit the phase
of the preceding step (the first step defaults to exploration).

A ``RuleTable`` compiles each pattern once, when it is built (a pattern that
does not compile is rejected then), and classifies with those compiled
patterns, so classifying a step compiles nothing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable

from .errors import StateError, StructuralError
from .model import Phase, Step, Trajectory


@dataclass(frozen=True)
class ClassifierRule:
    """One pattern rule; lower priority values fire first."""

    id: str
    target: Phase
    pattern: str
    priority: int

    def compiled(self) -> re.Pattern[str]:
        return re.compile(self.pattern)


@dataclass(frozen=True)
class RuleTable:
    """Priority-ordered rules, each pattern compiled once, plus the default
    phase for unmatched steps."""

    rules: tuple[ClassifierRule, ...]
    default: Phase = Phase.EXECUTION
    _compiled: tuple[tuple[re.Pattern[str], ClassifierRule], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.rules:
            raise StructuralError("rule table must contain at least one rule")
        priorities = [rule.priority for rule in self.rules]
        if len(priorities) != len(set(priorities)):
            raise StructuralError("rule priorities must be unique")
        rules = tuple(sorted(self.rules, key=lambda r: r.priority))
        compiled = []
        for rule in rules:
            try:
                compiled.append((rule.compiled(), rule))
            except re.error as exc:
                raise StructuralError(f"rule {rule.id!r} pattern does not compile: {exc}")
        object.__setattr__(self, "rules", rules)
        object.__setattr__(self, "_compiled", tuple(compiled))


# Reconstruction of the intent rules: V-rules for validation/saving tools,
# E-rules for file reads, schema/knowledge fetches, probe queries and vector
# search, X-rules for CTE and multi-clause analytical SQL plus answer
# composition. Tool-name rules match as substrings so composite names like
# get_ext_then_get_ddl still hit; English-keyword rules keep word boundaries.
_DEFAULT_RULES: tuple[tuple[str, int, Phase, str], ...] = (
    ("V1", 10, Phase.VALIDATION, r"validate_result"),
    ("V2", 20, Phase.VALIDATION, r"save_result"),
    ("E1", 30, Phase.EXPLORATION, r"list_directory|read_file"),
    ("E2", 40, Phase.EXPLORATION, r"get_ddl"),
    ("E3", 50, Phase.EXPLORATION, r"get_ext"),
    ("E4", 60, Phase.EXPLORATION, r"vector_search"),
    ("E5", 70, Phase.EXPLORATION, r"(?i)\b(pragma|describe|show|sqlite_master)\b"),
    ("X1", 80, Phase.EXECUTION, r"(?i)\bwith\b[\s\S]*\bselect\b"),
    ("X2", 90, Phase.EXECUTION, r"(?i)\bselect\b[\s\S]*\b(join|group\s+by|having|union)\b"),
    ("E6", 100, Phase.EXPLORATION, r"(?i)\blimit\s+(?:10|[0-9])\b"),
    ("X3", 110, Phase.EXECUTION, r"(?i)final_answer|\bcompose\b"),
    ("X4", 120, Phase.EXECUTION, r"sql_execute"),
)

DEFAULT_RULE_TABLE = RuleTable(
    rules=tuple(
        ClassifierRule(id=rid, target=phase, pattern=pattern, priority=priority)
        for rid, priority, phase, pattern in _DEFAULT_RULES
    )
)


def classification_text(step: Step) -> str:
    """The text a rule pattern is applied to: action code plus tool names."""
    names = " ".join(inv.tool_name for inv in step.invocations)
    return f"{step.action_code}\n{names}" if names else step.action_code


def _first_matching_rule(step: Step, table: RuleTable) -> ClassifierRule | None:
    text = classification_text(step)
    for pattern, rule in table._compiled:
        if pattern.search(text):
            return rule
    return None


def classify_step(step: Step, table: RuleTable = DEFAULT_RULE_TABLE) -> Phase:
    """Phase of the lowest-priority matching rule, or the table default."""
    rule = _first_matching_rule(step, table)
    return rule.target if rule is not None else table.default


def classify_trajectory(
    trajectory: Trajectory, table: RuleTable = DEFAULT_RULE_TABLE
) -> Trajectory:
    """Return a copy of the trajectory with every step's phase populated.

    Steps are classified by the rule table; reasoning-only steps that match
    no rule inherit the previous step's phase, with exploration as the
    opening default.
    """
    classified: list[Step] = []
    previous: Phase | None = None
    for step in trajectory.steps:
        rule = _first_matching_rule(step, table)
        if rule is not None:
            phase = rule.target
        elif step.invocations:
            phase = table.default
        elif previous is not None:
            phase = previous
        else:
            phase = Phase.EXPLORATION
        classified.append(
            Step(
                index=step.index,
                thought=step.thought,
                action_code=step.action_code,
                invocations=step.invocations,
                observation=step.observation,
                phase=phase,
            )
        )
        previous = phase
    return replace(trajectory, steps=classified)


@dataclass(frozen=True)
class Segment:
    """A maximal contiguous run of equal-phase steps; end index is inclusive."""

    phase: Phase
    start: int
    end: int


def segment_trajectory(trajectory: Trajectory) -> list[Segment]:
    """Split a classified trajectory into maximal same-phase runs, in order."""
    segments: list[Segment] = []
    for step in trajectory.steps:
        if step.phase is None:
            raise StateError(f"step {step.index} is unclassified")
        if segments and segments[-1].phase == step.phase:
            last = segments[-1]
            segments[-1] = Segment(phase=last.phase, start=last.start, end=step.index)
        else:
            segments.append(Segment(phase=step.phase, start=step.index, end=step.index))
    return segments


def parse_rule_lines(lines: Iterable[str]) -> RuleTable:
    """Parse a rule table from text lines: ``priority phase pattern`` per line.

    Blank lines and ``#`` comments are skipped; phase accepts the full name
    or its first letter (e/x/v).
    """
    letter_map = {"e": Phase.EXPLORATION, "x": Phase.EXECUTION, "v": Phase.VALIDATION}
    rules: list[ClassifierRule] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 2)
        if len(parts) != 3:
            raise StructuralError(f"rule line {lineno} needs: priority phase pattern")
        priority_text, phase_text, pattern = parts
        try:
            priority = int(priority_text)
        except ValueError:
            raise StructuralError(f"rule line {lineno}: bad priority {priority_text!r}")
        key = phase_text.strip().lower()
        phase = letter_map.get(key[:1]) if key in letter_map or len(key) == 1 else None
        if phase is None:
            phase = Phase.parse(phase_text)
        rules.append(
            ClassifierRule(id=f"R{priority}", target=phase, pattern=pattern, priority=priority)
        )
    return RuleTable(rules=tuple(rules))


def load_rule_table(path: str | Path) -> RuleTable:
    """Load a rule table from a text configuration file."""
    return parse_rule_lines(Path(path).read_text(encoding="utf-8").splitlines())
