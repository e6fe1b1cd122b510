"""Semantic trajectory memory for tool-using SQL agents.

Records, classifies, structures, retrieves, and mines agent trajectories,
and ships a deterministic scripted agent harness that demonstrates
trajectory reuse and composite-tool compression over bundled fixture
databases.
"""

from .classifier import (
    DEFAULT_RULE_TABLE,
    ClassifierRule,
    RuleTable,
    Segment,
    classify_step,
    classify_trajectory,
    load_rule_table,
    segment_trajectory,
)
from .errors import (
    BudgetError,
    ConfigurationError,
    EndpointError,
    StateError,
    StorageError,
    StructuralError,
    SynthesisError,
    ToolError,
    TrajmemError,
    WorkspaceSecurityError,
)
from .harness import (
    EpisodeConfig,
    EpisodeResult,
    run_episode,
    run_suite,
)
from .metrics import (
    RunRecord,
    execution_accuracy,
    report,
)
from .mining import (
    MinedComposite,
    MinerConfig,
    ToolSequence,
    build_composite_tool,
    cross_phase_tools,
    extract_tool_sequence,
    mine_composites,
    name_composite,
)
from .model import (
    Phase,
    Question,
    Step,
    ToolInvocation,
    ToolParam,
    ToolSpec,
    Trajectory,
    append_step,
    count_tokens,
)
from .policies import (
    ExplorerPolicy,
    Policy,
    PolicyDecision,
    QuestionScript,
    ReplayPolicy,
    ScriptedPolicy,
    Transcript,
)
from .retrieval import (
    HashingEmbedder,
    filter_by_database,
    select_from_entries,
    select_trajectory,
)
from .store import (
    MemoryEntry,
    MemoryStore,
    StructuredTrajectory,
    structure_trajectory,
    truncate_observation,
)
from .synthesis import (
    QueryDistribution,
    allocate,
    generate_questions,
    synthesize_memory,
)
from .tools import ToolRegistry, Workspace

__version__ = "0.1.0"
