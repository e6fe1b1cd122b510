"""Exception types shared across the package."""


class TrajmemError(Exception):
    """Base class for all package-specific errors."""


class StructuralError(TrajmemError):
    """A value violates a structural invariant (e.g. step index mismatch)."""


class StateError(TrajmemError):
    """An operation ran against a value in the wrong state (e.g. unclassified steps)."""


class StorageError(TrajmemError):
    """Reading or writing the on-disk memory store failed."""


class BudgetError(TrajmemError):
    """A question budget cannot satisfy the one-per-database coverage floor."""


class SynthesisError(TrajmemError):
    """Question generation failed for a database after retries."""


class ConfigurationError(TrajmemError):
    """Mismatched or invalid component configuration."""


class WorkspaceSecurityError(TrajmemError):
    """A file path escaped the configured workspace root."""


class ToolError(TrajmemError):
    """A tool invocation failed; the message carries the error details."""


class EndpointError(TrajmemError):
    """An HTTP endpoint call failed, or kept failing through its retries."""
