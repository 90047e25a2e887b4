"""Error types shared across the package."""

__all__ = ["UsageError", "DataValidationError"]


class UsageError(ValueError):
    """The caller asked for something the API cannot do (bad arguments,
    unknown labels, out-of-range requests). Maps to CLI exit code 1."""


class DataValidationError(ValueError):
    """Input data violates the declared schema or invariants (missing
    cells, non-numeric values, duplicates). Maps to CLI exit code 2."""
