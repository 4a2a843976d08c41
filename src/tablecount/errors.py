"""Semantic exceptions shared across the package.

Validation errors mean the caller handed us something malformed (bad margins,
mismatched dimensions).  Budget errors mean the input was well formed but the
requested computation would exceed a configured resource cap; they carry the
cap so callers can retry with a larger one.
"""


class TableCountError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(TableCountError, ValueError):
    """Input violates a contract: wrong shape, negative sums, mismatched totals."""


class DimensionMismatchError(ValidationError):
    """Operands disagree on the number of variables or vector lengths."""


class BudgetError(TableCountError):
    """A resource cap would be exceeded; enlarge the cap to proceed."""

    def __init__(self, message: str, limit: int | None = None):
        super().__init__(message)
        self.limit = limit


class TermBudgetError(BudgetError):
    """A polynomial expansion would exceed the configured term cap."""


class EnumerationBudgetError(BudgetError):
    """An exact enumeration (tables, monomials) would exceed its node budget,
    or a random draw request the draw budget."""


class PermanentSizeError(BudgetError):
    """Matrix is larger than the configured exact-permanent size limit."""


class RankBoundError(ValidationError):
    """Numerical rank of a weight matrix exceeds the configured bound."""


class SurjectionSamplingError(TableCountError):
    """Rejection sampling of a surjection exhausted its retry limit."""
