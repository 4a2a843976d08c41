"""Semantic exceptions shared across the package.

Validation errors mean the caller handed us something malformed (bad margins,
mismatched dimensions).  Budget errors mean the input was well formed but the
requested computation would exceed a resource limit; they carry the limit
that was hit.  No command line flag sets a limit, so a budget error there is
final for the input.
"""


class TableCountError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(TableCountError, ValueError):
    """Input violates a contract: wrong shape, negative sums, mismatched totals."""


class DimensionMismatchError(ValidationError):
    """Operands disagree on the number of variables or vector lengths."""


class CertificationError(ValidationError):
    """No truncation threshold certifies the moment loss at the requested
    degree: past about degree 665 the float tail is 0 * inf."""


class BudgetError(TableCountError):
    """A resource limit would be exceeded; limit holds its value."""

    def __init__(self, message: str, limit: int | None = None):
        super().__init__(message)
        self.limit = limit


class TermBudgetError(BudgetError):
    """A polynomial expansion or low-rank pairing would exceed its term cap."""


class EnumerationBudgetError(BudgetError):
    """An exact enumeration (tables, monomials) would exceed its node budget,
    the box dynamic program its operation or cell limit (checked before any
    table is built), or a random draw request the draw budget."""


class PermanentSizeError(BudgetError):
    """A permanent, exact or float, or a Monte Carlo route's margins total
    would pass the permanent size limit DEFAULT_SIZE_LIMIT."""


class SurjectionSamplingError(TableCountError):
    """Rejection sampling of a surjection exhausted its retry limit."""
