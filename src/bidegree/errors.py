"""Exception hierarchy shared across the package.

All validation failures derive from :class:`BidegreeError` so callers can
catch one type at API boundaries (the CLI maps them to exit code 3, except
where noted in :mod:`bidegree.cli`).
"""

__all__ = [
    "BidegreeError",
    "LengthMismatch",
    "NegativeDegree",
    "DegreeExceedsN",
    "SumMismatch",
    "Infeasible",
    "InvalidStats",
    "InvalidParameters",
    "BadExponent",
    "DimensionMismatch",
]


class BidegreeError(ValueError):
    """Base class for all validation and feasibility errors."""


class LengthMismatch(BidegreeError):
    """In- and out-degree vectors have different lengths."""


class NegativeDegree(BidegreeError):
    """A degree entry is negative."""


class DegreeExceedsN(BidegreeError):
    """A degree entry exceeds the node count n."""


class SumMismatch(BidegreeError):
    """Sum of in-degrees differs from sum of out-degrees."""


class Infeasible(BidegreeError):
    """No vector with the requested sum/min/max statistics exists."""


class InvalidStats(BidegreeError):
    """Statistics passed to a bound computation are inconsistent."""


class InvalidParameters(BidegreeError):
    """Generator parameters violate the generator's preconditions."""


class BadExponent(BidegreeError):
    """Power-law exponent must exceed 2 (finite mean)."""


class DimensionMismatch(BidegreeError):
    """Matrix size does not match the sequence length."""
