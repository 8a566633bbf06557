"""Validated bidegree sequences and their summary statistics.

A bidegree sequence pairs an in-degree vector ``a`` with an out-degree
vector ``b`` for the ``n`` nodes of a directed graph.  Everything in this
module is exact integer arithmetic on immutable values; no floats appear
anywhere, so comparisons at bound boundaries (where a difference of one
decides graphicality) are never subject to rounding.

Validation sums each vector with the C-level ``sum`` builtin; when both
sums are ints, every entry is, and it takes ``min``/``max`` over the set
of each vector's distinct values, which degree vectors hold few of.  It
keeps what it found as ``seq.stats``, so no later layer rescans a record
for its summary integers.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import (
    BidegreeError,
    DegreeExceedsN,
    LengthMismatch,
    NegativeDegree,
    SumMismatch,
)

__all__ = [
    "BidegreeSequence",
    "SequenceStats",
    "new_sequence",
    "stats",
    "pad_bipartite",
]


class SequenceStats(
    namedtuple(
        "SequenceStats", "n total min_degree max_in max_out max_degree"
    )
):
    """Exact integer summary of a sequence.

    ``total`` is the shared degree sum (``n`` times the average degree,
    stored as an integer so boundary comparisons stay exact), and
    ``min_degree`` ranges over the concatenation of both vectors.
    """

    __slots__ = ()


class BidegreeSequence:
    """Paired in-degree and out-degree vectors of equal length and equal sum.

    Entries may equal ``n`` (legal when loops are allowed); the loop-free
    checks treat an entry equal to ``n`` as immediately non-graphic rather
    than rejecting it at construction.  Both vectors are frozen as tuples,
    so a caller's list cannot change a validated sequence.  ``stats`` is
    the summary that validation computes on the way; equality, hashing and
    the repr read only the two vectors.  Instances are immutable.
    """

    __slots__ = ("in_degrees", "out_degrees", "stats")

    def __init__(self, in_degrees, out_degrees):
        a, b = tuple(in_degrees), tuple(out_degrees)  # a tuple is kept as is
        if len(a) == 0 or len(b) == 0:
            raise LengthMismatch("degree vectors must be nonempty")
        if len(a) != len(b):
            raise LengthMismatch(
                f"in-degree length {len(a)} != out-degree length {len(b)}"
            )
        n = len(a)
        try:
            total, total_out = sum(a), sum(b)
        except (TypeError, ArithmeticError):  # worded below, in order
            total = total_out = None
        # a float, Fraction or Decimal entry makes its vector's sum one too
        if type(total) is not int or type(total_out) is not int:
            _raise_not_integer(a, b, n)
        # int entries: a set keeps each value's first occurrence, the one
        # min/max over the vector returns, and a vector repeats few values
        ins, outs = set(a), set(b)
        min_in, max_in, min_out, max_out = min(ins), max(ins), min(outs), max(outs)
        if min(min_in, min_out) < 0 or max(max_in, max_out) > n:
            _raise_first_out_of_range(a, b, n)
        if total != total_out:
            raise SumMismatch(
                f"sum of in-degrees {total} != sum of out-degrees {total_out}"
            )
        _set_in(self, a)
        _set_out(self, b)
        _set_stats(
            self,
            SequenceStats(
                n, total, min(min_in, min_out), max_in, max_out, max(max_in, max_out)
            ),
        )

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.in_degrees == other.in_degrees
            and self.out_degrees == other.out_degrees
        )

    def __hash__(self):
        return hash((self.in_degrees, self.out_degrees))

    def __repr__(self):
        return (
            f"{type(self).__name__}(in_degrees={self.in_degrees!r}, "
            f"out_degrees={self.out_degrees!r})"
        )

    def __reduce__(self):
        # copy and pickle rebuild through __init__, which validates again
        return type(self), (self.in_degrees, self.out_degrees)

    @property
    def n(self) -> int:
        return len(self.in_degrees)


# the slots' own setters: __init__ fills each slot once, past the
# __setattr__ that keeps instances immutable, and faster than
# object.__setattr__, which looks the name up on every call
_set_in = BidegreeSequence.in_degrees.__set__
_set_out = BidegreeSequence.out_degrees.__set__
_set_stats = BidegreeSequence.stats.__set__


def _raise_first_out_of_range(a, b, n: int):
    """Raise for the first entry, in-degrees first, outside ``[0..n]``."""
    for vec, name in ((a, "in"), (b, "out")):
        for x in vec:
            if x < 0:
                raise NegativeDegree(f"{name}-degree entry {x} is negative")
            if x > n:
                raise DegreeExceedsN(
                    f"{name}-degree entry {x} exceeds node count {n}"
                )


def _raise_not_integer(a, b, n: int):
    """Raise for vectors that hold an entry other than an int, or that
    cannot be summed, in the order validation reads every record: the
    range check on min/max over the vectors themselves, then the sums,
    then the first entry, in-degrees first, that is not an int.  A NaN
    compares false with everything, so where it sits in its vector decides
    what the range check sees; over a set, in hash order, it could see
    more and raise another error."""
    min_in, max_in, min_out, max_out = min(a), max(a), min(b), max(b)
    if min(min_in, min_out) < 0 or max(max_in, max_out) > n:
        _raise_first_out_of_range(a, b, n)
    sum(a), sum(b)  # an entry the sums cannot take raises as it did
    for x in a + b:
        if not isinstance(x, int):
            raise BidegreeError(f"degree entries must be integers, got {x!r}")


def new_sequence(in_degrees, out_degrees) -> BidegreeSequence:
    """Validate and freeze a bidegree sequence.

    Raises
    ------
    LengthMismatch, NegativeDegree, DegreeExceedsN, SumMismatch
        When the vectors are not a plausible digraph degree sequence.
    BidegreeError
        When an entry in range is not an integer.
    """
    return BidegreeSequence(in_degrees, out_degrees)


def stats(seq: BidegreeSequence) -> SequenceStats:
    """Node count, degree sum, and min/max degrees, as validation found them."""
    return seq.stats


def pad_bipartite(row_sums, col_sums) -> BidegreeSequence:
    """Embed bipartite margins as a square bidegree sequence.

    The shorter vector is zero-padded to length ``max(p, q)``; asking
    whether the result is graphic *with loops* answers whether a 0-1
    matrix with the given row and column sums exists.

    Raises
    ------
    SumMismatch
        If the margins do not sum to the same total.
    DegreeExceedsN
        If a margin exceeds the padded dimension (no such matrix fits).
    """
    rows = tuple(row_sums)
    cols = tuple(col_sums)
    if sum(rows) != sum(cols):
        raise SumMismatch(
            f"row sums total {sum(rows)} != column sums total {sum(cols)}"
        )
    n = max(len(rows), len(cols))
    if n == 0:
        raise LengthMismatch("margins must be nonempty")
    return new_sequence(
        rows + (0,) * (n - len(rows)), cols + (0,) * (n - len(cols))
    )
