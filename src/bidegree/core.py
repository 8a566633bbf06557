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

A record read from text comes through :func:`from_entries` instead, as
the entry strings of each side.  It counts each side's strings in one
C-level pass and looks up only the distinct ones.  Validation then reads
only the counts (``n``, ``S`` as the sum of value times count, min/max
over the distinct values), and on any failure decodes the vectors and
validates them as above, so every error keeps its type and message.
Both routes apply one rule, :func:`_stats`, to the sums and the distinct
values they found: every value in ``[0..n]`` and equal sums.
Such a sequence keeps its counts, which :func:`degree_pairs` sorts into
the ``(value, count)`` pairs the exact checks read, and decodes its
vectors only when they are first read, dropping the entry strings then;
a record that the five integers settle never builds them.  Any other
sequence is counted by :func:`degree_pairs` on each call.
"""

from __future__ import annotations

from collections import Counter, _count_elements, namedtuple
from operator import itemgetter, mul

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
    the repr read only the two vectors.  Instances are immutable: a
    sequence from :func:`from_entries` decodes its vectors on first read,
    and two threads that race there build equal tuples.
    """

    # _vectors: (in_degrees, out_degrees), or None until a sequence from
    # from_entries decodes its _entries, the entry strings of each side;
    # _counts: that sequence's (counts, values) per side (see _counted),
    # else None
    __slots__ = ("_vectors", "_entries", "_counts", "stats")

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
        found = _stats(n, total, total_out, set(a), set(b))
        if found is None:
            _raise_first_out_of_range(a, b, n)
            raise SumMismatch(
                f"sum of in-degrees {total} != sum of out-degrees {total_out}"
            )
        _set_vectors(self, (a, b))
        _set_entries(self, None)
        _set_counts(self, None)
        _set_stats(self, found)

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
    def in_degrees(self) -> tuple:
        return (self._vectors or self._decode())[0]

    @property
    def out_degrees(self) -> tuple:
        return (self._vectors or self._decode())[1]

    @property
    def n(self) -> int:
        return self.stats.n

    def _decode(self) -> tuple:
        # the vectors are set before the entries are dropped, so a thread
        # that finds no entries finds the vectors
        entries = self._entries
        if entries is not None:
            _set_vectors(self, tuple(map(_decoded, entries, self._counts)))
            _set_entries(self, None)
        return self._vectors


# the slots' own setters: __init__ fills each slot once, past the
# __setattr__ that keeps instances immutable, and faster than
# object.__setattr__, which looks the name up on every call
_set_vectors = BidegreeSequence._vectors.__set__
_set_entries = BidegreeSequence._entries.__set__
_set_counts = BidegreeSequence._counts.__set__
_set_stats = BidegreeSequence.stats.__set__


def _stats(n: int, total: int, total_out: int, ins, outs):
    """The stats of ``n`` int in- and out-degrees that sum to ``total`` and
    ``total_out`` and take the distinct values ``ins`` and ``outs``, or
    None if a value is outside ``[0..n]`` or the two sums differ."""
    min_in, max_in, min_out, max_out = min(ins), max(ins), min(outs), max(outs)
    low, high = min(min_in, min_out), max(max_in, max_out)
    if low < 0 or high > n or total != total_out:
        return None
    # built directly, past the constructor's Python frame
    return tuple.__new__(SequenceStats, (n, total, low, max_in, max_out, high))


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


def _counted(entries: list, decode) -> tuple:
    """``(counts, values)`` of a side's entry strings: a dict from each
    distinct string to its count, made in one C-level pass (``Counter``'s
    own helper, without its Python-level set-up), and the values ``decode``
    gives those strings, in the dict's order."""
    counts = {}
    _count_elements(counts, entries)
    return counts, list(map(decode, counts))


def _decoded(entries: list, counted: tuple) -> tuple:
    """The vector of a side's entry strings, from their :func:`_counted`."""
    counts, values = counted
    value = dict(zip(counts, values))
    if len(entries) < 2:  # itemgetter of one key returns no tuple
        return tuple(map(value.__getitem__, entries))
    # itemgetter over a plain dict reads about twice as fast as a map
    return itemgetter(*entries)(value)


def from_entries(a: list, b: list, decode) -> BidegreeSequence:
    """Validate a sequence from the entry strings of its in-degrees ``a``
    and out-degrees ``b``, through the counts of each side's strings.

    ``decode`` maps an entry string to its int, and is called once per
    distinct string; whatever it raises propagates.  A record that passes
    keeps its counts and decodes its vectors when they are first read; any
    other is decoded and validated as vectors, which raises the error
    :func:`new_sequence` raises, in the same order.
    """
    a_counted, b_counted = _counted(a, decode), _counted(b, decode)
    (a_counts, a_values), (b_counts, b_values) = a_counted, b_counted
    n = len(a)
    found = 0 < n == len(b) and _stats(
        n, sum(map(mul, a_values, a_counts.values())),
        sum(map(mul, b_values, b_counts.values())), a_values, b_values,
    )
    if found:
        seq = object.__new__(BidegreeSequence)
        _set_vectors(seq, None)
        _set_entries(seq, (a, b))
        _set_counts(seq, (a_counted, b_counted))
        _set_stats(seq, found)
        return seq
    return BidegreeSequence(_decoded(a, a_counted), _decoded(b, b_counted))


# sorts pairs by their distinct values alone: int keys compare faster
# than tuples
_first = itemgetter(0)


def degree_pairs(seq: BidegreeSequence) -> tuple:
    """The ``(value, count)`` pairs of the in-degrees and of the
    out-degrees, each list in ascending order: sorted from the counts a
    sequence from :func:`from_entries` was validated from, else from one
    count of each vector, made on each call."""
    counts = seq._counts
    if counts is None:
        return (sorted(Counter(seq.in_degrees).items(), key=_first),
                sorted(Counter(seq.out_degrees).items(), key=_first))
    (a_counts, a_values), (b_counts, b_values) = counts
    return (sorted(zip(a_values, a_counts.values()), key=_first),
            sorted(zip(b_values, b_counts.values()), key=_first))


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
