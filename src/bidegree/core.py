"""Validated bidegree sequences, summary statistics, and conjugate profiles.

A bidegree sequence pairs an in-degree vector ``a`` with an out-degree
vector ``b`` for the ``n`` nodes of a directed graph.  Everything in this
module is exact integer arithmetic on immutable values; no floats appear
anywhere, so comparisons at bound boundaries (where a difference of one
decides graphicality) are never subject to rounding.

Validation reads each vector once with the C-level ``min``/``max``/``sum``
builtins and keeps what it found as ``seq.stats``, so no later layer
rescans a record for its summary integers.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate

from .errors import (
    DegreeExceedsN,
    EntryOutOfRange,
    LengthMismatch,
    NegativeDegree,
    SumMismatch,
)

__all__ = [
    "BidegreeSequence",
    "SequenceStats",
    "ConjugateProfile",
    "new_sequence",
    "stats",
    "sort_canonical",
    "conjugate_profile",
    "pad_bipartite",
]


@dataclass(frozen=True)
class SequenceStats:
    """Exact integer summary of a sequence.

    ``total`` is the shared degree sum (``n`` times the average degree,
    stored as an integer so boundary comparisons stay exact), and
    ``min_degree`` ranges over the concatenation of both vectors.
    """

    n: int
    total: int
    min_degree: int
    max_in: int
    max_out: int
    max_degree: int


@dataclass(frozen=True)
class BidegreeSequence:
    """Paired in-degree and out-degree vectors of equal length and equal sum.

    Entries may equal ``n`` (legal when loops are allowed); the loop-free
    checks treat an entry equal to ``n`` as immediately non-graphic rather
    than rejecting it at construction.  ``stats`` is the summary that
    validation computes on the way; equality and hashing ignore it.
    """

    in_degrees: tuple[int, ...]
    out_degrees: tuple[int, ...]
    stats: SequenceStats = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a, b = self.in_degrees, self.out_degrees
        if len(a) == 0 or len(b) == 0:
            raise LengthMismatch("degree vectors must be nonempty")
        if len(a) != len(b):
            raise LengthMismatch(
                f"in-degree length {len(a)} != out-degree length {len(b)}"
            )
        n = len(a)
        min_in, max_in, min_out, max_out = min(a), max(a), min(b), max(b)
        if min(min_in, min_out) < 0 or max(max_in, max_out) > n:
            _raise_first_out_of_range(a, b, n)
        total = sum(a)
        if total != sum(b):
            raise SumMismatch(
                f"sum of in-degrees {total} != sum of out-degrees {sum(b)}"
            )
        st = SequenceStats(
            n, total, min(min_in, min_out), max_in, max_out, max(max_in, max_out)
        )
        object.__setattr__(self, "stats", st)

    @property
    def n(self) -> int:
        return len(self.in_degrees)

    def pairs(self) -> list[tuple[int, int]]:
        """Per-node (in-degree, out-degree) pairs in input order."""
        return list(zip(self.in_degrees, self.out_degrees))


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


@dataclass(frozen=True)
class ConjugateProfile:
    """Cumulative conjugate sums of an out-degree vector.

    ``counts[i - 1]`` is the number of entries that are >= ``i`` for
    ``i`` in ``[1..n]``, and ``cumulative[j] = sum_i min(b_i, j)`` for
    ``j`` in ``[0..n]``.  The increments ``counts`` are non-increasing,
    so ``cumulative`` is concave, and it saturates at the degree sum once
    ``j`` reaches the maximum entry.
    """

    cumulative: tuple[int, ...]
    counts: tuple[int, ...]


def new_sequence(in_degrees, out_degrees) -> BidegreeSequence:
    """Validate and freeze a bidegree sequence.

    Raises
    ------
    LengthMismatch, NegativeDegree, DegreeExceedsN, SumMismatch
        When the vectors are not a plausible digraph degree sequence.
    """
    return BidegreeSequence(tuple(in_degrees), tuple(out_degrees))


def stats(seq: BidegreeSequence) -> SequenceStats:
    """Node count, degree sum, and min/max degrees, as validation found them."""
    return seq.stats


def sort_canonical(seq: BidegreeSequence) -> BidegreeSequence:
    """Jointly permute pairs so in-degrees are non-increasing.

    Ties are broken by non-increasing out-degree, which keeps the result
    deterministic; the pairing of ``a_i`` with ``b_i`` is preserved.
    Idempotent.
    """
    a, b = zip(*_canonical_pairs(seq))
    return BidegreeSequence(a, b)


def conjugate_profile(out_degrees, n: int) -> ConjugateProfile:
    """Build the conjugate profile of ``out_degrees`` over ``n`` slots.

    ``counts`` comes from a histogram plus suffix sums and ``cumulative``
    from a prefix sum, so the whole table costs O(n).  ``cumulative[j]``
    equals the direct evaluation of ``sum_i min(b_i, j)`` for every ``j``.

    Raises
    ------
    EntryOutOfRange
        If an entry falls outside ``[0..n]``.
    """
    hist = Counter(out_degrees)
    if hist:
        if min(hist) < 0:
            raise EntryOutOfRange(f"entry {min(hist)} outside [0..{n}]")
        if max(hist) > n:
            raise EntryOutOfRange(f"entry {max(hist)} outside [0..{n}]")
    counts = _ge_counts(hist, n)
    cumulative = [0]
    cumulative.extend(accumulate(counts))
    return ConjugateProfile(tuple(cumulative), tuple(counts))


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


def _canonical_pairs(seq: BidegreeSequence) -> list[tuple[int, int]]:
    """(in, out) pairs, in-degree descending, ties by out-degree descending.

    The one canonical order: :func:`sort_canonical`, the loop-free exact
    check and the heavy-tail certificate all read it.
    """
    return sorted(zip(seq.in_degrees, seq.out_degrees), reverse=True)


# -- internal fast-path helpers -------------------------------------------
#
# The exact checks only ever need conjugate sums and sorted prefix sums up
# to the maximum out-degree: beyond it the conjugate side saturates at the
# degree sum, which every prefix is bounded by.  These helpers build just
# that much, from value histograms, so the checks cost O(distinct values +
# max degree) after the C-level counting pass.


def _ge_counts(hist: Counter, limit: int) -> list[int]:
    """``out[i - 1] = #(entries >= i)`` for ``i`` in ``[1..limit]``."""
    counts = [0] * limit
    ge = 0
    items = sorted(hist.items(), reverse=True)
    for idx, (v, c) in enumerate(items):
        ge += c
        lo = items[idx + 1][0] + 1 if idx + 1 < len(items) else 1
        hi = min(v, limit)
        if hi >= lo:
            counts[lo - 1 : hi] = [ge] * (hi - lo + 1)
    return counts


def _prefix_sorted_desc(vec, limit: int) -> list[int]:
    """First ``limit`` prefix sums of ``vec`` sorted descending, led by 0."""
    prefix = [0]
    last = 0
    need = limit
    for v, c in sorted(Counter(vec).items(), reverse=True):
        if need <= 0:
            break
        c = min(c, need)
        if v:
            prefix.extend(range(last + v, last + v * c + 1, v))
            last += v * c
        else:
            prefix.extend([last] * c)
        need -= c
    return prefix


def _conjugate_cumulative(hist: Counter, limit: int) -> list[int]:
    """Conjugate cumulative sums ``F(0..limit)`` from a value histogram."""
    out = [0]
    out.extend(accumulate(_ge_counts(hist, limit)))
    return out
