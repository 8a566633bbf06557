"""Exact necessary-and-sufficient graphicality checks.

A bidegree sequence is graphic with loops exactly when, with in-degrees
sorted descending, every prefix sum of the in-degrees is covered by the
conjugate sums of the out-degrees:

    sum_{i<=j} a_i  <=  sum_i min(b_i, j)        for j in [1..n-1].

The loop-free variant charges each of the first ``j`` positions one less
unit of capacity (their node cannot receive its own stub):

    sum_{i<=j} a_i  <=  sum_{i<=j} min(b_i, j-1) + sum_{i>j} min(b_i, j),

with the pairs jointly sorted so the first ``j`` out-degrees are the ones
co-indexed with the ``j`` largest in-degrees.  Here the scan extends to
``j = n``, where the inequality reads ``S <= S - #(b_i = n)``; this is how
an out-degree equal to ``n`` (impossible without a loop) is rejected, and
it is the only case where a witness of ``n`` can occur.

Both checks count each vector once in O(n) and evaluate only the indices
up to the maximum out-degree: no inequality with ``j`` beyond it can
fail, because the conjugate side has already saturated at the full
degree sum.  The with-loops check sorts only the distinct in-degree
values, O(n + d log d) for ``d`` distinct values; the loop-free check
sorts the ``n`` pairs, O(n log n).

``brute_force_exists`` is an independent ground-truth oracle for tiny
instances: it exhaustively enumerates 0-1 matrices (as a pruned row-wise
search) and reports whether any matches the margins.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from itertools import accumulate, combinations
from operator import sub

from .core import (
    BidegreeSequence,
    _canonical_pairs,
    _conjugate_sums,
    _sorted_prefix,
)
from .errors import InstanceTooLarge

__all__ = [
    "Verdict",
    "CheckOutcome",
    "check_with_loops",
    "check_no_loops",
    "violated_indices",
    "brute_force_exists",
    "BRUTE_FORCE_CAP_LOOPS",
    "BRUTE_FORCE_CAP_NO_LOOPS",
]

BRUTE_FORCE_CAP_LOOPS = 4
BRUTE_FORCE_CAP_NO_LOOPS = 5


class Verdict(enum.Enum):
    GRAPHIC = "GRAPHIC"
    NOT_GRAPHIC = "NOT_GRAPHIC"
    INCONCLUSIVE = "INCONCLUSIVE"


class CheckOutcome(
    namedtuple(
        "CheckOutcome", "verdict witness certificate", defaults=(None, None)
    )
):
    """Result of a graphicality check.

    ``witness`` is a violated inequality index (exact checks only);
    ``certificate`` names the sufficient condition that fired (only on
    GRAPHIC outcomes from :mod:`bidegree.sufficient`).  Exact checks never
    return INCONCLUSIVE.  Both default to None.
    """

    __slots__ = ()

    @property
    def is_graphic(self) -> bool:
        return self.verdict is Verdict.GRAPHIC


GRAPHIC = CheckOutcome(Verdict.GRAPHIC)
INCONCLUSIVE = CheckOutcome(Verdict.INCONCLUSIVE)


def _outcome(slack: list) -> CheckOutcome:
    """GRAPHIC, or NOT_GRAPHIC at the first index of negative slack."""
    witness = next((j for j, s in enumerate(slack) if s < 0), None)
    if witness is None:
        return GRAPHIC
    return CheckOutcome(Verdict.NOT_GRAPHIC, witness=witness)


def _loops_slack(seq: BidegreeSequence) -> list:
    """Conjugate sum minus sorted prefix, for ``j`` in ``[0..limit]``."""
    limit = min(seq.stats.max_out, seq.n - 1)
    conj = _conjugate_sums(seq.out_degrees, limit)
    return list(map(sub, conj, _sorted_prefix(seq.in_degrees, limit)))


def check_with_loops(seq: BidegreeSequence) -> CheckOutcome:
    """Decide whether ``seq`` is realizable allowing self-loops.

    Returns GRAPHIC, or NOT_GRAPHIC with the first violated index as
    witness.
    """
    return _outcome(_loops_slack(seq))


def _no_loops_slack(seq: BidegreeSequence) -> list:
    """Per-index slack of the loop-free system, for ``j`` in ``[0..limit]``.

    Entry ``j`` is (capacity minus demand) of the ``j``-th inequality;
    the sequence is loop-free graphic iff no entry is negative.
    """
    pairs = _canonical_pairs(seq)
    limit = seq.stats.max_out  # <= n; j = n reachable only when some b_i = n
    conj = _conjugate_sums(seq.out_degrees, limit)
    # diagonal correction: c[j] = #(i <= j with b_i >= j), via interval
    # stabbing (pair i covers j in [i..b_i])
    diff = [0] * (limit + 2)
    for i in range(1, limit + 1):
        b_i = pairs[i - 1][1]
        if b_i >= i:
            diff[i] += 1
            diff[b_i + 1] -= 1
    correction = accumulate(diff[: limit + 1])
    prefix_a = accumulate((p[0] for p in pairs[:limit]), initial=0)
    return [f - c - s for f, c, s in zip(conj, correction, prefix_a)]


def check_no_loops(seq: BidegreeSequence) -> CheckOutcome:
    """Decide whether ``seq`` is realizable with a zero diagonal.

    An in-degree equal to ``n`` fails at ``j = 1`` and an out-degree equal
    to ``n`` fails at ``j = n``; no other sequence can produce a witness
    of ``n``.
    """
    return _outcome(_no_loops_slack(seq))


def violated_indices(seq: BidegreeSequence, allow_loops: bool = True) -> list[int]:
    """Every index at which the relevant inequality system fails.

    Empty exactly when the sequence is graphic under the given loop
    policy.  Violations can only occur at indices up to the maximum
    out-degree, so the returned list is complete even though the scan is
    truncated there.
    """
    assert sum(seq.in_degrees) == sum(seq.out_degrees)
    slack = _loops_slack(seq) if allow_loops else _no_loops_slack(seq)
    return [j for j, s in enumerate(slack) if s < 0]


def _col_feasible(resid, next_row, n, allow_loops):
    rows_left = n - next_row
    for j, r in enumerate(resid):
        cap = rows_left
        if not allow_loops and j >= next_row:
            cap -= 1
        if r > cap:
            return False
    return True


def brute_force_exists(
    seq: BidegreeSequence,
    allow_loops: bool = True,
    max_n: int | None = None,
) -> bool:
    """Ground-truth oracle: does any 0-1 matrix realize the margins?

    Enumerates matrices row by row (diagonal forced to zero when loops are
    disallowed), pruning branches whose residual column sums can no longer
    be met.  Deterministic; intended for tests and tiny instances only.

    Raises
    ------
    InstanceTooLarge
        If ``seq.n`` exceeds the cap (default 4 with loops, 5 without).
    """
    cap = max_n if max_n is not None else (
        BRUTE_FORCE_CAP_LOOPS if allow_loops else BRUTE_FORCE_CAP_NO_LOOPS
    )
    n = seq.n
    if n > cap:
        raise InstanceTooLarge(f"n={n} exceeds brute-force cap {cap}")
    a = seq.in_degrees
    resid = list(seq.out_degrees)
    memo: dict = {}

    def rec(i: int) -> bool:
        if i == n:
            return True  # sums match by construction, so residuals are zero
        key = (i, tuple(resid))
        hit = memo.get(key)
        if hit is not None:
            return hit
        cols = [
            j
            for j in range(n)
            if resid[j] > 0 and (allow_loops or j != i)
        ]
        found = False
        if len(cols) >= a[i]:
            for combo in combinations(cols, a[i]):
                for j in combo:
                    resid[j] -= 1
                if _col_feasible(resid, i + 1, n, allow_loops) and rec(i + 1):
                    found = True
                for j in combo:
                    resid[j] += 1
                if found:
                    break
        memo[key] = found
        return found

    return rec(0)
