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
degree sum.  Both sort only the distinct in-degree values, O(n + d log d)
for ``d`` distinct values.  The loop-free check also reads the
out-degrees of the first ``M`` pairs in canonical order, ``M`` the
maximum out-degree, so it sorts only the ``k`` pairs whose in-degree is
at least the ``M``-th largest: O(n + k log k), with ``k = n`` only when
no in-degree is smaller.

``brute_force_exists`` is an independent ground-truth oracle for tiny
instances: it exhaustively enumerates 0-1 matrices (as a pruned row-wise
search) and reports whether any matches the margins.
"""

from __future__ import annotations

import enum
from collections import Counter, namedtuple
from itertools import accumulate, chain, combinations, islice, repeat, starmap
from operator import sub

from .core import BidegreeSequence
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


# The checks only ever need conjugate sums and sorted prefix sums up to
# the maximum out-degree: beyond it the conjugate side saturates at the
# degree sum, which every prefix is bounded by.  Both helpers take the
# degree vector itself, count it once with a C-level ``Counter``, and build
# only that much: an ``accumulate`` pipeline over ``range(limit)`` for the
# conjugate sums, and the descending value groups cut at ``limit`` for the
# prefix.  After the count each costs O(limit), plus a sort of the
# distinct values for the prefix.


def _conjugate_sums(vec, limit: int) -> list[int]:
    """``F(j) = sum_i min(v_i, j)`` for ``j`` in ``[0..limit]``.

    Step ``j`` adds ``#(v_i >= j) = len(vec) - #(v_i < j)``.
    """
    hist = Counter(vec)
    below = accumulate(map(hist.get, range(limit), repeat(0)))
    return list(accumulate(map(sub, repeat(len(vec)), below), initial=0))


def _sorted_prefix(vec, limit: int) -> list[int]:
    """First ``limit`` prefix sums of ``vec`` sorted descending, led by 0."""
    groups = sorted(Counter(vec).items(), reverse=True)
    desc = chain.from_iterable(starmap(repeat, groups))
    return list(accumulate(islice(desc, limit), initial=0))


def _slack(seq: BidegreeSequence, allow_loops: bool) -> list:
    """Capacity minus demand of the policy's inequality ``j``, for ``j`` in
    ``[0..limit]``; graphic under the policy iff no entry is negative."""
    a, b = seq.in_degrees, seq.out_degrees
    limit = seq.stats.max_out  # without loops j = n when some b_i = n
    if allow_loops:
        limit = min(limit, seq.n - 1)
    prefix = _sorted_prefix(a, limit)
    slack = list(map(sub, _conjugate_sums(b, limit), prefix))
    if allow_loops or limit == 0:
        return slack
    # diagonal correction c[j] = #(i <= j with b_i >= j) over the first
    # `limit` canonical pairs, by interval stabbing (pair i covers
    # [i..b_i]); each has an in-degree of at least t, the limit-th
    # largest, so they lead the sort of just those pairs
    t = prefix[limit] - prefix[limit - 1]
    top = sorted([p for p in zip(a, b) if p[0] >= t], reverse=True)
    diff = [0] * (limit + 2)
    for i, (_, b_i) in enumerate(top[:limit], 1):
        if b_i >= i:
            diff[i] += 1
            diff[b_i + 1] -= 1
    return list(map(sub, slack, accumulate(diff[: limit + 1])))


def check_with_loops(seq: BidegreeSequence) -> CheckOutcome:
    """Decide whether ``seq`` is realizable allowing self-loops.

    Returns GRAPHIC, or NOT_GRAPHIC with the first violated index as
    witness.
    """
    return _outcome(_slack(seq, True))


def check_no_loops(seq: BidegreeSequence) -> CheckOutcome:
    """Decide whether ``seq`` is realizable with a zero diagonal.

    An in-degree equal to ``n`` fails at ``j = 1`` and an out-degree equal
    to ``n`` fails at ``j = n``; no other sequence can produce a witness
    of ``n``.
    """
    return _outcome(_slack(seq, False))


def violated_indices(seq: BidegreeSequence, allow_loops: bool = True) -> list[int]:
    """Every index at which the relevant inequality system fails.

    Empty exactly when the sequence is graphic under the given loop
    policy.  Violations can only occur at indices up to the maximum
    out-degree, so the returned list is complete even though the scan is
    truncated there.
    """
    return [j for j, s in enumerate(_slack(seq, allow_loops)) if s < 0]


def _col_feasible(resid, next_row, n, allow_loops):
    rows_left = n - next_row
    for j, r in enumerate(resid):
        cap = rows_left
        if not allow_loops and j >= next_row:
            cap -= 1
        if r > cap:
            return False
    return True


def brute_force_exists(seq: BidegreeSequence, allow_loops: bool = True) -> bool:
    """Ground-truth oracle: does any 0-1 matrix realize the margins?

    Enumerates matrices row by row (diagonal forced to zero when loops are
    disallowed), pruning branches whose residual column sums can no longer
    be met.  Deterministic; intended for tests and tiny instances only.

    Raises
    ------
    InstanceTooLarge
        If ``seq.n`` exceeds the cap, 4 with loops and 5 without.
    """
    cap = BRUTE_FORCE_CAP_LOOPS if allow_loops else BRUTE_FORCE_CAP_NO_LOOPS
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
