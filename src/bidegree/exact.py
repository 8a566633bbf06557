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

Both checks test a record at the ends of its in-degree groups.  Sort the
in-degrees descending and let ``j_1 < j_2 < ... < j_d = n`` be the
indices where a group of equal values ends, ``v_k`` the value of group
``k``.  Only the ends with ``j_k <= limit`` need evaluating, ``limit`` the
maximum out-degree (and at most ``n - 1`` with loops): no inequality with
``j`` beyond it can fail, because the conjugate side has already
saturated at the full degree sum.

* With loops the slack ``s(j) = sum_i min(b_i, j) - sum_{i<=j} a_i`` is
  concave between two consecutive ends: the first sum gains
  ``#(b_i >= j)``, which never grows with ``j``, and the second gains the
  same ``v_k`` at every step inside group ``k``.  A concave function
  takes its minimum over an interval at one of its ends, and ``s(0) = 0``,
  so ``s >= 0`` everywhere exactly when it holds at every group end.
* Without loops, Berger (2014, "A note on the characterization of
  digraphic sequences", Discrete Math. 314) shows that, with the pairs in
  nonincreasing lexicographic order, the Fulkerson--Chen--Anstee system
  holds exactly when its inequalities hold at the indices ``j < n`` where
  the in-degree drops, ``a_j > a_{j+1}``, and at ``j = n``; these are the
  group ends.  The diagonal correction ``c(j) = #(i <= j with b_i >= j)``
  is at most ``min(j, #(b_i >= j))`` in any order of ties, so an end whose
  with-loops slack covers that bound holds without reading a pair.
  ``j = n`` fails exactly when some ``b_i = n``.

One kernel, :func:`_group_ends`, runs both tests.  It reads ``n``, the
limit and each side's ``(value, count)`` pairs in ascending order, never
a sequence, so a caller can hand it any vectors with few distinct values.
It walks the in-degree groups from the top and sweeps
``sum_i min(b_i, j)`` over the out-degree pairs to each end, in
O(d) after the sort for ``d`` distinct degrees.  With loops it decides a
record; without loops it is sufficient only, since an end that does not
cover the bound may still hold.  The checks take the pairs from
:func:`~bidegree.core.degree_pairs`: a record parsed from text was
validated from its counts and sorts those, and any other sequence is
counted there once, in O(n).  A record the kernel does not certify goes,
under either policy, to the full scan of every index ``j = 1..limit``,
whose first negative entry is the witness.  With loops the scan reads
only the pairs; without loops it needs the record's own pairing and
decides it exactly.  The scan also serves ``violated_indices``, which
needs every index.

``brute_force_exists`` is an independent ground-truth oracle with no size
limit: it builds a 0-1 matrix with the margins as a polynomial max flow,
one one at a time along augmenting paths, and says whether all fit.
"""

from __future__ import annotations

import enum
from collections import deque, namedtuple
from itertools import accumulate, chain, islice, repeat, starmap
from operator import sub

from .core import BidegreeSequence, degree_pairs

__all__ = [
    "Verdict",
    "CheckOutcome",
    "check_with_loops",
    "check_no_loops",
    "violated_indices",
    "brute_force_exists",
]


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


def _group_ends(
    n: int, limit: int, ins: list, outs: list, allow_loops: bool
) -> bool:
    """Whether the group-end test certifies graphic, under the policy, the
    ``n`` in-degrees and ``n`` out-degrees of equal sum given as ascending
    ``(value, count)`` pairs ``ins`` and ``outs``, up to ``limit`` (the
    maximum out-degree, and at most ``n - 1`` with loops).

    Exact with loops; without loops a record it does not certify may
    still be graphic.
    """
    if limit == n:
        return False  # without loops j = n reads S <= S - #(b_i = n)
    # F(j) = sum_i min(b_i, j) is the sum of the out-degrees below j plus
    # j for each of the `ge` others; the with-loops slack F(j) less the
    # demand must cover the correction, at most min(j, ge) without loops
    ascending = iter(outs)
    out, count = next(ascending)
    below = below_sum = demand = end = 0
    for v, c in reversed(ins):
        end += c
        if end > limit:
            break
        demand += v * c
        while out < end:  # an out-degree of at least end <= limit exists
            below += count
            below_sum += out * count
            out, count = next(ascending)
        ge = n - below
        if below_sum + end * ge - demand < (
            0 if allow_loops else min(end, ge)
        ):
            return False
    return True


# The full scan only ever needs conjugate sums and sorted prefix sums up
# to the maximum out-degree: beyond it the conjugate side saturates at the
# degree sum, which every prefix is bounded by.  It builds only that much,
# in O(limit): an ``accumulate`` pipeline over ``range(limit)`` of the
# out-degree count for the conjugate sums, and the descending in-degree
# groups cut at ``limit`` for the prefix.


def _conjugate_sums(hist: dict, n: int, limit: int) -> list[int]:
    """``F(j) = sum_i min(v_i, j)`` for ``j`` in ``[0..limit]``, from the
    count ``hist`` of the ``n`` values ``v``.

    Step ``j`` adds ``#(v_i >= j) = n - #(v_i < j)``.
    """
    below = accumulate(map(hist.get, range(limit), repeat(0)))
    return list(accumulate(map(sub, repeat(n), below), initial=0))


def _slack(
    seq: BidegreeSequence, allow_loops: bool, ins: list, outs: list
) -> list:
    """Capacity minus demand of the policy's inequality ``j``, for ``j`` in
    ``[0..limit]``, from the ascending ``(value, count)`` pairs ``ins`` and
    ``outs`` of each side; graphic under the policy iff no entry is
    negative."""
    n, limit = seq.n, outs[-1][0]
    if allow_loops:
        limit = min(limit, n - 1)
    desc = chain.from_iterable(starmap(repeat, reversed(ins)))
    prefix = list(accumulate(islice(desc, limit), initial=0))
    slack = list(map(sub, _conjugate_sums(dict(outs), n, limit), prefix))
    if allow_loops or limit == 0:
        return slack
    # diagonal correction c[j] = #(i <= j with b_i >= j) over the first
    # `limit` canonical pairs, by interval stabbing (pair i covers
    # [i..b_i]); each has an in-degree of at least t, the limit-th
    # largest, so they lead the sort of just those pairs
    t = prefix[limit] - prefix[limit - 1]
    pairs = zip(seq.in_degrees, seq.out_degrees)
    top = sorted([(x, y) for x, y in pairs if x >= t], reverse=True)
    diff = [0] * (limit + 2)
    for i, (_, b_i) in enumerate(top[:limit], 1):
        if b_i >= i:
            diff[i] += 1
            diff[b_i + 1] -= 1
    return list(map(sub, slack, accumulate(diff[: limit + 1])))


def _rescan(
    seq: BidegreeSequence, allow_loops: bool, ins: list, outs: list
) -> CheckOutcome:
    """The outcome of the full scan, for a record the group ends did not
    certify."""
    slack = _slack(seq, allow_loops, ins, outs)
    witness = next((j for j, s in enumerate(slack) if s < 0), None)
    if witness is None:
        return GRAPHIC
    return CheckOutcome(Verdict.NOT_GRAPHIC, witness)


def check_with_loops(seq: BidegreeSequence) -> CheckOutcome:
    """Decide whether ``seq`` is realizable allowing self-loops.

    Returns GRAPHIC, or NOT_GRAPHIC with the first violated index as
    witness.
    """
    ins, outs = degree_pairs(seq)
    n = seq.stats.n
    if _group_ends(n, min(outs[-1][0], n - 1), ins, outs, True):
        return GRAPHIC
    return _rescan(seq, True, ins, outs)


def check_no_loops(seq: BidegreeSequence) -> CheckOutcome:
    """Decide whether ``seq`` is realizable with a zero diagonal.

    Returns GRAPHIC, or NOT_GRAPHIC with the first violated index as
    witness.  An in-degree equal to ``n`` fails at ``j = 1`` and an
    out-degree equal to ``n`` fails at ``j = n``; no other sequence can
    produce a witness of ``n``.
    """
    ins, outs = degree_pairs(seq)
    if _group_ends(seq.stats.n, outs[-1][0], ins, outs, False):
        return GRAPHIC
    return _rescan(seq, False, ins, outs)


def violated_indices(seq: BidegreeSequence, allow_loops: bool = True) -> list[int]:
    """Every index at which the relevant inequality system fails.

    Empty exactly when the sequence is graphic under the given loop
    policy.  It reads the full scan of every index up to the maximum
    out-degree, not only the group ends the checks test: violations can
    only occur up to that index, so the list is complete.
    """
    slack = _slack(seq, allow_loops, *degree_pairs(seq))
    return [j for j, s in enumerate(slack) if s < 0]


def brute_force_exists(seq: BidegreeSequence, allow_loops: bool = True) -> bool:
    """Ground-truth oracle: does any 0-1 matrix realize the margins?

    A max flow from rows (row ``i`` needs ``a_i`` ones) to columns (column
    ``j`` takes ``b_j``) places one one at a time along a breadth-first
    augmenting path.  A row moves into a column where it has no one (not
    its own without loops); a column with spare load ends the path, and a
    full one passes the search on to the rows holding a one in it, each
    of which would give that one up.  One failure decides: a row with no
    augmenting path never gains one after later augmentations (the
    standard lemma for Kuhn's matching algorithm), so the flow cannot
    reach ``S``.  It calls none of the checks above, so it stays
    independent of the inequalities it arbitrates.
    """
    n, b = seq.n, seq.out_degrees
    cell = [[0] * n for _ in range(n)]
    load = [0] * n
    for i, a_i in enumerate(seq.in_degrees):
        for _ in range(a_i):
            gives_up = {i: None}  # row reached -> the column it gives up
            moved_by = {}  # column reached -> the row that moves into it
            queue, end = deque([i]), None
            while queue and end is None:
                r = queue.popleft()
                for j in range(n):
                    if j in moved_by or cell[r][j] or (j == r and not allow_loops):
                        continue
                    moved_by[j] = r
                    if load[j] < b[j]:
                        end = j
                        break
                    for k in range(n):
                        if cell[k][j] and k not in gives_up:
                            gives_up[k] = j
                            queue.append(k)
            if end is None:
                return False
            load[end] += 1
            j = end
            while j is not None:
                r = moved_by[j]
                cell[r][j] = 1
                j = gives_up[r]
                if j is not None:
                    cell[r][j] = 0
    return True
