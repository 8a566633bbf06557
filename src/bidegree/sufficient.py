"""Constant-time sufficient certificates for graphicality.

Each check either certifies graphicality or reports INCONCLUSIVE, never
NOT_GRAPHIC.  Most read only ``seq.stats``, the summary that validation
computed (node count ``n``, degree sum ``S``, minimum ``m``, maxima
``Ma``/``Mb``/``M``); the equal-vector check also compares the two
vectors, and the heavy-tail check walks the canonical pair order as a
count of distinct pairs, which :func:`prepare` lists for it.  Its cost
is an O(n) necessary test with no sort plus, only when that passes, the
profile of distinct pairs.  The conditions, by the CLI code used to
select them:

======  ========================  =======================================
code    certifies                 condition
======  ========================  =======================================
thm2    graphic with loops        a == b elementwise and
                                  floor((m+M)^2 / 4) <= m*n
thm3    graphic with loops        Ma * Mb <= S + 1
thm4    graphic (no loops)        (Ma + 1) * Mb <= S
thm5    graphic with loops        M <= min(floor((S - n*m)/k) + m, n)
                                  for k = ceil(m + sqrt(m^2 + S - 2*m*n))
thm6    graphic (no loops)        same with offset m+1 and cap n-1
cor2    graphic with loops        M <= k and M*k <= S for some integer k
cor3    graphic (no loops)        M < k and M*k <= S for some integer k
cor5    graphic with loops        thm5 after setting aside the R largest
                                  in-degrees (a light heavy tail)
======  ========================  =======================================

All square roots are exact integer square roots; ``ceil(m + sqrt(D))`` is
computed as ``m + isqrt(D)`` plus one unless ``D`` is a perfect square,
so boundary cases never depend on floating point.

A certificate that applies without loops also applies with loops (a
zero-diagonal realization is a realization).  :func:`certify` tries only
the rungs that can fire first: thm3, thm5, cor5, thm2 with loops and
thm4, thm6 without.  Every other condition implies a rung tried before
it (cor2 and cor3 imply thm3 and thm4, thm4 implies thm3, thm6 implies
thm5, and cor5 at ``R = 0`` implies thm5); the proofs are at the ladder
tuples.
"""

from __future__ import annotations

import enum
from collections import Counter, namedtuple
from itertools import accumulate
from math import isqrt

from .core import BidegreeSequence
from .errors import Infeasible, InvalidStats
from .exact import (
    INCONCLUSIVE,
    CheckOutcome,
    Verdict,
    check_no_loops,
    check_with_loops,
)

__all__ = [
    "Condition",
    "Certificate",
    "BoundTable",
    "prepare",
    "kstar_with_loops",
    "kstar_no_loops",
    "check_thm2",
    "check_thm3",
    "check_thm4",
    "check_thm5",
    "check_thm6",
    "check_cor2",
    "check_cor3",
    "check_cor5",
    "thm3_special_max",
    "thm4_special_max",
    "minimizer_b_star",
    "bound_table",
    "certify",
]


class Certificate(namedtuple("Certificate", "condition parameters")):
    """A fired condition plus the integers needed to re-verify it.

    ``condition`` is a :class:`Condition` and ``parameters`` a dict from
    name to integer.
    """

    __slots__ = ()


class BoundTable(namedtuple("BoundTable", "n m total h")):
    """Largest certifiable maximum degree per condition, for fixed stats.

    ``h[J]`` is the largest ``M`` such that condition ``thmJ`` certifies a
    sequence with node count ``n``, minimum ``m``, degree sum ``total``
    and maximum degree ``M`` (side hypotheses permitting).  Keys 5 and 6
    are present only when ``m >= 1`` (and ``m <= n-1`` for 6).
    """

    __slots__ = ()


def prepare(seq: BidegreeSequence) -> list:
    """cor5's counted pair profile: one row ``(x, y, count, M_rest)`` per
    distinct (in, out) pair, in canonical order, with ``M_rest`` the
    largest degree among it and the pairs after it.  Equal pairs are
    interchangeable, so :func:`check_cor5` reads the same quantities as on
    the full sorted order.  Empty unless :func:`_cor5_may_fire`, an O(n)
    test with no sort, passes; every other check ignores it."""
    if not _cor5_may_fire(seq):
        return []
    # ascending, so the running max is the max over the pairs after a row
    counts = sorted(Counter(zip(seq.in_degrees, seq.out_degrees)).items())
    suffix_max = accumulate((max(pair) for pair, _ in counts), max)
    rows = [(x, y, count, M) for ((x, y), count), M in zip(counts, suffix_max)]
    rows.reverse()
    return rows


def _ceil_isqrt(x: int) -> int:
    """Exact ceiling of sqrt(x) for x >= 0."""
    r = isqrt(x)
    return r if r * r == x else r + 1


def _graphic(condition: Condition, **parameters) -> CheckOutcome:
    return CheckOutcome(
        Verdict.GRAPHIC, certificate=Certificate(condition, parameters)
    )


def _kstar(n: int, S: int, m: int, offset: int) -> tuple[int, bool]:
    """``(ceil(c + sqrt(c^2 + S - 2*m*n)), True)`` with ``c = m + offset``,
    or ``(1, False)`` when the discriminant is negative."""
    c = m + offset
    disc = c * c + S - 2 * m * n
    if disc < 0:
        return 1, False
    return c + _ceil_isqrt(disc), True


def kstar_with_loops(n: int, S: int, m: int) -> tuple[int, bool]:
    """Smallest prefix count whose mean/min inequality binds, with loops.

    Returns ``(k, real)`` where ``k = ceil(m + sqrt(m^2 + S - 2*m*n))``
    when the discriminant is nonnegative (``real`` True), and ``(1,
    False)`` otherwise.

    Raises
    ------
    InvalidStats
        Unless ``1 <= m <= n`` and ``n*m <= S``.
    """
    if m < 1 or m > n or S < n * m:
        raise InvalidStats(f"need 1 <= m <= n and n*m <= S, got n={n} S={S} m={m}")
    return _kstar(n, S, m, 0)


def kstar_no_loops(n: int, S: int, m: int) -> tuple[int, bool]:
    """Loop-free analogue of :func:`kstar_with_loops` (offset ``m + 1``)."""
    if m < 1 or m > n - 1 or S < n * m:
        raise InvalidStats(
            f"need 1 <= m <= n-1 and n*m <= S, got n={n} S={S} m={m}"
        )
    return _kstar(n, S, m, 1)


def _mean_min_bound(n: int, S: int, m: int, offset: int) -> tuple[int, int]:
    """``(k, Mmax)`` of the mean/min bound: offset 0 and cap ``n`` with
    loops (thm5), offset 1 and cap ``n - 1`` without (thm6)."""
    k, _ = _kstar(n, S, m, offset)
    return k, min((S - n * m) // k + m, n - offset)


def check_thm2(seq: BidegreeSequence, prep: list | None = None) -> CheckOutcome:
    """Equal-vector min/max certificate (graphic with loops).

    Applies only when every node's in-degree equals its out-degree (an
    elementwise test; it is equivalent whether made before or after
    canonical sorting).  Certifies when ``floor((m+M)^2/4) <= m*n``.
    """
    if seq.in_degrees != seq.out_degrees:
        return INCONCLUSIVE
    st = seq.stats
    m, M = st.min_degree, st.max_degree
    if (m + M) ** 2 // 4 <= m * st.n:
        return _graphic(Condition.ZZ, m=m, M=M, n=st.n)
    return INCONCLUSIVE


def check_thm3(seq: BidegreeSequence, prep: list | None = None) -> CheckOutcome:
    """Max-product certificate: ``Ma * Mb <= S + 1`` (graphic with loops)."""
    st = seq.stats
    if st.max_in * st.max_out <= st.total + 1:
        return _graphic(
            Condition.MAX_PRODUCT_LOOPS, Ma=st.max_in, Mb=st.max_out, S=st.total
        )
    return INCONCLUSIVE


def check_thm4(seq: BidegreeSequence, prep: list | None = None) -> CheckOutcome:
    """Max-product certificate ``(Ma + 1) * Mb <= S`` (graphic, no loops)."""
    st = seq.stats
    if (st.max_in + 1) * st.max_out <= st.total:
        return _graphic(
            Condition.MAX_PRODUCT_NO_LOOPS,
            Ma=st.max_in,
            Mb=st.max_out,
            S=st.total,
        )
    return INCONCLUSIVE


def thm3_special_max(S: int) -> int:
    """Largest symmetric maximum degree covered by thm3: ``isqrt(S + 1)``."""
    return isqrt(S + 1)


def thm4_special_max(S: int) -> int:
    """Largest M with ``M * (M + 1) <= S``, in exact integers.

    ``M*(M+1) <= S`` iff ``(2M+1)^2 <= 4S+1`` iff ``2M+1 <= isqrt(4S+1)``.
    """
    return (isqrt(4 * S + 1) - 1) // 2


def _mean_min(seq, condition, offset) -> CheckOutcome:
    """thm5 (offset 0) or thm6 (offset 1, which also needs ``m < n``)."""
    st = seq.stats
    n, S, m = st.n, st.total, st.min_degree
    if m < 1 or m + offset > n:
        return INCONCLUSIVE
    k, m_max = _mean_min_bound(n, S, m, offset)
    if st.max_degree <= m_max:
        return _graphic(
            condition, k=k, Mmax=m_max, M=st.max_degree, m=m, n=n, S=S
        )
    return INCONCLUSIVE


def check_thm5(seq: BidegreeSequence, prep: list | None = None) -> CheckOutcome:
    """Mean/min certificate (graphic with loops).

    Requires a positive minimum degree; certifies when the maximum degree
    is at most ``min(floor((S - n*m)/k) + m, n)``.
    """
    return _mean_min(seq, Condition.MEAN_MIN_LOOPS, 0)


def check_thm6(seq: BidegreeSequence, prep: list | None = None) -> CheckOutcome:
    """Mean/min certificate, loop-free variant (cap ``n - 1``)."""
    return _mean_min(seq, Condition.MEAN_MIN_NO_LOOPS, 1)


def _multiplicity(seq, condition, strict) -> CheckOutcome:
    """cor2 (``M <= k``) or, when ``strict``, cor3 (``M < k``) for
    ``k = floor(S / M)``, or ``k = n`` when ``M = 0``."""
    st = seq.stats
    M, S = st.max_degree, st.total
    if M >= st.n:
        return INCONCLUSIVE
    k = S // M if M else st.n
    if (M < k) if strict else (M <= k):
        return _graphic(condition, k=k, M=M, S=S)
    return INCONCLUSIVE


def check_cor2(seq: BidegreeSequence, prep: list | None = None) -> CheckOutcome:
    """Multiplicity certificate (graphic with loops).

    Certifies when some integer ``k`` has ``M <= k`` and ``M*k <= S``;
    the best candidate is ``k = floor(S / M)``, so the test reduces to
    ``M**2 <= S``.  Requires ``M < n``.
    """
    return _multiplicity(seq, Condition.MULTIPLICITY_LOOPS, False)


def check_cor3(seq: BidegreeSequence, prep: list | None = None) -> CheckOutcome:
    """Strict multiplicity certificate (graphic, no loops): ``M < k``."""
    return _multiplicity(seq, Condition.MULTIPLICITY_NO_LOOPS, True)


def _cor5_may_fire(seq: BidegreeSequence) -> bool:
    """False only when :func:`check_cor5` cannot certify ``seq``.

    At most two O(n) passes over the vectors and no sort; :func:`prepare`
    runs it before building any profile.
    """
    st = seq.stats
    n, S, m = st.n, st.total, st.min_degree
    if m < 1:
        return False
    # cor5 fires at R only if every degree above cap = thm5's Mmax sits
    # among the first R pairs.  At each R the scan tests, P >= R*m (each
    # set-aside in-degree is >= m), so the numerator S - n*m - P + R*m is
    # at most thm5's S - n*m >= 0; the discriminant m^2 + S + R*m - 2*m*n
    # grows with R, so k_R >= k_thm5 (k = 1 when it is negative, and
    # k_R >= m >= 1 otherwise).  Hence Mmax(R) <= cap, and M_rest <=
    # Mmax(R) puts every pair with a degree above cap before position R.
    cap = _mean_min_bound(n, S, m, 0)[1]
    if st.max_degree <= cap:
        return True
    # The scan tests R iff m*(n - R - 1) >= P_R, the mass of the R largest
    # in-degrees.  The left side falls with R and P_R never does, so the
    # tested R are 0..R_last, and testing some R tests every smaller one.
    # Every pair with a degree above cap must come before a tested R:
    # (A) the h in-degrees above cap are the h largest, so R = h is tested;
    # (B) let u be the least in-degree of a node with an out-degree above
    #     cap.  Pairs go by in-degree first, so that node comes after
    #     every in-degree above u, and R = #(in-degrees > u) + 1 is tested,
    #     with P_R = (their sum) + u.  Among pairs of in-degree u the order
    #     goes by out-degree, so the node may come first there.
    # When u > cap the node counts among (A)'s h, so (A)'s R is the larger;
    # otherwise (B)'s is.  Testing the larger R tests both, and as some
    # degree exceeds cap, that R is at least 1.
    a = seq.in_degrees
    u = cap + 1  # no out-degree above cap: (A) alone
    if st.max_out > cap:
        u = min([x for x, y in zip(a, seq.out_degrees) if y > cap])
    if u > cap:
        top = [x for x in a if x > cap]
        R, P = len(top), sum(top)
    else:
        top = [x for x in a if x > u]
        R, P = len(top) + 1, sum(top) + u
    return m * (n - R - 1) >= P


def check_cor5(seq: BidegreeSequence, prep: list | None = None) -> CheckOutcome:
    """Heavy-tail certificate (graphic with loops).

    Scans exception-set sizes ``R = 0, 1, 2, ...`` over the nodes of
    largest in-degree.  With ``P`` the in-degree mass of the set, the scan
    continues while ``m*(n - R - 1) >= P``, which keeps ``P < n*m``; a
    given ``R`` certifies when the out-degree mass of the set is also at
    most ``P``, the remaining maximum degree fits the adjusted mean/min
    bound, and ``k <= M`` or ``k*m <= m*(n - R) - P``.  ``R = 0``
    coincides with the thm5 test.

    The scan walks the rows of ``prep``, the counted pair profile
    :func:`prepare` returns, expanding a row only as far as it gets.  Its
    cost is the O(n) prefilter plus, when that passes, a profile of the
    distinct pairs; a sequence the prefilter rejects has an empty profile
    and no scan.
    """
    st = seq.stats
    n, S, m = st.n, st.total, st.min_degree
    if m < 1:
        return INCONCLUSIVE
    if prep is None:
        prep = prepare(seq)
    R = P = Q = 0  # set-aside size, its in- and out-degree mass
    for x, y, count, M_rest in prep:
        for _ in range(count):
            # this also stops the scan once P >= n*m: with m >= 1 and
            # R >= 0, m*(n - R - 1) <= m*(n - 1) < m*n <= P
            if m * (n - R - 1) < P:
                return INCONCLUSIVE
            if Q <= P:
                k, _ = _kstar(n, S + R * m, m, 0)
                m_max = min((S - n * m - P + R * m) // k + m, n)
                if M_rest <= m_max and (
                    k <= M_rest or k * m <= m * (n - R) - P
                ):
                    return _graphic(
                        Condition.HEAVY_TAIL,
                        R=R,
                        P=P,
                        k=k,
                        Mmax=m_max,
                        M=M_rest,
                        m=m,
                        n=n,
                        S=S,
                    )
            R += 1
            P += x
            Q += y
    return INCONCLUSIVE


def minimizer_b_star(n: int, S: int, M: int, m: int = 0) -> tuple:
    """Out-degree vector minimizing every conjugate sum for given stats.

    The unique shape with ``k`` leading entries ``M``, one remainder in
    ``[m..M]``, and trailing entries ``m``, summing to ``S``.  Among all
    vectors over ``n`` slots with entries in ``[m..M]`` and sum ``S``,
    this one has the pointwise-smallest conjugate cumulative profile.

    Raises
    ------
    Infeasible
        Unless ``0 <= m <= M <= n`` and ``n*m <= S <= n*M``.
    """
    if not (0 <= m <= M <= n) or not (n * m <= S <= n * M):
        raise Infeasible(
            f"no vector over n={n} slots with min={m} max={M} sum={S}"
        )
    if M == m:
        return (M,) * n
    k = (S - n * m) // (M - m)
    if k >= n:
        return (M,) * n
    r = S - k * M - (n - k - 1) * m
    return (M,) * k + (r,) + (m,) * (n - k - 1)


def bound_table(n: int, m: int, S: int) -> BoundTable:
    """Largest certifiable maximum degree per condition.

    Entries 2, 3, 4 are exact thresholds (the condition holds at ``h[J]``
    and fails at ``h[J] + 1``, barring the ``n`` cap); entries 5 and 6 are
    the explicit bound formulas and appear only when their minimum-degree
    hypotheses hold.

    Raises
    ------
    InvalidStats
        Unless ``n >= 1``, ``0 <= m <= n`` and ``n*m <= S <= n*n``.
    """
    if n < 1 or m < 0 or m > n or S < n * m or S > n * n:
        raise InvalidStats(f"inconsistent stats n={n} m={m} S={S}")
    h: dict = {}

    # floor((m+M)^2 / 4) <= m*n  iff  (m+M)^2 <= 4mn + 3, and m <= n keeps
    # isqrt(4mn + 3) >= m, so this is the exact threshold
    h[2] = min(isqrt(4 * m * n + 3) - m, n)
    h[3] = min(thm3_special_max(S), n)
    h[4] = min(thm4_special_max(S), n)
    if m >= 1:
        h[5] = _mean_min_bound(n, S, m, 0)[1]
        if m <= n - 1:
            h[6] = _mean_min_bound(n, S, m, 1)[1]
    return BoundTable(n=n, m=m, total=S, h=h)


class Condition(enum.Enum):
    """Certifying conditions, one entry each.

    ``value`` is the CLI method code, ``check`` the check function,
    ``certifies_no_loops`` whether the certificate guarantees a
    zero-diagonal realization, and ``echo`` the certificate parameters a
    GRAPHIC output line shows.  Defined after the checks it holds.
    """

    ZZ = "thm2", check_thm2, False, ("m", "M")
    MAX_PRODUCT_LOOPS = "thm3", check_thm3, False, ("Ma", "Mb")
    MAX_PRODUCT_NO_LOOPS = "thm4", check_thm4, True, ("Ma", "Mb")
    MEAN_MIN_LOOPS = "thm5", check_thm5, False, ("k", "Mmax")
    MEAN_MIN_NO_LOOPS = "thm6", check_thm6, True, ("k", "Mmax")
    MULTIPLICITY_LOOPS = "cor2", check_cor2, False, ("k", "M")
    MULTIPLICITY_NO_LOOPS = "cor3", check_cor3, True, ("k", "M")
    HEAVY_TAIL = "cor5", check_cor5, False, ("R", "P", "k", "Mmax")

    def __new__(cls, code, check, certifies_no_loops, echo):
        member = object.__new__(cls)
        member._value_ = code
        member.check = check
        member.certifies_no_loops = certifies_no_loops
        member.echo = echo
        return member


# The ladders hold only rungs that can fire first: each dropped condition
# implies a kept rung tried before it.  With M = max(Ma, Mb):
#   cor2 => thm3: cor2 needs M = 0 or M*M <= S, and Ma*Mb <= M*M.
#   cor3 => thm4: cor3 needs M = 0 or M*(M+1) <= S, and (Ma+1)*Mb <= (M+1)*M.
#   thm4 => thm3: Ma*Mb <= (Ma+1)*Mb <= S.
#   thm6 => thm5: thm6's discriminant is thm5's plus 2m+1, so k6 >= k5
#     (k5 = 1 when its discriminant is negative); then
#     floor((S-nm)/k6) <= floor((S-nm)/k5) and the cap n-1 <= n.
#   cor5 at R = 0 is thm5 (same k, same bound) plus a side condition, so
#     cor5 fires first only at some R >= 1.
# thm2 stays: at mean = 3*min its bound can exceed thm5's.
_LOOPS_LADDER = (check_thm3, check_thm5, check_cor5, check_thm2)
_NO_LOOPS_LADDER = (check_thm4, check_thm6)


def certify(
    seq: BidegreeSequence,
    allow_loops: bool = True,
    fallback_exact: bool = False,
) -> CheckOutcome:
    """Run the certificates that can fire first, cheapest first.

    Returns the first GRAPHIC outcome with its certificate.  When every
    certificate is inconclusive, falls back to the exact check if
    requested (the only way this function can return NOT_GRAPHIC);
    otherwise returns INCONCLUSIVE.
    """
    ladder = _LOOPS_LADDER if allow_loops else _NO_LOOPS_LADDER
    for check in ladder:
        outcome = check(seq)
        if outcome.verdict is Verdict.GRAPHIC:
            return outcome
    if fallback_exact:
        return check_with_loops(seq) if allow_loops else check_no_loops(seq)
    return INCONCLUSIVE
