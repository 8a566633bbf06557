"""Shared independent oracles and strategies for the test suite.

The oracles here are deliberately naive re-implementations (direct
summation, definition-level inequality evaluation) so tests never compare
the library against itself.
"""

from itertools import combinations_with_replacement, product

import pytest
from hypothesis import settings
from hypothesis import strategies as st

import bidegree as bd
from bidegree.generate import SplitMix64

settings.register_profile("repeatable", deadline=None, derandomize=True)
settings.load_profile("repeatable")


def conjugate_sum_direct(b, j):
    """Direct evaluation of sum_i min(b_i, j)."""
    return sum(min(x, j) for x in b)


def prefix_direct(a, j):
    """Sum of the j largest entries of a."""
    return sum(sorted(a, reverse=True)[:j])


def loops_inequality_holds_direct(a, b, j):
    """The j-th with-loops inequality, straight from its definition."""
    return conjugate_sum_direct(b, j) >= prefix_direct(a, j)


def anstee_lhs_direct(pairs, j):
    """Loop-free capacity side at index j for jointly sorted pairs."""
    return sum(min(bi, j - 1) for _, bi in pairs[:j]) + sum(
        min(bi, j) for _, bi in pairs[j:]
    )


def no_loops_inequality_holds_direct(pairs, j):
    demand = sum(ai for ai, _ in pairs[:j])
    return anstee_lhs_direct(pairs, j) >= demand


def equal_sum_vector_pairs(n, emax):
    """All (a, b) vector pairs over [0..emax]^n with equal sums."""
    by_sum = {}
    for v in product(range(emax + 1), repeat=n):
        by_sum.setdefault(sum(v), []).append(v)
    for group in by_sum.values():
        for a in group:
            for b in group:
                yield a, b


def equal_sum_pair_multisets(n, emax):
    """All records of ``n`` pairs over [0..emax] with equal sums, one per
    multiset of pairs: permuting the pairs jointly permutes the rows and
    columns of a realization, so it never changes a verdict."""
    cells = list(product(range(emax + 1), repeat=2))
    for pairs in combinations_with_replacement(cells, n):
        a, b = zip(*pairs)
        if sum(a) == sum(b):
            yield a, b


def random_records(seed, count, n_lo, n_hi):
    """``count`` seeded (a, b) records with ``n`` in [n_lo..n_hi].

    Each vector draws its entries below its own random maximum; the one
    with the smaller sum then gains units at random entries below ``n``.
    """
    rng = SplitMix64(seed)
    for _ in range(count):
        n = rng.randint(n_lo, n_hi)
        a, b = ([rng.randint(0, top) for _ in range(n)]
                for top in (rng.randint(0, n), rng.randint(0, n)))
        low, high = sorted((a, b), key=sum)
        while sum(low) < sum(high):
            i = rng.randbelow(n)
            if low[i] < n:
                low[i] += 1
        yield a, b


def compositions(total, slots, cap):
    """All vectors of length ``slots`` with entries in [0..cap] summing to total."""
    if slots == 1:
        if 0 <= total <= cap:
            yield (total,)
        return
    for first in range(min(cap, total), -1, -1):
        for rest in compositions(total - first, slots - 1, cap):
            yield (first,) + rest


@st.composite
def sequence_pairs(draw, max_n=12, max_degree=None, min_degree=0):
    """Hypothesis strategy for valid bidegree sequences.

    Entries are drawn from ``[min_degree..cap]``; the repair only raises
    entries, so the minimum holds whenever ``n >= min_degree``.
    """
    n = draw(st.integers(min_value=max(1, min_degree), max_value=max_n))
    cap = min(n, max_degree) if max_degree is not None else n
    a = draw(st.lists(st.integers(min_degree, cap), min_size=n, max_size=n))
    b = draw(st.lists(st.integers(min_degree, cap), min_size=n, max_size=n))
    diff = sum(a) - sum(b)
    lo = b if diff > 0 else a
    # repair the smaller-sum vector to equalize sums, respecting the cap
    need = abs(diff)
    i = 0
    while need and i < n:
        room = cap - lo[i]
        add = min(room, need)
        lo[i] += add
        need -= add
        i += 1
    if need:
        return None
    return bd.new_sequence(a, b)


@pytest.fixture
def ten_node_vector():
    """Mixed-degree sequence (n=10, S=40, min 1, max 6) shared across modules."""
    degs = (6, 6, 6, 6, 6, 4, 2, 2, 1, 1)
    return bd.new_sequence(degs, degs)
