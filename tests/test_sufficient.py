import pickle
from collections import Counter
from decimal import Decimal, getcontext
from itertools import accumulate
from math import isqrt
from operator import sub
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import bidegree as bd
from bidegree.core import SequenceStats
from bidegree.exact import INCONCLUSIVE, Verdict, _conjugate_sums
from bidegree.generate import SplitMix64
from bidegree.sufficient import Condition, _kstar, prepare
from conftest import (
    conjugate_sum_direct,
    equal_sum_vector_pairs,
    random_records,
    sequence_pairs,
)


def reference_kstar(n, S, m, offset=0):
    """``ceil(c + sqrt(c^2 + S - 2*m*n))`` for ``c = m + offset``, or 1 when
    the discriminant is negative: ``c`` plus the least ``r >= 0`` with
    ``r*r >= disc``.  Test-only reference."""
    c = m + offset
    disc = c * c + S - 2 * m * n
    if disc < 0:
        return 1
    r = isqrt(disc)
    return c + (r if r * r == disc else r + 1)


def verify_certificate(outcome):
    """Re-verify a certificate's inequality by direct substitution."""
    cert = outcome.certificate
    p = cert.parameters
    cond = cert.condition
    if cond is Condition.ZZ:
        return (p["m"] + p["M"]) ** 2 // 4 <= p["m"] * p["n"]
    if cond is Condition.MAX_PRODUCT_LOOPS:
        return p["Ma"] * p["Mb"] <= p["S"] + 1
    if cond is Condition.MAX_PRODUCT_NO_LOOPS:
        return (p["Ma"] + 1) * p["Mb"] <= p["S"]
    if cond in (Condition.MEAN_MIN_LOOPS, Condition.MEAN_MIN_NO_LOOPS):
        n, S, m = p["n"], p["S"], p["m"]
        offset = 0 if cond is Condition.MEAN_MIN_LOOPS else 1
        k = reference_kstar(n, S, m, offset)
        bound = min((S - n * m) // k + m, n - offset)
        return p["k"] == k and p["Mmax"] == bound and p["M"] <= bound
    if cond is Condition.MULTIPLICITY_LOOPS:
        return p["M"] <= p["k"] and p["M"] * p["k"] <= p["S"]
    if cond is Condition.MULTIPLICITY_NO_LOOPS:
        return p["M"] < p["k"] and p["M"] * p["k"] <= p["S"]
    if cond is Condition.HEAVY_TAIL:
        n, S, m, R, P, k = p["n"], p["S"], p["m"], p["R"], p["P"], p["k"]
        bound = min((S - n * m - P + R * m) // k + m, n)
        side = p["k"] <= p["M"] or k * m <= m * (n - R) - P
        return (
            P < n * m
            and m * (n - R - 1) >= P
            and p["Mmax"] == bound
            and p["M"] <= bound
            and side
        )
    raise AssertionError(f"unknown condition {cond}")


class TestKstar:
    """``_kstar`` with offset 0 (thm5, with loops) and 1 (thm6, without)."""

    def test_ten_node_value(self):
        assert _kstar(10, 40, 1, 0) == 6

    def test_negative_discriminant(self):
        assert _kstar(10, 40, 3, 0) == 1

    def test_perfect_square(self):
        assert _kstar(10, 40, 2, 0) == 4

    def test_no_loops_values(self):
        assert _kstar(10, 40, 1, 1) == 7
        assert _kstar(10, 40, 3, 1) == 1
        assert _kstar(100, 400, 2, 1) == 6

    @given(st.data())
    @settings(max_examples=500)
    def test_matches_high_precision_ceiling(self, data):
        """The integer k equals ceil(k*) computed in 60-digit arithmetic."""
        getcontext().prec = 60
        n = data.draw(st.integers(1, 10**9))
        m = data.draw(st.integers(1, n))
        S = data.draw(st.integers(n * m, n * n))
        offset = data.draw(st.integers(0, 1))
        k = _kstar(n, S, m, offset)
        c = m + offset
        disc = c * c + S - 2 * m * n
        if disc < 0:
            assert k == 1
        else:
            kstar = Decimal(c) + Decimal(disc).sqrt()
            expected = int(kstar.to_integral_value(rounding="ROUND_CEILING"))
            assert k == expected


class TestThm2:
    def test_ten_node_example_fails(self, ten_node_vector):
        out = bd.check_thm2(ten_node_vector)
        assert out.verdict is Verdict.INCONCLUSIVE
        assert (1 + 6) ** 2 // 4 == 12 > 10 == 1 * 10

    def test_regular_grid(self):
        out = bd.check_thm2(bd.new_sequence((2, 2, 2, 2), (2, 2, 2, 2)))
        assert out.is_graphic
        assert out.certificate.condition is Condition.ZZ
        assert verify_certificate(out)

    def test_unequal_vectors_gate(self):
        out = bd.check_thm2(bd.new_sequence((2, 1, 1), (1, 1, 2)))
        assert out.verdict is Verdict.INCONCLUSIVE


class TestThm3:
    def test_ten_node_vector(self, ten_node_vector):
        out = bd.check_thm3(ten_node_vector)
        assert out.is_graphic
        assert out.certificate.parameters == {"Ma": 6, "Mb": 6, "S": 40}

    def test_counterexample_one_past_bound(self):
        seq = bd.new_sequence((2, 2, 2, 0), (4, 2, 0, 0))
        out = bd.check_thm3(seq)
        assert out.verdict is Verdict.INCONCLUSIVE
        st_ = bd.stats(seq)
        assert st_.max_in * st_.max_out == st_.total + 2

    def test_all_zeros(self):
        assert bd.check_thm3(bd.new_sequence((0, 0), (0, 0))).is_graphic


class TestThm4:
    def test_special_case_max(self):
        assert bd.bound_table(10, 1, 40).h[4] == 5
        assert 5 * 6 <= 40 < 6 * 7

    def test_two_cycle(self):
        out = bd.check_thm4(bd.new_sequence((1, 1), (1, 1)))
        assert out.is_graphic and verify_certificate(out)

    def test_counterexample(self):
        out = bd.check_thm4(bd.new_sequence((2, 2, 2, 0), (4, 2, 0, 0)))
        assert out.verdict is Verdict.INCONCLUSIVE


class TestThm5:
    def test_ten_node_example(self, ten_node_vector):
        out = bd.check_thm5(ten_node_vector)
        assert out.is_graphic
        assert out.certificate.parameters["k"] == 6
        assert out.certificate.parameters["Mmax"] == 6

    def test_separates_from_thm3(self):
        seq = bd.new_sequence(
            (7, 7, 7, 7, 2, 2, 2, 2, 2, 2), (7, 7, 7, 7, 2, 2, 2, 2, 2, 2)
        )
        out = bd.check_thm5(seq)
        assert out.is_graphic
        assert out.certificate.parameters["k"] == 4
        assert out.certificate.parameters["Mmax"] == 7
        assert bd.check_thm3(seq).verdict is Verdict.INCONCLUSIVE
        assert bd.check_with_loops(seq).is_graphic

    def test_zero_minimum_gate(self):
        seq = bd.new_sequence((2, 2, 2, 0), (2, 2, 2, 0))
        assert bd.check_thm5(seq).verdict is Verdict.INCONCLUSIVE


class TestThm6:
    def test_regular_four_nodes(self):
        # discriminant (m+1)^2 + S - 2mn = 9 + 8 - 16 = 1, so k = 3 + 1 = 4
        seq = bd.new_sequence((2, 2, 2, 2), (2, 2, 2, 2))
        out = bd.check_thm6(seq)
        assert out.is_graphic
        assert out.certificate.parameters["k"] == 4
        assert out.certificate.parameters["Mmax"] == 2
        assert bd.check_no_loops(seq).is_graphic

    def test_ten_node_stats_inconclusive(self, ten_node_vector):
        out = bd.check_thm6(ten_node_vector)
        assert out.verdict is Verdict.INCONCLUSIVE
        k = reference_kstar(10, 40, 1, offset=1)
        assert k == 7 and min(30 // 7 + 1, 9) == 5 < 6

    def test_min_equals_n_gate(self):
        seq = bd.new_sequence((1,), (1,))
        assert bd.check_thm6(seq).verdict is Verdict.INCONCLUSIVE


class TestCor2Cor3:
    def test_multiplicity_certifies(self):
        seq = bd.new_sequence((3, 3, 3, 1), (3, 3, 3, 1))
        out = bd.check_cor2(seq)
        assert out.is_graphic
        assert out.certificate.parameters["k"] == 3  # floor(10/3)
        assert verify_certificate(out)
        assert bd.check_with_loops(seq).is_graphic

    def test_strict_version_needs_room(self):
        seq = bd.new_sequence((3, 3, 3, 1), (3, 3, 3, 1))
        assert bd.check_cor3(seq).verdict is Verdict.INCONCLUSIVE

    def test_max_at_n_gate(self):
        seq = bd.new_sequence((2, 2), (2, 2))
        assert bd.check_cor2(seq).verdict is Verdict.INCONCLUSIVE
        assert bd.check_cor3(seq).verdict is Verdict.INCONCLUSIVE

    def test_zero_max(self):
        seq = bd.new_sequence((0, 0), (0, 0))
        assert bd.check_cor2(seq).is_graphic
        assert bd.check_cor3(seq).is_graphic


class TestCor5:
    def test_worked_example(self):
        a = [10] + [2] * 19
        b = [6] + [4] * 7 + [2] * 2 + [1] * 10
        seq = bd.new_sequence(a, b)
        out = bd.check_cor5(seq)
        assert out.is_graphic
        params = out.certificate.parameters
        assert params["R"] == 1
        assert params["P"] == 10
        assert params["k"] == 5
        assert params["Mmax"] == 4
        assert params["M"] == 4
        assert bd.check_thm5(seq).verdict is Verdict.INCONCLUSIVE
        assert bd.check_with_loops(seq).is_graphic

    def test_r_zero_reduces_to_thm5(self):
        rng = SplitMix64(17)
        for _ in range(200):
            n = rng.randint(2, 40)
            m = rng.randint(1, 3)
            if n * m > n * n:
                continue
            S = rng.randint(n * m, n * min(n, m + 6))
            seq = bd.gen_uniform(n, S, m, min(n, m + 6), seed=rng.next_u64())
            if bd.check_thm5(seq).is_graphic:
                out = bd.check_cor5(seq)
                assert out.is_graphic
                assert out.certificate.parameters["R"] == 0

    def test_heavy_prefix_gate(self):
        # a_1 = n with m = 1 pushes P to n*m at R = 1, stopping the scan,
        # and the R = 0 bound is too small for M = n
        seq = bd.new_sequence((6, 3, 3, 3, 3, 1), (4, 4, 4, 3, 3, 1))
        assert bd.stats(seq).min_degree == 1
        out = bd.check_cor5(seq)
        assert out.verdict is Verdict.INCONCLUSIVE

    def test_zero_minimum_gate(self):
        seq = bd.new_sequence((1, 1, 0), (1, 1, 0))
        assert bd.check_cor5(seq).verdict is Verdict.INCONCLUSIVE

    @given(sequence_pairs(max_n=30, max_degree=5, min_degree=1))
    @settings(max_examples=200)
    def test_pair_profile_expands_to_the_canonical_order(self, seq):
        """Small degrees repeat pairs and mostly pass the prefilter, so
        most examples build a profile."""
        if seq is None:
            return
        rows = prepare(seq)
        if not rows:
            return
        expanded = []
        starts = []
        for x, y, count, _ in rows:
            assert count >= 1
            starts.append(len(expanded))
            expanded += [(x, y)] * count
        assert expanded == sorted(zip(seq.in_degrees, seq.out_degrees), reverse=True)
        for start, (_, _, _, group_max) in zip(starts, rows):
            assert group_max == max(max(p) for p in expanded[start:])


class TestMinimizer:
    def test_examples(self):
        assert bd.minimizer_b_star(5, 10, 4, 0) == (4, 4, 2, 0, 0)
        assert bd.minimizer_b_star(4, 4, 1, 1) == (1, 1, 1, 1)
        assert bd.minimizer_b_star(4, 6, 4, 0) == (4, 2, 0, 0)

    def test_infeasible(self):
        with pytest.raises(bd.Infeasible):
            bd.minimizer_b_star(4, 17, 4, 0)
        with pytest.raises(bd.Infeasible):
            bd.minimizer_b_star(4, 3, 2, 1)

    @given(st.data())
    @settings(max_examples=300)
    def test_shape_and_concavity(self, data):
        n = data.draw(st.integers(1, 12))
        m = data.draw(st.integers(0, n))
        M = data.draw(st.integers(m, n))
        S = data.draw(st.integers(n * m, n * M))
        vec = bd.minimizer_b_star(n, S, M, m)
        assert len(vec) == n and sum(vec) == S
        assert all(m <= x <= M for x in vec)
        assert all(x >= y for x, y in zip(vec, vec[1:]))  # non-increasing
        cumulative = _conjugate_sums(Counter(vec), len(vec), n)
        counts = list(map(sub, cumulative[1:], cumulative))
        assert all(x >= y for x, y in zip(counts, counts[1:]))

    @given(st.data())
    @settings(max_examples=150)
    def test_dominates_random_vectors(self, data):
        n = data.draw(st.integers(1, 8))
        M = data.draw(st.integers(0, n))
        b = data.draw(st.lists(st.integers(0, M), min_size=n, max_size=n))
        star = bd.minimizer_b_star(n, sum(b), M, 0)
        for j in range(n + 1):
            assert conjugate_sum_direct(star, j) <= conjugate_sum_direct(b, j)


class TestConcavityBridge:
    """Linear-ish minorants anchored at both ends stay below concave curves."""

    @given(st.data())
    @settings(max_examples=300)
    def test_interior_domination(self, data):
        n = data.draw(st.integers(2, 10))
        b = data.draw(st.lists(st.integers(0, n), min_size=n, max_size=n))
        concave = [conjugate_sum_direct(b, j) for j in range(n + 1)]
        gamma = data.draw(st.integers(0, n))
        steps = data.draw(
            st.lists(
                st.sampled_from([0, 1]), min_size=n, max_size=n
            )
        )
        phi = [0]
        for s in steps:
            phi.append(phi[-1] + gamma - s)  # increments gamma or gamma-1
        assume(phi[1] <= concave[1] and phi[n] <= concave[n])
        for j in range(1, n + 1):
            assert phi[j] <= concave[j]


class TestBoundTable:
    def test_ten_node_row(self):
        table = bd.bound_table(10, 1, 40)
        assert table.h == {2: 5, 3: 6, 4: 5, 5: 6, 6: 5}

    def test_m2_row(self):
        h = bd.bound_table(10, 2, 40).h
        assert h[5] == 7 and h[3] == 6

    def test_k1_branch_reaches_n(self):
        h = bd.bound_table(10, 3, 40).h
        assert h[5] == 10

    def test_zero_min_omits_mean_min_rows(self):
        h = bd.bound_table(10, 0, 40).h
        assert 5 not in h and 6 not in h
        assert {2, 3, 4} <= set(h)

    def test_invalid(self):
        with pytest.raises(bd.InvalidStats):
            bd.bound_table(10, 4, 20)  # S < n*m
        with pytest.raises(bd.InvalidStats):
            bd.bound_table(0, 0, 0)

    def test_sequences_below_thresholds_are_certified(self):
        """A sequence with max degree <= h[J] (and J's side hypotheses met)
        is certified by condition J."""
        rng = SplitMix64(313)
        tried = 0
        while tried < 300:
            n = rng.randint(2, 60)
            m = rng.randint(1, min(4, n - 1))
            cbar = rng.randint(m, min(n, m + 8))
            S = n * cbar
            h = bd.bound_table(n, m, S).h
            for J, check in ((2, bd.check_thm2), (3, bd.check_thm3),
                             (4, bd.check_thm4), (5, bd.check_thm5),
                             (6, bd.check_thm6)):
                M = min(h[J], n)
                if M < cbar or M <= m:
                    continue  # no vector with this mean fits under the cap
                # deterministic vector: min pinned at m, max at most M
                vec = [m] * n
                spread = S - n * m
                if spread > (n - 1) * (M - m):
                    continue  # cannot keep one slot at the minimum
                i = 1
                while spread:
                    add = min(M - vec[i], spread)
                    vec[i] += add
                    spread -= add
                    i += 1
                seq = bd.new_sequence(vec, vec)
                st_ = bd.stats(seq)
                assert st_.min_degree == m and st_.max_degree <= M
                out = check(seq)
                assert out.is_graphic, (J, n, m, S, M, vec[:8])
                tried += 1

    def test_ceiling_matches_high_precision_bulk(self):
        """10^4 seeded (n, m, S) triples against 60-digit arithmetic."""
        getcontext().prec = 60
        rng = SplitMix64(777)
        for _ in range(10_000):
            n = rng.randint(1, 10**9)
            m = rng.randint(1, min(n, 10**6))
            S = rng.randint(n * m, n * min(n, 10**7))
            k = _kstar(n, S, m, 0)
            disc = m * m + S - 2 * m * n
            if disc < 0:
                assert k == 1
            else:
                kstar = Decimal(m) + Decimal(disc).sqrt()
                assert k == int(kstar.to_integral_value(rounding="ROUND_CEILING"))

    @given(st.data())
    @settings(max_examples=300)
    def test_exact_thresholds(self, data):
        n = data.draw(st.integers(1, 10**6))
        m = data.draw(st.integers(0, min(n, 50)))
        S = data.draw(st.integers(n * m, n * n))
        h = bd.bound_table(n, m, S).h
        assert all(0 <= v <= n for v in h.values())
        assert (m + h[2]) ** 2 // 4 <= m * n
        if h[2] < n:
            assert (m + h[2] + 1) ** 2 // 4 > m * n
        assert h[3] ** 2 <= S + 1
        if h[3] < n:
            assert (h[3] + 1) ** 2 > S + 1
        assert h[4] * (h[4] + 1) <= S
        if h[4] < n:
            assert (h[4] + 1) * (h[4] + 2) > S
        # at n = S the cap n is above thm4's largest M, so h[4] is that M
        M4 = bd.bound_table(max(S, 1), 0, S).h[4]
        assert M4 * (M4 + 1) <= S < (M4 + 1) * (M4 + 2)


class TestCertify:
    def test_ladder_order_on_ten_node_vector(self, ten_node_vector):
        out = bd.certify(ten_node_vector, allow_loops=True)
        assert out.certificate.condition is Condition.MAX_PRODUCT_LOOPS

    def test_counterexample_with_fallback(self):
        seq = bd.new_sequence((2, 2, 2, 0), (4, 2, 0, 0))
        out = bd.certify(seq, allow_loops=True, fallback_exact=True)
        assert out.verdict is Verdict.NOT_GRAPHIC
        assert out.witness == 3

    def test_counterexample_without_fallback(self):
        seq = bd.new_sequence((2, 2, 2, 0), (4, 2, 0, 0))
        out = bd.certify(seq, allow_loops=True, fallback_exact=False)
        assert out.verdict is Verdict.INCONCLUSIVE

    def test_no_loops_ladder_skips_loop_certificates(self):
        seq = bd.new_sequence((1,), (1,))
        out = bd.certify(seq, allow_loops=False, fallback_exact=False)
        assert out.verdict is Verdict.INCONCLUSIVE
        out = bd.certify(seq, allow_loops=False, fallback_exact=True)
        assert out.verdict is Verdict.NOT_GRAPHIC

    def test_graphic_outcomes_are_realizable(self):
        """Every certificate the ladder gives on 10k seeded records is
        confirmed by the max-flow oracle, which shares no code with it."""
        fired = Counter()
        for a, b in random_records(20260602, 10_000, 1, 12):
            seq = bd.new_sequence(a, b)
            for loops in (True, False):
                out = bd.certify(seq, allow_loops=loops)
                if out.is_graphic:
                    fired[out.certificate.condition] += 1
                    assert bd.brute_force_exists(seq, loops), (a, b, loops)
        assert fired.keys() >= {
            Condition.MAX_PRODUCT_LOOPS,
            Condition.MAX_PRODUCT_NO_LOOPS,
            Condition.MEAN_MIN_LOOPS,
        }

    def test_never_not_graphic_without_fallback(self):
        rng = SplitMix64(4)
        for _ in range(300):
            n = rng.randint(1, 20)
            M = rng.randint(0, n)
            S = rng.randint(0, n * M) if M else 0
            seq = bd.gen_uniform(n, S, 0, M, seed=rng.next_u64())
            for loops in (True, False):
                out = bd.certify(seq, allow_loops=loops, fallback_exact=False)
                assert out.verdict is not Verdict.NOT_GRAPHIC


class TestBuiltOutcomes:
    """A firing check builds its ``CheckOutcome`` and ``Certificate`` past
    their constructors; what it returns is the same as constructed ones."""

    @staticmethod
    def outcomes():
        """``(condition, outcome)`` for every check that fires on a seeded
        corpus, each record also with its in-degrees on both sides (for
        thm2), called alone and as ``certify``'s rung under both policies,
        with and without the exact fallback."""
        for a, b in random_records(20261021, 1500, 1, 12):
            for in_degrees, out_degrees in ((a, b), (a, a)):
                seq = bd.new_sequence(in_degrees, out_degrees)
                for cond in Condition:
                    yield cond, cond.check(seq)
                for loops in (True, False):
                    for fallback in (True, False):
                        out = bd.certify(seq, loops, fallback)
                        if out.certificate is not None:
                            yield out.certificate.condition, out

    def test_fired_outcomes_equal_constructed_ones(self):
        fired = Counter()
        for cond, out in self.outcomes():
            if out.verdict is not Verdict.GRAPHIC:
                assert out is INCONCLUSIVE
                continue
            fired[cond] += 1
            cert = out.certificate
            assert type(out) is bd.CheckOutcome
            assert type(cert) is bd.Certificate and cert.condition is cond
            assert type(cert.parameters) is dict
            constructed = bd.CheckOutcome(
                Verdict.GRAPHIC,
                certificate=bd.Certificate(cond, dict(cert.parameters)))
            assert out == constructed and out.witness is None
            assert repr(out) == repr(constructed)
            assert out._asdict() == constructed._asdict()
            assert out._replace(witness=3) == constructed._replace(witness=3)
            assert type(out._replace(witness=3)) is bd.CheckOutcome
            assert out.is_graphic
            copied = pickle.loads(pickle.dumps(out))
            assert type(copied) is bd.CheckOutcome and copied == constructed
            assert type(copied.certificate) is bd.Certificate
        assert set(fired) == set(Condition)


def reference_cor5(seq):
    """check_cor5 as it was on the full sorted pair order: a sort of all
    n pairs and a suffix maximum per position.  Test-only reference."""
    n, S, m = seq.stats.n, seq.stats.total, seq.stats.min_degree
    if m < 1:
        return INCONCLUSIVE
    pairs = sorted(zip(seq.in_degrees, seq.out_degrees), reverse=True)
    suffix_max = list(accumulate(map(max, reversed(pairs)), max))
    suffix_max.reverse()
    P = Q = 0
    for R, (x, y) in enumerate(pairs):
        if m * (n - R - 1) < P:
            break
        if Q <= P:
            M_rest = suffix_max[R]
            k = reference_kstar(n, S + R * m, m)
            m_max = min((S - n * m - P + R * m) // k + m, n)
            if M_rest <= m_max and (k <= M_rest or k * m <= m * (n - R) - P):
                params = dict(R=R, P=P, k=k, Mmax=m_max, M=M_rest, m=m, n=n, S=S)
                return bd.CheckOutcome(
                    Verdict.GRAPHIC,
                    certificate=bd.Certificate(Condition.HEAVY_TAIL, params),
                )
        P += x
        Q += y
    return INCONCLUSIVE


# The certify ladders as they were before pruning to the rungs that can
# fire first: every condition, cheapest first.  Test-only reference.
REFERENCE_LOOPS_LADDER = (
    bd.check_thm3,
    bd.check_thm4,
    bd.check_cor2,
    bd.check_cor3,
    bd.check_thm5,
    bd.check_thm6,
    bd.check_cor5,
    bd.check_thm2,
)
REFERENCE_NO_LOOPS_LADDER = (bd.check_thm4, bd.check_cor3, bd.check_thm6)


def reference_certificate(seq, allow_loops, fallback_exact=False):
    """Certificate of the first rung of the full ladder that fires, or None;
    with the exact fallback, of the full ladder without cor5."""
    prep = prepare(seq)
    ladder = REFERENCE_LOOPS_LADDER if allow_loops else REFERENCE_NO_LOOPS_LADDER
    for check in ladder:
        if fallback_exact and check is bd.check_cor5:
            continue
        outcome = check(seq, prep)
        if outcome.is_graphic:
            return outcome.certificate
    return None


class TestPrunedLadder:
    """``certify`` picks the same condition with the same parameters as the
    full ladders, so the dropped rungs never fired first.  With the exact
    fallback it picks those of the full ladders without cor5, and where no
    rung fires it returns the policy's exact outcome, witness included."""

    @staticmethod
    def first_fired(seqs):
        fired = {True: Counter(), False: Counter()}
        for seq in seqs:
            for loops in (True, False):
                cert = bd.certify(seq, allow_loops=loops).certificate
                assert cert == reference_certificate(seq, loops), (seq, loops)
                fired[loops][cert.condition.value if cert else None] += 1
                cert = reference_certificate(seq, loops, fallback_exact=True)
                want = (
                    bd.CheckOutcome(Verdict.GRAPHIC, certificate=cert) if cert
                    else (bd.check_with_loops if loops else bd.check_no_loops)(seq)
                )
                assert bd.certify(seq, loops, True) == want, (seq, loops)
        return fired

    def test_exhaustive_small(self):
        seqs = [
            bd.new_sequence(a, b)
            for n in range(1, 5)
            for a, b in equal_sum_vector_pairs(n, n)
        ]
        fired = self.first_fired(seqs)
        assert {"thm3", "thm5"} <= set(fired[True])
        assert "thm4" in fired[False]

    def test_fuzz(self):
        rng = SplitMix64(4242)
        seqs = []
        while len(seqs) < 20_000:
            n = rng.randint(1, 30)
            m = rng.randint(0, min(3, n))
            M = rng.randint(m, n)
            S = rng.randint(n * m, n * M)
            seqs.append(bd.gen_uniform(n, S, m, M, seed=rng.next_u64()))
        fired = self.first_fired(seqs)
        assert set(fired[True]) - {None} <= {"thm3", "thm5", "cor5", "thm2"}
        assert set(fired[False]) - {None} == {"thm4", "thm6"}

    def test_power_law_reaches_cor5(self):
        """Heavy tails reach cor5; made symmetric (a = b), some records
        satisfy both cor5 and thm2, so the order of those rungs counts."""
        seqs = [bd.gen_powerlaw(200, 2.5, seed=seed) for seed in range(100)]
        small = [bd.gen_powerlaw(30, 2.5, seed=seed) for seed in range(100)]
        seqs += [bd.new_sequence(s.in_degrees, s.in_degrees) for s in small]
        fired = self.first_fired(seqs)
        assert fired[True]["cor5"] > 0
        assert any(
            bd.certify(seq).certificate.condition is Condition.HEAVY_TAIL
            and bd.check_thm2(seq).is_graphic
            for seq in seqs
            if bd.certify(seq).is_graphic
        )

    def test_implications_on_stats_grid(self):
        """cor2 => thm3, cor3 => thm4, thm4 => thm3 and thm6 => thm5 at every
        feasible (n, m, M, S) with n <= 30 and m <= M <= n: S is any sum of
        one entry m, one entry M and n - 2 entries between.  thm3 and thm4
        get Ma = Mb = M, their hardest case, since cor2 and cor3 read only
        M.  Neither side of the first three reads m, so they run once over
        the union of those S ranges, which is [M, n*M]."""

        def fires(check, n, S, m, M):
            seq = SimpleNamespace(stats=SequenceStats(n, S, m, M, M, M))
            return check(seq).is_graphic

        implications = (
            (bd.check_cor2, bd.check_thm3),
            (bd.check_cor3, bd.check_thm4),
            (bd.check_thm4, bd.check_thm3),
        )
        checked = 0
        for n in range(1, 31):
            for M in range(n + 1):
                for S in range(M, n * M + 1):
                    for weak, strong in implications:
                        if fires(weak, n, S, 0, M):
                            assert fires(strong, n, S, 0, M), (weak, n, S, M)
                    checked += 1
                for m in range(1, min(M, n - 1) + 1):  # thm6 needs 1 <= m < n
                    if M == m:
                        totals = [n * m]
                    else:
                        totals = range((n - 1) * m + M, m + (n - 1) * M + 1)
                    for S in totals:
                        if fires(bd.check_thm6, n, S, m, M):
                            assert fires(bd.check_thm5, n, S, m, M), (n, S, m, M)
                        checked += 1
        assert checked > 700_000


class TestCor5Reference:
    """The counted profile and its prefilter give check_cor5 the outcome,
    certificate parameters included, of the sort-based reference."""

    @staticmethod
    def assert_matches_reference(seqs):
        for seq in seqs:
            assert bd.check_cor5(seq) == reference_cor5(seq), seq

    @pytest.fixture(scope="class")
    def powerlaw_n2000(self):
        """The first 100 records of perfbench's powerlaw-n2000 corpus at
        seed 77."""
        return [bd.gen_powerlaw(2000, 2.5, seed=77_000_000 + i) for i in range(100)]

    def test_exhaustive_small(self):
        self.assert_matches_reference(
            bd.new_sequence(a, b)
            for n in range(1, 5)
            for a, b in equal_sum_vector_pairs(n, n)
        )

    def test_pruned_ladder_fuzz_records(self):
        """The 20k records of TestPrunedLadder.test_fuzz."""
        rng = SplitMix64(4242)
        for _ in range(20_000):
            n = rng.randint(1, 30)
            m = rng.randint(0, min(3, n))
            M = rng.randint(m, n)
            S = rng.randint(n * m, n * M)
            seq = bd.gen_uniform(n, S, m, M, seed=rng.next_u64())
            assert bd.check_cor5(seq) == reference_cor5(seq), seq

    def test_powerlaw_n2000(self, powerlaw_n2000):
        self.assert_matches_reference(powerlaw_n2000)

    def test_prefilter_counts_on_powerlaw_n2000(self, powerlaw_n2000):
        """Of the records that reach cor5 in the ladder (thm3 and thm5 both
        fail), the prefilter leaves 24 of 30 without a profile."""
        reach = [
            seq
            for seq in powerlaw_n2000
            if not bd.check_thm3(seq).is_graphic
            and not bd.check_thm5(seq).is_graphic
        ]
        empty = [seq for seq in reach if not prepare(seq)]
        assert (len(reach), len(empty)) == (30, 24)

    @pytest.mark.parametrize(
        "a, b, R",
        [
            # u = 3 (the out-degree 5), one in-degree above it: the prefix
            # of R = 2 with P = 4 + 3 = 7 is tested at m*(n - R - 1) = 7
            ((3, 1, 1, 1, 3, 1, 3, 1, 4, 3), (5, 1, 2, 3, 1, 3, 1, 2, 1, 2), 2),
            # (3, 11) leads the pairs of in-degree u = 3, so the others
            # need not be set aside: R = 3 + 1 with P = 7 + 7 + 5 + 3
            (
                (3, 1, 3, 3, 2, 1, 2, 2, 3, 2, 5, 3, 1, 1, 3, 2,
                 2, 7, 2, 7, 3, 1, 1, 3, 3, 1, 3, 3, 2, 1, 3),
                (11, 6, 3, 2, 3, 3, 1, 1, 5, 3, 3, 2, 3, 3, 2, 1,
                 3, 1, 1, 2, 3, 1, 2, 1, 1, 1, 1, 2, 2, 3, 3),
                4,
            ),
        ],
    )
    def test_prefilter_passes_at_its_bound(self, a, b, R):
        """cor5 fires on records where the prefilter's bound is tight."""
        seq = bd.new_sequence(a, b)
        out = bd.check_cor5(seq)
        assert out == reference_cor5(seq)
        assert out.certificate.parameters["R"] == R
        assert not bd.check_thm5(seq).is_graphic

    @given(sequence_pairs(max_n=30, min_degree=1))
    @settings(max_examples=500)
    def test_empty_profile_never_certifies(self, seq):
        if seq is None:
            return
        if not prepare(seq):
            assert not reference_cor5(seq).is_graphic


class TestSoundness:
    """No certificate may fire on a non-graphic sequence (fuzz subset;
    the full-volume version is in the acceptance suite)."""

    LOOPS_CHECKS = [
        bd.check_thm2,
        bd.check_thm3,
        bd.check_thm5,
        bd.check_cor2,
        bd.check_cor5,
    ]
    NO_LOOPS_CHECKS = [bd.check_thm4, bd.check_thm6, bd.check_cor3]

    def test_fuzz(self):
        rng = SplitMix64(2024)
        for _ in range(3000):
            n = rng.randint(1, 30)
            m = rng.randint(0, min(2, n))
            M = rng.randint(m, n)
            S = rng.randint(n * m, n * M)
            seq = bd.gen_uniform(n, S, m, M, seed=rng.next_u64())
            prep = prepare(seq)
            graphic_loops = bd.check_with_loops(seq).is_graphic
            graphic_nl = bd.check_no_loops(seq).is_graphic
            for chk in self.LOOPS_CHECKS:
                out = chk(seq, prep)
                if out.is_graphic:
                    assert graphic_loops, (seq, chk.__name__)
                    assert verify_certificate(out)
            for chk in self.NO_LOOPS_CHECKS:
                out = chk(seq, prep)
                if out.is_graphic:
                    assert graphic_nl, (seq, chk.__name__)
                    assert verify_certificate(out)

    @given(sequence_pairs(max_n=10))
    @settings(max_examples=300)
    def test_hypothesis_mixed(self, seq):
        if seq is None:
            return
        graphic_loops = bd.check_with_loops(seq).is_graphic
        graphic_nl = bd.check_no_loops(seq).is_graphic
        for chk in self.LOOPS_CHECKS:
            if chk(seq).is_graphic:
                assert graphic_loops
        for chk in self.NO_LOOPS_CHECKS:
            if chk(seq).is_graphic:
                assert graphic_nl
