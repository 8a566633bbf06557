from collections import Counter
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bidegree as bd
from bidegree import exact
from bidegree.cli import format_record, parse_record
from bidegree.exact import Verdict, _group_ends, _slack
from bidegree.generate import SplitMix64
from conftest import (
    anstee_lhs_direct,
    conjugate_sum_direct,
    equal_sum_vector_pairs,
    loops_inequality_holds_direct,
    no_loops_inequality_holds_direct,
    random_records,
    sequence_pairs,
)


class TestCheckWithLoops:
    def test_single_loop(self):
        assert bd.check_with_loops(bd.new_sequence((1,), (1,))).is_graphic

    def test_counterexample_witness(self):
        out = bd.check_with_loops(bd.new_sequence((2, 2, 2, 0), (4, 2, 0, 0)))
        assert out.verdict is Verdict.NOT_GRAPHIC
        assert out.witness == 3

    def test_ten_node_vector_graphic(self, ten_node_vector):
        assert bd.check_with_loops(ten_node_vector).is_graphic


class TestCheckNoLoops:
    def test_two_cycle(self):
        assert bd.check_no_loops(bd.new_sequence((1, 1), (1, 1))).is_graphic

    def test_single_node_needs_loop(self):
        out = bd.check_no_loops(bd.new_sequence((1,), (1,)))
        assert out.verdict is Verdict.NOT_GRAPHIC

    def test_complete_loopless_k3(self):
        seq = bd.new_sequence((2, 2, 2), (2, 2, 2))
        assert bd.check_no_loops(seq).is_graphic

    def test_degree_equal_n_rejected(self):
        # an out-degree of n cannot avoid the diagonal
        out = bd.check_no_loops(bd.new_sequence((1, 1, 1), (3, 0, 0)))
        assert out.verdict is Verdict.NOT_GRAPHIC
        # an in-degree of n fails at the first inequality
        out = bd.check_no_loops(bd.new_sequence((3, 0, 0), (1, 1, 1)))
        assert out.verdict is Verdict.NOT_GRAPHIC
        assert out.witness == 1


class TestViolatedIndices:
    def test_counterexample(self):
        seq = bd.new_sequence((2, 2, 2, 0), (4, 2, 0, 0))
        assert bd.violated_indices(seq, allow_loops=True) == [3]

    def test_graphic_is_empty(self, ten_node_vector):
        assert bd.violated_indices(ten_node_vector, allow_loops=True) == []

    def test_complete_loopless_k4(self):
        seq = bd.new_sequence((3, 3, 3, 3), (3, 3, 3, 3))
        assert bd.violated_indices(seq, allow_loops=False) == []

    def test_all_zero(self):
        seq = bd.new_sequence((0, 0, 0), (0, 0, 0))
        assert bd.violated_indices(seq, allow_loops=True) == []
        assert bd.violated_indices(seq, allow_loops=False) == []

    def test_out_degree_equal_n(self):
        seq = bd.new_sequence((1, 1, 1), (3, 0, 0))
        assert bd.violated_indices(seq, allow_loops=True) == []
        assert bd.violated_indices(seq, allow_loops=False) == [1, 2, 3]
        assert direct_violations(seq, allow_loops=False) == [1, 2, 3]

    def test_in_and_out_degree_equal_n(self):
        seq = bd.new_sequence((2, 0), (2, 0))
        assert bd.violated_indices(seq, allow_loops=True) == [1]
        assert bd.violated_indices(seq, allow_loops=False) == [1, 2]
        assert direct_violations(seq, allow_loops=True) == [1]
        assert direct_violations(seq, allow_loops=False) == [1, 2]

    @given(sequence_pairs(max_n=12))
    @settings(max_examples=300)
    def test_every_index_matches_the_definition(self, seq):
        if seq is None:
            return
        for loops in (True, False):
            assert bd.violated_indices(seq, loops) == direct_violations(
                seq, loops
            ), loops


def direct_violations(seq, allow_loops):
    """Indices whose inequality fails, each evaluated from its definition:
    ``j`` in ``[1..n-1]`` with loops, ``j`` in ``[1..n]`` without."""
    a, b, n = seq.in_degrees, seq.out_degrees, seq.n
    if allow_loops:
        return [
            j for j in range(1, n) if not loops_inequality_holds_direct(a, b, j)
        ]
    pairs = sorted(zip(seq.in_degrees, seq.out_degrees), reverse=True)
    return [
        j for j in range(1, n + 1) if not no_loops_inequality_holds_direct(pairs, j)
    ]


def counted(seq):
    """The ascending (value, count) pairs of the in-degrees and of the
    out-degrees, as the checks read them."""
    return (sorted(Counter(seq.in_degrees).items()),
            sorted(Counter(seq.out_degrees).items()))


def group_ends(seq, loops):
    """Whether the kernel certifies ``seq`` from its pairs, up to the
    policy's limit."""
    limit = seq.stats.max_out
    if loops:
        limit = min(limit, seq.n - 1)
    return _group_ends(seq.n, limit, *counted(seq), loops)


def reference_loops_slack(seq):
    """The with-loops slack from its definition: each conjugate sum minus
    the sum of the ``j`` largest in-degrees, up to ``min(max_out, n - 1)``."""
    b, limit = seq.out_degrees, min(seq.stats.max_out, seq.n - 1)
    prefix = accumulate(sorted(seq.in_degrees, reverse=True)[:limit], initial=0)
    return [conjugate_sum_direct(b, j) - s for j, s in enumerate(prefix)]


def reference_no_loops_slack(seq):
    """The loop-free slack read off a sort of all ``n`` pairs in canonical
    order, up to ``max_out``."""
    pairs = sorted(zip(seq.in_degrees, seq.out_degrees), reverse=True)
    limit = seq.stats.max_out
    conj = [conjugate_sum_direct(seq.out_degrees, j) for j in range(limit + 1)]
    diff = [0] * (limit + 2)
    for i in range(1, limit + 1):
        b_i = pairs[i - 1][1]
        if b_i >= i:
            diff[i] += 1
            diff[b_i + 1] -= 1
    correction = accumulate(diff[: limit + 1])
    prefix_a = accumulate((p[0] for p in pairs[:limit]), initial=0)
    return [f - c - s for f, c, s in zip(conj, correction, prefix_a)]


def assert_slack_matches_reference(seq):
    """Both policies' slack equals its reference; the group-end test
    certifies only graphic records, and all of them with loops; and each
    check's verdict and witness are read off the reference."""
    for loops, reference, check in (
        (True, reference_loops_slack(seq), bd.check_with_loops),
        (False, reference_no_loops_slack(seq), bd.check_no_loops),
    ):
        assert _slack(seq, loops, *counted(seq)) == reference, (seq, loops)
        graphic = min(reference) >= 0
        witness = next((j for j, s in enumerate(reference) if s < 0), None)
        certified = group_ends(seq, loops)
        assert graphic if certified else not (loops and graphic), (seq, loops)
        outcome = check(seq)
        assert outcome.is_graphic is graphic, (seq, loops)
        assert outcome.witness == witness, (seq, loops)


class TestSlack:
    """One slack routine serves both policies, and the loop-free one sorts
    only the pairs whose in-degree reaches the ``max_out``-th largest; it
    equals the references above, which sort all ``n`` pairs."""

    def test_exhaustive_small(self):
        for n in range(1, 5):
            for a, b in equal_sum_vector_pairs(n, n):
                assert_slack_matches_reference(bd.new_sequence(a, b))

    def test_fuzz(self):
        rng = SplitMix64(1313)
        for _ in range(20_000):
            n = rng.randint(1, 12)
            m = rng.randint(0, min(3, n))
            M = rng.randint(m, n)
            S = rng.randint(n * m, n * M)
            assert_slack_matches_reference(
                bd.gen_uniform(n, S, m, M, seed=rng.next_u64())
            )

    @pytest.mark.parametrize(
        "make",
        [
            lambda seed: bd.gen_uniform(100, 700, 1, 100, seed=seed),
            lambda seed: bd.gen_powerlaw(2000, 2.5, seed=seed),
            lambda seed: bd.gen_uniform(1000, 7000, 1, 1000, seed=seed),
        ],
        ids=["uniform-n100", "powerlaw-n2000", "realize-n1000"],
    )
    def test_perfbench_corpus_shapes(self, make):
        for i in range(4):
            assert_slack_matches_reference(make(77_000_000 + i))

    @pytest.mark.parametrize(
        "a, b, slack, witness",
        [
            # max_out = 2 and t = 1: three pairs reach t, and of the two
            # tied at t only (1, 2) is among the first two canonical pairs
            ((1, 2, 1), (0, 2, 2), [0, -1, -1], 1),
            # limit = 0: nothing to sort and no correction
            ((0, 0, 0), (0, 0, 0), [0], None),
            # an out-degree of n, graphic with loops, fails only at j = n
            ((2, 1, 2), (1, 3, 1), [0, 0, 0, -1], 3),
            # an in-degree of n fails at j = 1
            ((3, 0, 0), (1, 1, 1), [0, -1], 1),
            # t = 1 is the least in-degree, so the filter keeps all n pairs
            ((1, 1, 2), (1, 2, 1), [0, 0, 0], None),
        ],
        ids=["tie-at-t", "limit-0", "out-degree-n", "in-degree-n", "keeps-all"],
    )
    def test_named_cases(self, a, b, slack, witness):
        seq = bd.new_sequence(a, b)
        assert _slack(seq, False, *counted(seq)) == slack
        assert_slack_matches_reference(seq)
        assert bd.check_no_loops(seq).witness == witness


def counterexample1(ma, mb, n=None):
    """The in- and out-degrees of ``gen_counterexample1(ma, mb, n)``."""
    seq = bd.gen_counterexample1(ma, mb, n)
    return seq.in_degrees, seq.out_degrees


class TestGroupEnds:
    """The checks certify at the ends of the in-degree groups and rescan
    every record the group ends do not certify."""

    @pytest.mark.parametrize(
        "a, b, loops, certified, witness",
        [
            # the first violated index lies inside the first group, which
            # ends at 2, under either policy
            ((3, 3, 0), (3, 0, 3), True, False, 1),
            ((2, 2, 0), (2, 2, 0), False, False, 1),
            # without loops the slack 0 at j = 1 does not cover the bound
            # min(j, #(b_i >= j)) = 1, so the full scan finds it graphic
            ((1, 0), (0, 1), False, False, None),
            # an in-degree-n group of two: graphic with loops only
            ((3, 3, 0), (2, 2, 2), True, True, None),
            ((3, 3, 0), (2, 2, 2), False, False, 1),
            # heavy tail: a maximum out-degree of 40 over three distinct
            # in-degrees (counterexample1 with Ma = 3, Mb = 40, n = 100);
            # with loops the first group's end is the witness, without
            # loops its first index
            ((3,) * 39 + (1,) + (0,) * 60, (40, 40, 38) + (0,) * 97, True,
             False, 39),
            ((3,) * 39 + (1,) + (0,) * 60, (40, 40, 38) + (0,) * 97, False,
             False, 1),
            # more of counterexample1 (Ma, Mb, n): the witness is Mb - 1
            # with loops and 1 without
            (*counterexample1(3, 5), True, False, 4),
            (*counterexample1(3, 5), False, False, 1),
            (*counterexample1(4, 3, 6), True, False, 2),
            (*counterexample1(4, 3, 6), False, False, 1),
            (*counterexample1(7, 9, 20), True, False, 8),
            (*counterexample1(7, 9, 20), False, False, 1),
            (*counterexample1(12, 10, 30), True, False, 9),
            (*counterexample1(12, 10, 30), False, False, 1),
        ],
        ids=["inside-loops", "inside-no-loops", "bound-not-covered",
             "in-degree-n-loops", "in-degree-n-no-loops", "heavy-tail-loops",
             "heavy-tail-no-loops", "cx1-3-5-loops", "cx1-3-5-no-loops",
             "cx1-4-3-6-loops", "cx1-4-3-6-no-loops", "cx1-7-9-20-loops",
             "cx1-7-9-20-no-loops", "cx1-12-10-30-loops",
             "cx1-12-10-30-no-loops"],
    )
    def test_named_cases(self, a, b, loops, certified, witness):
        seq = bd.new_sequence(a, b)
        check = bd.check_with_loops if loops else bd.check_no_loops
        assert group_ends(seq, loops) is certified
        assert check(seq).witness == witness
        assert_slack_matches_reference(seq)


class TestWithLoopsWitness:
    """The with-loops witness is the full scan's first negative index, on
    parsed and on built sequences, and a parsed record decodes no vectors
    to find it."""

    @staticmethod
    def assert_witness(a, b):
        built = bd.new_sequence(a, b)
        slack = reference_loops_slack(built)
        want = next((j for j, s in enumerate(slack) if s < 0), None)
        assert bd.check_with_loops(built).witness == want, (a, b)
        parsed = parse_record(format_record(built))
        outcome = bd.check_with_loops(parsed)
        assert outcome.witness == want, (a, b)
        assert outcome.is_graphic is (want is None), (a, b)
        assert parsed._vectors is None, (a, b)  # settled from the counts
        return want

    def test_c1_records(self):
        records = [pair for n in range(1, 5)
                   for pair in equal_sum_vector_pairs(n, n)]
        records += random_records(20260601, 20_000, 6, 12)
        inside = 0
        for a, b in records:
            w = self.assert_witness(a, b)
            desc = sorted(a, reverse=True)
            # neither the first index of its group nor its end
            inside += w is not None and 1 < w < len(a) and (
                desc[w - 2] == desc[w - 1] == desc[w])
        assert inside > 100

    def test_counterexample1_grid(self):
        for ma in range(2, 13):
            for mb in range(3, 13):
                for n in range(max(ma, mb), 31):
                    a, b = counterexample1(ma, mb, n)
                    assert self.assert_witness(a, b) == mb - 1, (ma, mb, n)


def expanded(pairs):
    """The vector of ascending ``(value, count)`` pairs."""
    return [v for v, c in pairs for _ in range(c)]


def random_pair_lists(seed, count):
    """``count`` seeded (n, ins, outs) from random records at n = 1..14,
    with ties: each side draws its values from a few distinct ones."""
    rng = SplitMix64(seed)
    for a, b in random_records(seed, count, 1, 14):
        n = len(a)
        # fold each side onto few values: ties and single groups, still in
        # [0..n]; then even the sums out by units at random entries
        a = [x - x % rng.randint(1, 3) for x in a]
        b = [x - x % rng.randint(1, 3) for x in b]
        low, high = sorted((a, b), key=sum)
        while sum(low) < sum(high):
            i = rng.randbelow(n)
            if low[i] < n:
                low[i] += 1
        yield n, sorted(Counter(a).items()), sorted(Counter(b).items())


class TestKernel:
    """``_group_ends`` called on ``(value, count)`` lists alone, as a rung
    that builds extremal pairs calls it: exact with loops, and without
    loops it never certifies a record some pairing of the vectors makes
    non-graphic."""

    @staticmethod
    def assert_kernel(n, ins, outs, rng):
        a, b = expanded(ins), expanded(outs)
        # a random pairing of the two vectors
        order = sorted(range(n), key=lambda _: rng.next_u64())
        seq = bd.new_sequence(a, [b[i] for i in order])
        max_out = outs[-1][0]
        graphic = min(reference_loops_slack(seq)) >= 0
        assert _group_ends(n, min(max_out, n - 1), ins, outs, True) is graphic
        if _group_ends(n, max_out, ins, outs, False):
            assert min(reference_no_loops_slack(seq)) >= 0, (ins, outs)

    def test_seeded_pair_lists(self):
        rng = SplitMix64(36)
        cases = list(random_pair_lists(3601, 20_000))
        for n, ins, outs in cases:
            self.assert_kernel(n, ins, outs, rng)
        # the draws reach each shape the kernel branches on
        assert any(len(ins) == 1 for _, ins, _ in cases)
        assert any(outs[-1][0] == 0 for _, _, outs in cases)
        assert any(ins[-1][0] == n or outs[-1][0] == n for n, ins, outs in cases)
        assert any(len(ins) < n for n, ins, _ in cases)

    @pytest.mark.parametrize(
        "n, ins, outs, loops, certified",
        [
            # limit 0: nothing can fail
            (3, [(0, 3)], [(0, 3)], True, True),
            (3, [(0, 3)], [(0, 3)], False, True),
            # one group of equal in-degrees, fine with loops; without
            # loops the end j = 2 cannot cover min(2, 2)
            (2, [(1, 2)], [(1, 2)], True, True),
            (2, [(1, 2)], [(0, 1), (2, 1)], True, True),
            (2, [(1, 2)], [(0, 1), (2, 1)], False, False),
            # an out-degree equal to n fails only at j = n without loops
            (3, [(1, 3)], [(0, 2), (3, 1)], True, True),
            (3, [(1, 3)], [(0, 2), (3, 1)], False, False),
            # an in-degree equal to n needs a loop, and fails at j = 1
            # without
            (3, [(0, 2), (3, 1)], [(1, 3)], True, True),
            (3, [(0, 2), (3, 1)], [(1, 3)], False, False),
            # the counterexample: the group of three 2s fails from j = 3
            (4, [(0, 1), (2, 3)], [(0, 2), (2, 1), (4, 1)], True, False),
        ],
        ids=["limit-0-loops", "limit-0-no-loops", "one-group-loops",
             "one-group-ties-loops", "one-group-ties-no-loops",
             "out-degree-n-loops", "out-degree-n-no-loops",
             "in-degree-n-loops", "in-degree-n-no-loops", "counterexample"],
    )
    def test_named_cases(self, n, ins, outs, loops, certified):
        limit = outs[-1][0] if not loops else min(outs[-1][0], n - 1)
        assert _group_ends(n, limit, ins, outs, loops) is certified
        self.assert_kernel(n, ins, outs, SplitMix64(n))


class TestBruteForce:
    """The oracle's answers with loops and without, on tiny records and
    above the sizes the matrix enumeration it replaced allowed (4 with
    loops, 5 without)."""

    ABOVE_THE_OLD_CAPS = {
        "five-cycle": (bd.new_sequence((1,) * 5, (1,) * 5), True, True),
        "cx1-3-5": (bd.gen_counterexample1(3, 5), False, False),
        "cx1-4-3-6": (bd.gen_counterexample1(4, 3, n=6), False, False),
        "cx1-7-9-20": (bd.gen_counterexample1(7, 9, n=20), False, False),
        "extremal-8-20-4": (bd.gen_extremal(8, 20, 4), True, True),
        "extremal-12-35-5": (bd.gen_extremal(12, 35, 5), True, True),
    }
    CASES = {
        "two-cycle": (bd.new_sequence((1, 1), (1, 1)), True, True),
        "counterexample": (
            bd.new_sequence((2, 2, 2, 0), (4, 2, 0, 0)), False, False
        ),
        "single-loop": (bd.new_sequence((1,), (1,)), True, False),
        **ABOVE_THE_OLD_CAPS,
    }

    def assert_answers(self, name):
        seq, loops, no_loops = self.CASES[name]
        assert bd.brute_force_exists(seq, True) is loops
        assert bd.brute_force_exists(seq, False) is no_loops

    def test_two_cycle(self):
        self.assert_answers("two-cycle")

    def test_counterexample(self):
        self.assert_answers("counterexample")

    def test_single_loop(self):
        self.assert_answers("single-loop")

    @pytest.mark.parametrize("name", ABOVE_THE_OLD_CAPS)
    def test_no_cap(self, name):
        self.assert_answers(name)

    @pytest.mark.parametrize("name", CASES)
    def test_independent_of_the_checks(self, name, monkeypatch):
        def refuse(*args):
            raise AssertionError("the oracle called the decision code")

        for helper in ("_slack", "_group_ends", "check_with_loops",
                       "check_no_loops"):
            monkeypatch.setattr(exact, helper, refuse)
        self.assert_answers(name)


class TestOracleAgreement:
    """Definition-level ground truth on exhaustively enumerable sizes.

    The full sweep lives in the acceptance suite's C1: every record with
    n <= 4, every pair multiset at n = 5 and 20k seeded records at
    n = 6..12.  This is a fast unit-sized version.
    """

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_with_loops(self, n):
        for a, b in equal_sum_vector_pairs(n, n):
            seq = bd.new_sequence(a, b)
            assert (
                bd.check_with_loops(seq).is_graphic
                == bd.brute_force_exists(seq, True)
            ), (a, b)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_no_loops(self, n):
        for a, b in equal_sum_vector_pairs(n, n - 1):
            seq = bd.new_sequence(a, b)
            assert (
                bd.check_no_loops(seq).is_graphic
                == bd.brute_force_exists(seq, False)
            ), (a, b)


class TestProperties:
    @given(sequence_pairs(max_n=10), st.randoms(use_true_random=False))
    @settings(max_examples=200)
    def test_joint_permutation_invariance(self, seq, rnd):
        if seq is None:
            return
        pairs = list(zip(seq.in_degrees, seq.out_degrees))
        rnd.shuffle(pairs)
        shuffled = bd.new_sequence(
            [p[0] for p in pairs], [p[1] for p in pairs]
        )
        for loops in (True, False):
            check = bd.check_with_loops if loops else bd.check_no_loops
            assert check(seq).verdict is check(shuffled).verdict

    @given(sequence_pairs(max_n=12))
    @settings(max_examples=300)
    def test_witness_validity(self, seq):
        if seq is None:
            return
        out = bd.check_with_loops(seq)
        if out.verdict is Verdict.NOT_GRAPHIC:
            assert not loops_inequality_holds_direct(
                seq.in_degrees, seq.out_degrees, out.witness
            )
        out = bd.check_no_loops(seq)
        if out.verdict is Verdict.NOT_GRAPHIC:
            pairs = sorted(zip(seq.in_degrees, seq.out_degrees), reverse=True)
            j = out.witness
            demand = sum(ai for ai, _ in pairs[:j])
            assert anstee_lhs_direct(pairs, j) < demand

    @given(sequence_pairs(max_n=12))
    @settings(max_examples=300)
    def test_no_loops_implies_with_loops(self, seq):
        if seq is None:
            return
        if bd.check_no_loops(seq).is_graphic:
            assert bd.check_with_loops(seq).is_graphic

    @given(sequence_pairs(max_n=10), st.randoms(use_true_random=False))
    @settings(max_examples=200)
    def test_verdict_stable_under_tie_permutation(self, seq, rnd):
        """Shuffling out-degrees among equal in-degrees never flips verdicts."""
        if seq is None:
            return
        pairs = sorted(zip(seq.in_degrees, seq.out_degrees), reverse=True)
        by_a: dict = {}
        for ai, bi in pairs:
            by_a.setdefault(ai, []).append(bi)
        for group in by_a.values():
            rnd.shuffle(group)
        a = sorted(seq.in_degrees, reverse=True)
        b = []
        for ai in a:
            b.append(by_a[ai].pop())
        shuffled = bd.new_sequence(a, b)
        assert (
            bd.check_no_loops(seq).verdict is bd.check_no_loops(shuffled).verdict
        )

    @given(sequence_pairs(max_n=12))
    @settings(max_examples=250)
    def test_brute_force_matches_checks(self, seq):
        if seq is None:
            return
        assert bd.brute_force_exists(seq, True) == bd.check_with_loops(seq).is_graphic
        assert bd.brute_force_exists(seq, False) == bd.check_no_loops(seq).is_graphic

    @given(sequence_pairs(max_n=12))
    @settings(max_examples=200)
    def test_exact_checks_never_inconclusive(self, seq):
        if seq is None:
            return
        assert bd.check_with_loops(seq).verdict is not Verdict.INCONCLUSIVE
        assert bd.check_no_loops(seq).verdict is not Verdict.INCONCLUSIVE


class TestConcurrency:
    def test_checks_are_pure_under_threads(self):
        """Same verdicts from concurrent invocations on shared values."""
        from concurrent.futures import ThreadPoolExecutor

        from bidegree.generate import SplitMix64

        rng = SplitMix64(55)
        seqs = []
        for _ in range(60):
            n = rng.randint(1, 25)
            M = rng.randint(0, n)
            S = rng.randint(0, n * M)
            seqs.append(bd.gen_uniform(n, S, 0, M, seed=rng.next_u64()))
        expected = [bd.check_with_loops(s).verdict for s in seqs]
        with ThreadPoolExecutor(max_workers=8) as pool:
            for _ in range(3):
                got = list(pool.map(lambda s: bd.check_with_loops(s).verdict, seqs))
                assert got == expected
