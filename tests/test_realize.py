import re
import time
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings

import bidegree as bd
from bidegree.exact import Verdict
from bidegree.generate import SplitMix64
from conftest import equal_sum_vector_pairs, random_records, sequence_pairs


def matrix_of(real):
    return [
        [int(i in real.targets[j]) for j in range(real.n)]
        for i in range(real.n)
    ]


def reference_realize(seq, allow_loops):
    """The greedy by definition: re-sort every target after each source.

    Quadratic, so kept for tests only; ``realize`` must return the very
    same matrix.
    """
    check = bd.check_with_loops if allow_loops else bd.check_no_loops
    outcome = check(seq)
    if not outcome.is_graphic:
        return outcome
    n = seq.n
    resid_in = list(seq.in_degrees)
    resid_out = list(seq.out_degrees)
    targets = [()] * n
    for s in sorted(range(n), key=lambda i: (-resid_out[i], i)):
        order = sorted(range(n), key=lambda i: (-resid_in[i], -resid_out[i], i))
        usable = [t for t in order if resid_in[t] and (allow_loops or t != s)]
        chosen = usable[: resid_out[s]]
        assert len(chosen) == resid_out[s]
        for t in chosen:
            resid_in[t] -= 1
        targets[s] = sorted(chosen)
        resid_out[s] = 0
    return bd.AdjacencyRealization(n, targets, allow_loops)


def naive_row_string(real, i):
    return "".join(map(str, matrix_of(real)[i]))


def naive_edges(real):
    matrix = matrix_of(real)
    return [
        (src, dst)
        for src in range(real.n)
        for dst in range(real.n)
        if matrix[dst][src]
    ]


class TestRealizeExamples:
    def test_two_cycle_unique(self):
        real = bd.realize(bd.new_sequence((1, 1), (1, 1)), allow_loops=False)
        assert matrix_of(real) == [[0, 1], [1, 0]]

    def test_single_loop(self):
        real = bd.realize(bd.new_sequence((1,), (1,)), allow_loops=True)
        assert matrix_of(real) == [[1]]

    def test_ten_node_vector_margins(self, ten_node_vector):
        real = bd.realize(ten_node_vector, allow_loops=True)
        assert isinstance(real, bd.AdjacencyRealization)
        assert bd.verify_realization(real, ten_node_vector)

    def test_three_cycle_without_loops(self):
        # the tie-break case of the module docstring: an index tie-break
        # would strand the last stub on node 2's own diagonal
        real = bd.realize(bd.new_sequence((1, 1, 1), (1, 1, 1)), False)
        assert matrix_of(real) == [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
        assert list(real.edges()) == [(0, 1), (1, 2), (2, 0)]

    def test_bits_past_last_column_are_not_entries(self):
        # sources 2 and 3 are columns a 2-node matrix does not have: their
        # target lists are rejected, never read as entries
        with pytest.raises(bd.DimensionMismatch):
            bd.AdjacencyRealization(2, ((1,), (0,), (0,), (1,)), True)
        real = bd.AdjacencyRealization(2, ((1,), (0,)), True)
        assert [real.row_string(i) for i in range(2)] == ["01", "10"]
        assert list(real.edges()) == naive_edges(real) == [(0, 1), (1, 0)]

    def test_not_graphic_returns_outcome(self):
        out = bd.realize(bd.new_sequence((2, 2, 2, 0), (4, 2, 0, 0)), True)
        assert isinstance(out, bd.CheckOutcome)
        assert out.verdict is Verdict.NOT_GRAPHIC
        assert out.witness == 3


class TestVerifyRealization:
    def test_round_trip(self, ten_node_vector):
        real = bd.realize(ten_node_vector, allow_loops=True)
        assert bd.verify_realization(real, ten_node_vector) is True

    def test_any_bit_flip_breaks_margins(self):
        # flipping entry (i, j) adds target i to source j, or removes it
        seq = bd.new_sequence((2, 1, 1), (1, 2, 1))
        real = bd.realize(seq, allow_loops=False)
        assert isinstance(real, bd.AdjacencyRealization)
        for i in range(seq.n):
            for j in range(seq.n):
                targets = [set(dsts) for dsts in real.targets]
                targets[j] ^= {i}
                flipped = bd.AdjacencyRealization(
                    seq.n, [sorted(dsts) for dsts in targets], False
                )
                assert not bd.verify_realization(flipped, seq)

    def test_identity_matrix_all_loops(self):
        n = 4
        seq = bd.new_sequence((1,) * n, (1,) * n)
        ident = bd.AdjacencyRealization(n, [(i,) for i in range(n)], True)
        assert bd.verify_realization(ident, seq)
        strict = bd.AdjacencyRealization(n, [(i,) for i in range(n)], False)
        assert not bd.verify_realization(strict, seq)

    def test_unsorted_or_repeated_targets_fail(self):
        # the constructor checks only the shape, and these margins match:
        # only verify's order check rejects them
        for in_degrees, first in (((1, 1, 1), (1, 0)), ((0, 2, 1), (1, 1))):
            seq = bd.new_sequence(in_degrees, (2, 0, 1))
            real = bd.AdjacencyRealization(3, (first, (), (2,)), True)
            assert real.targets[0] == first
            assert not bd.verify_realization(real, seq)
        ordered = bd.AdjacencyRealization(3, ((0, 1), (), (2,)), True)
        assert bd.verify_realization(ordered, bd.new_sequence((1, 1, 1), (2, 0, 1)))

    def test_bits_past_last_column_fail(self):
        # source 2 is a column a 2-node matrix does not have, so no such
        # value reaches verify; without it the margins do not match
        for targets in (((1,), (), (0,)), ((), (0,), (0,))):
            with pytest.raises(bd.DimensionMismatch):
                bd.AdjacencyRealization(2, targets, True)
        seq = bd.new_sequence((1, 1), (1, 1))
        in_range = bd.AdjacencyRealization(2, ((1,), ()), True)
        assert bd.verify_realization(in_range, seq) is False

    def test_dimension_mismatch(self):
        real = bd.AdjacencyRealization(2, ((), ()), True)
        with pytest.raises(bd.DimensionMismatch):
            bd.verify_realization(real, bd.new_sequence((0,), (0,)))


class TestConstructor:
    """The one constructor checks the shape and nothing more."""

    def test_needs_one_target_list_per_node(self):
        for n, targets in ((2, ((1,),)), (1, ()), (3, ((), ()))):
            with pytest.raises(bd.DimensionMismatch):
                bd.AdjacencyRealization(n, targets, True)

    def test_targets_that_are_not_lists_are_rejected(self):
        # a value, or a target list, that is not iterable
        for targets in ([5, 6], 5, [[0], 5], None):
            with pytest.raises(bd.DimensionMismatch,
                               match=re.escape(f"{targets!r} is not 2 target")):
                bd.AdjacencyRealization(2, targets, True)

    def test_negative_target_is_rejected(self):
        with pytest.raises(bd.DimensionMismatch, match="target -1"):
            bd.AdjacencyRealization(3, ((0,), (2, -1), ()), True)

    def test_target_equal_to_n_is_rejected(self):
        for bad in (3, 4):
            with pytest.raises(bd.DimensionMismatch, match=f"target {bad}"):
                bd.AdjacencyRealization(3, ((0,), (bad, 1), ()), False)

    def test_target_that_is_not_an_int_is_rejected(self):
        # as validation rejects a degree entry that is not an int; 1.0
        # after an int target 1 is caught too, though the two hash alike
        for targets in ([[0.5], []], [[float("nan")], []], [["1"], []],
                        [[Fraction(1)], []], [[Decimal(1)], []], [[[1]], []],
                        [[1, 1.0], []], [[0], [3.0]]):
            bad = [x for row in targets for x in row][-1]
            with pytest.raises(bd.DimensionMismatch,
                               match=re.escape(f"target {bad!r} is not")):
                bd.AdjacencyRealization(2, targets, True)

    def test_node_count_that_is_not_an_int_is_rejected(self):
        for n in (2.0, "2", None):
            with pytest.raises(bd.DimensionMismatch, match=re.escape(f"{n!r} is")):
                bd.AdjacencyRealization(n, [[1], []], True)

    def test_any_iterables_become_tuples(self):
        real = bd.AdjacencyRealization(2, iter([[1], iter([0])]), False)
        assert real.targets == ((1,), (0,))
        assert real == bd.AdjacencyRealization(2, ((1,), (0,)), False)
        assert bd.AdjacencyRealization(0, (), True).targets == ()

    def test_make_and_replace_check_the_shape(self):
        with pytest.raises(bd.DimensionMismatch, match="target 5"):
            bd.AdjacencyRealization._make([2, [[5], []], True])
        with pytest.raises(bd.DimensionMismatch, match="2 target lists"):
            bd.AdjacencyRealization._make([1, [[0], []], True])
        real = bd.AdjacencyRealization(2, [[1], [0]], False)
        with pytest.raises(bd.DimensionMismatch, match="2 target lists"):
            real._replace(n=1)
        with pytest.raises(bd.DimensionMismatch, match="target 2"):
            real._replace(targets=[[2], [0]])
        twin = real._replace(targets=[[0, 1], []], loops_allowed=True)
        assert twin == bd.AdjacencyRealization(2, ((0, 1), ()), True)
        assert type(twin) is bd.AdjacencyRealization

    def test_is_the_tuple_of_its_fields(self):
        real = bd.AdjacencyRealization(2, [[1], [0]], False)
        assert len(real) == 3
        assert tuple(real) == (2, ((1,), (0,)), False) == real
        assert hash(real) == hash((2, ((1,), (0,)), False))
        assert repr(real) == (
            "AdjacencyRealization(n=2, targets=((1,), (0,)), "
            "loops_allowed=False)")


class TestRowString:
    """``row_string(i)``, read one row at a time from the target lists, is
    the i-th row that ``row_strings()`` prints and agrees with ``edges()``."""

    @pytest.mark.parametrize("loops", [True, False])
    def test_matches_row_strings_and_edges(self, loops):
        rng = SplitMix64(11)
        done = 0
        while done < 20:
            n = rng.randint(1, 60)
            total = n * min(3, n - 1)  # loop-free graphic sums exist
            seq = bd.gen_uniform(n, total, 0, n, seed=rng.next_u64())
            real = bd.realize(seq, loops)
            if isinstance(real, bd.CheckOutcome):
                continue
            rows = [real.row_string(i) for i in range(n)]
            assert rows == list(real.row_strings())
            ones = {
                (src, dst)
                for dst, row in enumerate(rows)
                for src, char in enumerate(row)
                if char == "1"
            }
            assert ones == set(real.edges())
            assert all(set(row) <= {"0", "1"} and len(row) == n for row in rows)
            done += 1

    @pytest.mark.parametrize("i", [-1, 2, 5])
    def test_row_outside_the_matrix(self, i):
        real = bd.realize(bd.new_sequence((1, 1), (1, 1)), False)
        assert [real.row_string(0), real.row_string(1)] == ["01", "10"]
        with pytest.raises(IndexError, match=rf"^row {i} outside \[0, 2\)$"):
            real.row_string(i)


class TestRealizeAgreement:
    @pytest.mark.parametrize("n,loops", [(1, True), (2, True), (3, True),
                                         (1, False), (2, False), (3, False)])
    def test_small_exhaustive(self, n, loops):
        emax = n if loops else n - 1
        for a, b in equal_sum_vector_pairs(n, emax):
            seq = bd.new_sequence(a, b)
            expect = (
                bd.check_with_loops(seq) if loops else bd.check_no_loops(seq)
            ).is_graphic
            result = bd.realize(seq, loops)
            assert result == reference_realize(seq, loops)
            assert isinstance(result, bd.AdjacencyRealization) == expect
            if expect:
                assert bd.verify_realization(result, seq)
                if not loops:
                    assert all(
                        i not in result.targets[i] for i in range(n)
                    )

    @given(sequence_pairs(max_n=14))
    @settings(max_examples=250)
    def test_round_trip_property(self, seq):
        if seq is None:
            return
        for loops in (True, False):
            result = bd.realize(seq, loops)
            assert result == reference_realize(seq, loops)
            check = bd.check_with_loops if loops else bd.check_no_loops
            assert isinstance(result, bd.AdjacencyRealization) == check(seq).is_graphic
            if isinstance(result, bd.AdjacencyRealization):
                assert bd.verify_realization(result, seq)
                assert [result.row_string(i) for i in range(seq.n)] == [
                    naive_row_string(result, i) for i in range(seq.n)
                ]
                assert list(result.edges()) == naive_edges(result)

    def test_matches_the_flow_oracle(self):
        """On 2000 seeded records with n <= 20, ``realize`` returns a
        verified matrix exactly when the max-flow oracle, which shares no
        code with it, builds one, and NOT_GRAPHIC otherwise.  Without
        loops this pins the tie-break the greedy wiring depends on."""
        for a, b in random_records(20260603, 2000, 1, 20):
            seq = bd.new_sequence(a, b)
            for loops in (True, False):
                result = bd.realize(seq, loops)
                if bd.brute_force_exists(seq, loops):
                    assert isinstance(result, bd.AdjacencyRealization)
                    assert bd.verify_realization(result, seq), (a, b, loops)
                else:
                    assert result.verdict is Verdict.NOT_GRAPHIC, (a, b, loops)

    def test_fuzz_medium_sizes(self):
        rng = SplitMix64(7)
        done = 0
        while done < 400:
            n = rng.randint(1, 120)
            m = rng.randint(0, 1)
            cbar = rng.randint(max(m, 1), max(min(6, n), max(m, 1)))
            hi = min(n, 3 * cbar + 2)
            lo = max(cbar, m, 1)
            if hi < lo:
                continue
            M = rng.randint(lo, hi)
            S = cbar * n
            if not (n * m <= S <= n * M):
                continue
            seq = bd.gen_uniform(n, S, m, M, seed=rng.next_u64())
            loops = rng.randint(0, 1) == 1
            result = bd.realize(seq, loops)
            assert result == reference_realize(seq, loops)
            if isinstance(result, bd.CheckOutcome):
                continue
            assert bd.verify_realization(result, seq)
            if not loops:
                assert all(i not in result.targets[i] for i in range(seq.n))
            done += 1


@pytest.mark.parametrize("loops", [True, False])
def test_realize_scales_near_linearly(loops):
    """n = 10^4 with S = 7n in well under a second; a quadratic greedy
    (re-sorting all targets after each source) takes tens of seconds."""
    seq = bd.gen_uniform(10_000, 70_000, 1, 10_000, seed=0)
    t0 = time.perf_counter()
    real = bd.realize(seq, loops)
    elapsed = time.perf_counter() - t0
    assert isinstance(real, bd.AdjacencyRealization)
    assert bd.verify_realization(real, seq)
    assert elapsed < 10
