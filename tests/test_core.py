import pickle
from collections import Counter
from fractions import Fraction
from operator import sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bidegree as bd
from bidegree.cli import parse_record
from bidegree.core import _stats
from bidegree.exact import _conjugate_sums
from conftest import conjugate_sum_direct, sequence_pairs


class TestNewSequence:
    def test_symmetric_two_cycle(self):
        seq = bd.new_sequence((1, 1), (1, 1))
        assert seq.n == 2
        assert bd.stats(seq).total == 2
        # the stored stats take no part in equality or hashing
        twin = bd.new_sequence([1, 1], iter([1, 1]))
        assert twin == seq
        assert hash(twin) == hash(seq)
        assert repr(seq) == "BidegreeSequence(in_degrees=(1, 1), out_degrees=(1, 1))"

    def test_constructor_freezes_its_vectors(self):
        """Lists given to the constructor are kept as tuples: the sequence
        hashes, equals the ``new_sequence`` of the same lists, and no
        change to a list reaches a validated sequence."""
        a, b = [1, 1], [1, 1]
        seq = bd.BidegreeSequence(a, b)
        assert (seq.in_degrees, seq.out_degrees) == ((1, 1), (1, 1))
        assert seq == bd.new_sequence(a, b)
        assert hash(seq) == hash(bd.new_sequence(a, b))
        a.append(7)
        with pytest.raises(AttributeError):
            seq.in_degrees.append(7)
        assert bd.check_with_loops(seq).is_graphic
        # a tuple is kept as the same object
        assert bd.BidegreeSequence(seq.in_degrees, b).in_degrees is seq.in_degrees

    def test_sum_mismatch(self):
        with pytest.raises(bd.SumMismatch):
            bd.new_sequence((2, 1), (1, 1))

    def test_counterexample_instance_is_valid(self):
        seq = bd.new_sequence((2, 2, 2, 0), (4, 2, 0, 0))
        assert seq.n == 4
        assert bd.stats(seq).total == 6

    def test_length_mismatch(self):
        with pytest.raises(bd.LengthMismatch):
            bd.new_sequence((1, 1), (2,))

    def test_empty_rejected(self):
        with pytest.raises(bd.LengthMismatch):
            bd.new_sequence((), ())

    def test_negative_degree(self):
        with pytest.raises(bd.NegativeDegree):
            bd.new_sequence((-1, 1), (0, 0))
        # the first offending entry decides, in-degrees before out-degrees
        with pytest.raises(bd.NegativeDegree, match=r"^in-degree entry -1 is negative$"):
            bd.new_sequence((-1, 3), (1, 1))
        with pytest.raises(bd.NegativeDegree, match=r"^out-degree entry -1 is negative$"):
            bd.new_sequence((1, 1), (-1, 3))

    def test_degree_exceeds_n(self):
        with pytest.raises(bd.DegreeExceedsN):
            bd.new_sequence((3, 0), (2, 1))
        with pytest.raises(
            bd.DegreeExceedsN, match=r"^in-degree entry 3 exceeds node count 2$"
        ):
            bd.new_sequence((3, -1), (1, 1))
        with pytest.raises(
            bd.DegreeExceedsN, match=r"^out-degree entry 3 exceeds node count 2$"
        ):
            bd.new_sequence((1, 1), (3, -1))

    @pytest.mark.parametrize(
        "a, b, got",
        [
            ([0.5], [0.5], "0.5"),
            ([1.0, 1], [1, 1.0], "1.0"),
            ([1, 1], [1, 1.0], "1.0"),
            ([Fraction(1, 2), 1], [1, Fraction(1, 2)], "Fraction(1, 2)"),
        ],
        ids=["half", "float-ones", "float-out", "fraction"],
    )
    def test_non_integer_entries_rejected(self, a, b, got):
        # in range and with equal sums: only the entry type is wrong
        with pytest.raises(bd.BidegreeError) as err:
            bd.new_sequence(a, b)
        assert not isinstance(err.value, bd.SumMismatch)
        assert str(err.value) == f"degree entries must be integers, got {got}"

    def test_non_integer_entries_never_reach_the_checks(self):
        with pytest.raises(bd.BidegreeError, match="must be integers"):
            bd.certify(bd.new_sequence([0.5], [0.5]))
        with pytest.raises(bd.BidegreeError, match="must be integers"):
            bd.realize(bd.new_sequence([1.0, 1], [1, 1.0]), allow_loops=False)

    def test_entries_equal_n_allowed(self):
        seq = bd.new_sequence((2, 2), (2, 2))
        assert seq.n == 2


class TestStats:
    def test_ten_node_vector(self, ten_node_vector):
        st_ = bd.stats(ten_node_vector)
        assert (st_.n, st_.total, st_.min_degree, st_.max_degree) == (10, 40, 1, 6)

    def test_empty_digraph(self):
        st_ = bd.stats(bd.new_sequence((0, 0), (0, 0)))
        assert (st_.n, st_.total, st_.min_degree, st_.max_degree) == (2, 0, 0, 0)

    def test_min_ranges_over_both_vectors(self):
        st_ = bd.stats(bd.new_sequence((2, 2, 2, 0), (4, 2, 0, 0)))
        assert st_.min_degree == 0
        assert st_.max_in == 2
        assert st_.max_out == 4
        assert st_.max_degree == 4

    @given(sequence_pairs())
    def test_invariant_ranges(self, seq):
        if seq is None:
            return
        st_ = bd.stats(seq)
        assert 0 <= st_.min_degree <= st_.max_degree <= st_.n
        assert st_.min_degree * st_.n <= st_.total <= st_.max_degree * st_.n
        a, b = seq.in_degrees, seq.out_degrees
        assert st_ is seq.stats
        assert st_ == bd.SequenceStats(
            n=len(a),
            total=sum(a),
            min_degree=min(a + b),
            max_in=max(a),
            max_out=max(b),
            max_degree=max(a + b),
        )

    @pytest.mark.parametrize("text", ["1;1", "0,0;0,0", "2,2,2,0;4,2,0,0",
                                      "6,6,6,6,6,4,2,2,1,1;6,6,6,6,6,4,2,2,1,1"])
    def test_built_stats_are_constructed_stats(self, text):
        """``_stats`` builds its tuple past the constructor: it is a
        ``SequenceStats`` equal to a constructed one, field for field, in
        repr, pickle, ``_replace`` and ``_asdict``, on both routes."""
        a, b = (tuple(map(int, side.split(","))) for side in text.split(";"))
        built = _stats(len(a), sum(a), sum(b), set(a), set(b))
        constructed = bd.SequenceStats(
            len(a), sum(a), min(a + b), max(a), max(b), max(a + b))
        for found in (built, bd.new_sequence(a, b).stats, parse_record(text).stats):
            assert type(found) is bd.SequenceStats
            assert found == constructed
            assert repr(found) == repr(constructed)
            assert found._asdict() == constructed._asdict()
            assert found._replace(n=99) == constructed._replace(n=99)
            copied = pickle.loads(pickle.dumps(found))
            assert type(copied) is bd.SequenceStats and copied == constructed


def typed(values):
    return tuple((type(x), x) for x in values)


# the sequences validation saw NaN in: a NaN compares false with
# everything, so min/max over a vector return whatever its order leaves,
# and the range check sees, or misses, the int beside it accordingly
NAN_BESIDE_OUT_OF_RANGE = [
    ("nan,-1", "0,0", bd.BidegreeError, "degree entries must be integers, got nan"),
    ("-1,nan", "0,0", bd.NegativeDegree, "in-degree entry -1 is negative"),
    ("nan,3", "1,1", bd.BidegreeError, "degree entries must be integers, got nan"),
    ("3,nan", "1,1", bd.DegreeExceedsN, "in-degree entry 3 exceeds node count 2"),
    ("1,1", "nan,-1", bd.BidegreeError, "degree entries must be integers, got nan"),
    ("1,1", "-1,nan", bd.NegativeDegree, "out-degree entry -1 is negative"),
    ("nan,1", "-1,2", bd.BidegreeError, "degree entries must be integers, got nan"),
    ("-1,2", "nan,1", bd.NegativeDegree, "in-degree entry -1 is negative"),
    ("nan,1", "3,0", bd.BidegreeError, "degree entries must be integers, got nan"),
    ("1,3", "nan,0", bd.DegreeExceedsN, "in-degree entry 3 exceeds node count 2"),
    ("nan,nan", "1,1", bd.BidegreeError, "degree entries must be integers, got nan"),
    ("0,nan,5", "0,1,1", bd.DegreeExceedsN, "in-degree entry 5 exceeds node count 3"),
]


class TestStatsOverDistinctValues:
    """Validation takes min/max over each vector's distinct values; the
    stats, their types among them, and the errors are those of min/max
    over the vectors themselves."""

    @pytest.mark.parametrize("a, b, expected", [
        ([True, 1], [1, True], (2, 2, True, True, 1, True)),
        ([1, True], [True, 1], (2, 2, 1, 1, True, 1)),
        ([True, False], [False, True], (2, 1, False, True, True, True)),
        ([0, False, 2, 2], [False, 0, 2, 2], (4, 4, 0, 2, 2, 2)),
    ], ids=["true-first", "int-first", "bools", "false-beside-zero"])
    def test_bool_entries_keep_their_types(self, a, b, expected):
        # the first of equal entries is the one min/max return
        assert typed(bd.new_sequence(a, b).stats) == typed(expected)

    @pytest.mark.parametrize("a, b, error, message", [
        ([1, 1.0], [1.0, 1], bd.BidegreeError, "degree entries must be integers, got 1.0"),
        ([2.5, 0], [1, 1.5], bd.DegreeExceedsN, "in-degree entry 2.5 exceeds node count 2"),
        ([3.0, 0], [1, 1], bd.DegreeExceedsN, "in-degree entry 3.0 exceeds node count 2"),
        ([-1.0, 1], [0, 0], bd.NegativeDegree, "in-degree entry -1.0 is negative"),
        ([Fraction(3), 0], [1, 2], bd.DegreeExceedsN, "in-degree entry 3 exceeds node count 2"),
        (["1"], ["1"], TypeError, "'<' not supported between instances of 'str' and 'int'"),
        ([None], [0], TypeError, "'<' not supported between instances of 'int' and 'NoneType'"),
        ([[1]], [1], TypeError, "'<' not supported between instances of 'int' and 'list'"),
    ], ids=["float-ones", "float-over-n", "float-n-plus-one", "float-negative",
            "fraction-over-n", "str", "none", "list"])
    def test_entries_other_than_ints(self, a, b, error, message):
        with pytest.raises(error) as info:
            bd.new_sequence(a, b)
        assert type(info.value) is error
        assert str(info.value) == message

    @pytest.mark.parametrize("a, b, error, message", NAN_BESIDE_OUT_OF_RANGE,
                             ids=[f"{a};{b}" for a, b, *_ in NAN_BESIDE_OUT_OF_RANGE])
    def test_nan_beside_an_int_out_of_range(self, a, b, error, message):
        """A set orders NaNs by their ids, so fresh NaNs put them at many
        places in it; the error does not depend on where."""
        for _ in range(50):
            values = [[float(x) if x == "nan" else int(x) for x in side.split(",")]
                      for side in (a, b)]
            with pytest.raises(error) as info:
                bd.new_sequence(*values)
            assert type(info.value) is error
            assert str(info.value) == message

    @given(st.lists(st.tuples(st.integers(0, 6), st.booleans(), st.booleans()),
                    min_size=6, max_size=12))
    def test_bounds_as_over_the_vectors(self, rows):
        """Ints, some 0s and 1s given as bools: each bound is the first
        entry of its value, the one min/max over the vector return."""
        a = [bool(x) if flip and x < 2 else x for x, flip, _ in rows]
        b = [bool(x) if flip and x < 2 else x for x, _, flip in reversed(rows)]
        assert typed(bd.new_sequence(a, b).stats) == typed((
            len(a), sum(a), min(min(a), min(b)), max(a), max(b), max(max(a), max(b))))


def profile(vec, n):
    """``_conjugate_sums`` run to ``n``, with its increments: the
    cumulative sums ``F(j) = sum_i min(v_i, j)`` for ``j`` in ``[0..n]``,
    and ``#(v_i >= j)`` for ``j`` in ``[1..n]``."""
    cumulative = _conjugate_sums(Counter(vec), len(vec), n)
    return cumulative, list(map(sub, cumulative[1:], cumulative))


class TestConjugateProfile:
    def test_example_vector(self):
        cumulative, counts = profile((4, 2, 0, 0), 4)
        assert counts == [2, 2, 1, 1]
        assert cumulative == [0, 2, 4, 5, 6]

    def test_all_zeros(self):
        cumulative, _ = profile((0, 0, 0), 3)
        assert cumulative == [0, 0, 0, 0]

    def test_minimizer_example(self):
        cumulative, _ = profile((4, 4, 2, 0, 0), 5)
        assert cumulative == [0, 3, 6, 8, 10, 10]

    def test_length_other_than_n(self):
        cumulative, counts = profile((2, 1), 4)
        assert cumulative == [0, 2, 3, 3, 3]
        assert counts == [2, 1, 0, 0]
        cumulative, counts = profile((1, 1, 1, 1, 1), 2)
        assert cumulative == [0, 5, 5]
        assert counts == [5, 0]

    def test_empty_vector(self):
        cumulative, counts = profile((), 3)
        assert cumulative == [0, 0, 0, 0]
        assert counts == [0, 0, 0]

    @given(st.data())
    @settings(max_examples=300)
    def test_matches_direct_summation(self, data):
        n = data.draw(st.integers(1, 12))
        size = data.draw(st.sampled_from([n, 0, 1, n - 1, n + 1, 2 * n + 3]))
        b = data.draw(st.lists(st.integers(0, n), min_size=size, max_size=size))
        cumulative, counts = profile(b, n)
        assert len(cumulative) == n + 1 and len(counts) == n
        for j in range(n + 1):
            assert cumulative[j] == conjugate_sum_direct(b, j)
        for j in range(1, n + 1):
            assert counts[j - 1] == sum(x >= j for x in b)

    @given(st.data())
    @settings(max_examples=300)
    def test_counts_non_increasing_and_saturation(self, data):
        n = data.draw(st.integers(1, 12))
        b = data.draw(st.lists(st.integers(0, n), min_size=n, max_size=n))
        cumulative, counts = profile(b, n)
        assert all(x >= y for x, y in zip(counts, counts[1:]))
        assert cumulative[0] == 0
        assert cumulative[n] == sum(b)
        for j in range(max(b) if b else 0, n + 1):
            assert cumulative[j] == sum(b)


class TestPadBipartite:
    def test_pads_shorter_side(self):
        seq = bd.pad_bipartite((2, 1), (1, 1, 1))
        assert seq.in_degrees == (2, 1, 0)
        assert seq.out_degrees == (1, 1, 1)

    def test_single_row(self):
        seq = bd.pad_bipartite((3,), (1, 1, 1))
        assert seq.in_degrees == (3, 0, 0)
        assert seq.out_degrees == (1, 1, 1)

    def test_square_passthrough(self):
        seq = bd.pad_bipartite((2, 2), (2, 2))
        assert seq.n == 2

    def test_sum_mismatch(self):
        with pytest.raises(bd.SumMismatch):
            bd.pad_bipartite((2, 2), (1, 1, 1))

    def test_empty_margins(self):
        with pytest.raises(bd.LengthMismatch):
            bd.pad_bipartite((), ())

    def test_margin_exceeding_dimension(self):
        # a 2x2 matrix cannot hold a row of sum 5
        with pytest.raises(bd.DegreeExceedsN):
            bd.pad_bipartite((5, 1), (3, 3))

    def test_matches_rectangle_enumeration(self):
        """Padded with-loops verdicts equal brute-force p x q matrix search."""
        from itertools import product as iproduct

        for p, q in [(1, 2), (2, 2), (2, 3), (3, 3)]:
            matrices = list(iproduct((0, 1), repeat=p * q))
            for rows in iproduct(range(q + 1), repeat=p):
                for cols in iproduct(range(p + 1), repeat=q):
                    if sum(rows) != sum(cols):
                        continue
                    exists = any(
                        all(
                            sum(mat[i * q : (i + 1) * q]) == rows[i]
                            for i in range(p)
                        )
                        and all(
                            sum(mat[i * q + j] for i in range(p)) == cols[j]
                            for j in range(q)
                        )
                        for mat in matrices
                    )
                    padded = bd.pad_bipartite(rows, cols)
                    assert bd.check_with_loops(padded).is_graphic == exists, (
                        rows,
                        cols,
                    )

    def test_answers_bipartite_realizability(self):
        # 2x3 margins rows=(2,1), cols=(1,1,1): realizable
        assert bd.check_with_loops(bd.pad_bipartite((2, 1), (1, 1, 1))).is_graphic
        # rows=(3,), cols=(1,1,1): a 1x3 row of three ones, realizable
        assert bd.check_with_loops(bd.pad_bipartite((3,), (1, 1, 1))).is_graphic
        # rows=(2,2,0), cols=(3,1,0): the 3-column needs three occupied
        # rows but only two rows have mass, so not realizable
        assert not bd.check_with_loops(
            bd.pad_bipartite((2, 2, 0), (3, 1, 0))
        ).is_graphic
