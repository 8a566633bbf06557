import math
import struct
from bisect import bisect_right
from decimal import Decimal
from fractions import Fraction
from itertools import accumulate

import pytest

import bidegree as bd
from bidegree import generate
from bidegree.generate import GeneratorSpec, SplitMix64, generate_sequence

CHUNK = generate._CHUNK


class TestSplitMix64:
    def test_known_answer_seed_zero(self):
        rng = SplitMix64(0)
        assert [rng.next_u64() for _ in range(3)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_randbelow_unbiased_range(self):
        rng = SplitMix64(9)
        draws = [rng.randbelow(7) for _ in range(2000)]
        assert set(draws) == set(range(7))

    @pytest.mark.parametrize("bound", [0, -3])
    def test_randbelow_empty_range_rejected(self, bound):
        with pytest.raises(ValueError, match="bound must be positive"):
            SplitMix64(1).randbelow(bound)

    def test_randbelow_past_two_to_the_64_rejected(self):
        # no 64-bit draw falls under a rejection limit of 0
        with pytest.raises(ValueError, match="at most 2\\*\\*64"):
            SplitMix64(1).randbelow(2**64 + 1)
        assert SplitMix64(1).randbelow(2**64) == SplitMix64(1).next_u64()

    def test_randint_inclusive(self):
        rng = SplitMix64(9)
        draws = {rng.randint(3, 5) for _ in range(200)}
        assert draws == {3, 4, 5}

    def test_random_unit_interval(self):
        rng = SplitMix64(9)
        xs = [rng.random() for _ in range(1000)]
        assert all(0.0 <= x < 1.0 for x in xs)


class TestNextU64s:
    """The lane-packed batch is the sequential stream."""

    @pytest.mark.parametrize("seed", [0, 2**64 - 1, -1, 2**70 + 5])
    @pytest.mark.parametrize(
        "count", [0, 1, 2, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7]
    )
    def test_equals_sequential_calls(self, seed, count):
        batched, sequential = SplitMix64(seed), SplitMix64(seed)
        assert batched.next_u64s(count) == [
            sequential.next_u64() for _ in range(count)
        ]
        assert batched._state == sequential._state
        assert batched.next_u64() == sequential.next_u64()

    @pytest.mark.parametrize("byteorder, code", [("little", "<"), ("big", ">")])
    def test_lane_words_for_either_byte_order(self, byteorder, code):
        """The low word of lane k of a c-lane integer is the 64-bit word
        the table picks from its bytes in the host's order, read in that
        order, whatever its high word holds."""
        values = SplitMix64(5).next_u64s(9)
        z = sum((v | (v ^ 1) << 64) << 128 * k for k, v in enumerate(values))
        words = struct.unpack(f"{code}18Q", z.to_bytes(16 * 9, byteorder))
        assert list(words[generate._LANE_WORDS[byteorder]]) == values


class TestGenUniform:
    def test_fully_constrained(self):
        seq = bd.gen_uniform(4, 4, 1, 1, seed=123)
        assert seq.in_degrees == (1, 1, 1, 1)
        assert seq.out_degrees == (1, 1, 1, 1)

    def test_saturated(self):
        seq = bd.gen_uniform(5, 15, 0, 3, seed=1)
        assert set(seq.in_degrees) == {3}
        assert set(seq.out_degrees) == {3}

    def test_contract(self):
        seq = bd.gen_uniform(50, 200, 1, 10, seed=7)
        st = bd.stats(seq)
        assert st.n == 50
        assert st.total == 200
        assert st.min_degree >= 1
        assert st.max_degree <= 10

    def test_determinism(self):
        a = bd.gen_uniform(30, 90, 0, 9, seed=5)
        b = bd.gen_uniform(30, 90, 0, 9, seed=5)
        c = bd.gen_uniform(30, 90, 0, 9, seed=6)
        assert a == b
        assert a != c

    def test_infeasible(self):
        with pytest.raises(bd.Infeasible):
            bd.gen_uniform(4, 20, 0, 4, seed=0)
        with pytest.raises(bd.Infeasible):
            bd.gen_uniform(4, 2, 1, 4, seed=0)


class TestGenPowerlaw:
    def test_contract_and_balance(self):
        seq = bd.gen_powerlaw(500, 2.5, seed=11)
        st = bd.stats(seq)
        assert st.min_degree >= 1
        assert st.max_degree <= 500
        assert sum(seq.in_degrees) == sum(seq.out_degrees)

    def test_steep_exponent_mostly_ones(self):
        seq = bd.gen_powerlaw(100, 10.0, seed=5)
        ones = sum(1 for x in seq.in_degrees + seq.out_degrees if x == 1)
        assert ones >= 0.8 * 200

    def test_bad_exponent(self):
        for exponent in (2.0, float("nan"), Fraction(2), Decimal("2.5"),
                         Decimal("NaN"), "2.5"):
            with pytest.raises(bd.BadExponent):
                bd.gen_powerlaw(100, exponent, seed=0)

    def test_fraction_exponent(self):
        """A Fraction exponent is a real number: one with a denominator
        weighs as its float does, an integer one exactly."""
        assert bd.gen_powerlaw(60, Fraction(5, 2), 1) == bd.gen_powerlaw(60, 2.5, 1)
        seq = bd.gen_powerlaw(60, Fraction(3), 1)
        assert sum(seq.in_degrees) == sum(seq.out_degrees)
        assert bd.stats(seq).min_degree >= 1

    def test_tiny_n_rejected(self):
        with pytest.raises(bd.InvalidParameters):
            bd.gen_powerlaw(1, 2.5, seed=0)

    def test_determinism(self):
        assert bd.gen_powerlaw(64, 2.5, seed=3) == bd.gen_powerlaw(64, 2.5, seed=3)


def reference_uniform(n, total, min_degree, max_degree, seed):
    """gen_uniform as it was, one randbelow draw per step.  Test-only
    reference."""
    m, M = min_degree, max_degree
    rng = SplitMix64(seed)

    def vector():
        vec = [m] * n
        remaining = total - n * m
        while remaining:
            i = rng.randbelow(n)
            if vec[i] < M:
                vec[i] += 1
                remaining -= 1
        return vec

    return bd.new_sequence(vector(), vector())


def reference_powerlaw(n, exponent, seed):
    """gen_powerlaw as it was, one random() draw per degree and one
    randbelow draw per top-up step.  Test-only reference."""
    rng = SplitMix64(seed)
    cum = list(accumulate(x ** -exponent for x in range(1, n + 1)))
    total_weight = cum[-1]

    def draw():
        u = rng.random() * total_weight
        return min(bisect_right(cum, u) + 1, n)

    a = [draw() for _ in range(n)]
    b = [draw() for _ in range(n)]
    lo, hi = (a, b) if sum(a) < sum(b) else (b, a)
    deficit = sum(hi) - sum(lo)
    while deficit:
        i = rng.randbelow(n)
        if lo[i] < n:
            lo[i] += 1
            deficit -= 1
    return bd.new_sequence(a, b)


class TestGeneratorReference:
    """The batched generators give the sequence of the sequential
    reference on every parameter set."""

    def test_uniform_fuzz(self):
        rng = SplitMix64(2015)
        for _ in range(1500):
            n = rng.randint(1, 40)
            m = rng.randint(0, min(3, n))
            M = rng.randint(m, n)
            args = n, rng.randint(n * m, n * M), m, M, rng.next_u64()
            assert bd.gen_uniform(*args) == reference_uniform(*args), args

    def test_powerlaw_fuzz(self):
        rng = SplitMix64(2016)
        for _ in range(600):
            n = rng.randint(2, 60)
            exponent = (2.1, 2.5, 3.0, 10.0, 2 + rng.random())[rng.randbelow(5)]
            args = n, exponent, rng.next_u64()
            assert bd.gen_powerlaw(*args) == reference_powerlaw(*args), args

    @pytest.mark.parametrize(
        "args",
        [
            (5, 15, 0, 3),  # saturated: every slot ends at the cap
            (1, 0, 0, 0),
            (1, 1, 0, 1),
            (1, 1, 1, 1),
            (2, 3, 0, 2),
            (300, 2400, 2, 12),  # more than one chunk per vector
            (100, 700, 1, 100),  # perfbench's uniform-n100
        ],
    )
    def test_uniform_edge_cases(self, args):
        for seed in (0, 1, -1, 2**64 - 1, 2**70 + 5):
            assert bd.gen_uniform(*args, seed) == reference_uniform(*args, seed)

    @pytest.mark.parametrize(
        "n, exponent",
        [(2, 2.1), (2, 10.0), (3, 2.1), (700, 2.2), (600, 10.0), (3, 1e4)],
    )
    def test_powerlaw_edge_cases(self, n, exponent):
        for seed in (0, 1, -1, 2**64 - 1, 2**70 + 5):
            assert bd.gen_powerlaw(n, exponent, seed) == reference_powerlaw(
                n, exponent, seed
            )

    def test_powerlaw_table_hits_and_misses(self):
        """Calls that replace the kept weight table (a new n, exponent or
        exponent type, as 3 then 3.0) and calls that reuse it (the second
        seed of each) give the reference sequence."""
        table = generate._powerlaw_table
        table.cache_clear()
        calls = [(2000, 2.5), (700, 2.2), (2000, 2.5), (64, 3), (64, 3.0), (2, 10.0)]
        for i, (n, exponent) in enumerate(calls):
            for seed in (n, -n):
                assert bd.gen_powerlaw(n, exponent, seed) == reference_powerlaw(
                    n, exponent, seed
                ), (n, exponent, seed)
            assert table.cache_info()[:2] == (i + 1, i + 1)  # hits, misses

    def test_powerlaw_table_never_changes_an_outcome(self):
        """An exponent equal to the kept one but of another type builds its
        own weights: a Fraction gives the float's sequence, a Decimal fails
        as it does with no table kept."""
        want = reference_powerlaw(5, 2.5, 1)
        for warm in (False, True):
            generate._powerlaw_table.cache_clear()
            if warm:
                bd.gen_powerlaw(5, 2.5, 0)
            assert bd.gen_powerlaw(5, Fraction(5, 2), 1) == want
            with pytest.raises(bd.BadExponent):
                bd.gen_powerlaw(5, Decimal("2.5"), 1)

    @pytest.mark.parametrize(
        "n, exponent, seeds",
        [(3000, 2.05, range(3)), (2000, 2.1, range(3)),
         (500, Fraction(5, 2), range(10)), (300, Fraction(3), range(10))],
        ids=["3000-2.05", "2000-2.1", "500-Fraction(5, 2)", "300-Fraction(3)"],
    )
    def test_powerlaw_tail_draws(self, n, exponent, seeds):
        """Past n = 65 the head ends stop short of the last degree; a draw
        at or past the last end takes the float bisect, and heavy tails
        give such draws.  The sequences are the reference's."""
        *_, ends = generate._powerlaw_table(n, exponent)
        assert len(ends) == 64
        past = 0
        for seed in seeds:
            past += sum(r >= ends[-1] for r in SplitMix64(seed).next_u64s(2 * n))
            assert bd.gen_powerlaw(n, exponent, seed) == reference_powerlaw(
                n, exponent, seed
            ), (n, exponent, seed)
        assert past

    @pytest.mark.parametrize("n", [2, 3, 64, 65, 2000])
    @pytest.mark.parametrize(
        "exponent",
        [math.nextafter(2.0, 3.0), 2.001, 2.5, math.nextafter(2.5, 2.0), 9.999,
         10.0, 1e4, Fraction(3)],
    )
    def test_first_bucket_end_is_exact(self, n, exponent):
        """Every head end R_j, for j up to min(64, n - 1), is the least
        draw whose u, as the reference computes it, reaches cum[j - 1];
        2**64 when no draw does.  Up to n = 65 the head covers every degree
        below n.  Past an exponent of about 1074 every weight but the first
        is 0, so every end is 2**64; Fraction(3) has exact rational
        weights."""
        cum, total, ends = generate._powerlaw_table(n, exponent)
        assert cum == list(accumulate(x ** -exponent for x in range(1, n + 1)))
        assert total == cum[-1]

        def u(r):
            return (r >> 11) * 2.0**-53 * total

        assert len(ends) == min(64, n - 1)
        for end, weight in zip(ends, cum):
            assert 0 < end <= 2**64
            assert u(end - 1) < weight <= u(end)
        assert (set(ends) == {2**64}) is (exponent == 1e4)

    def test_top_up_stops_at_the_last_draw(self):
        """After placing its units, the batched top-up leaves the stream
        where the one-at-a-time loop leaves it."""
        rng = SplitMix64(99)
        for _ in range(200):
            n = rng.randint(1, 12)
            cap = rng.randint(1, 4)
            start = [rng.randbelow(cap + 1) for _ in range(n)]
            amount = rng.randint(0, n * cap - sum(start))
            seed = rng.next_u64()
            batched, sequential = SplitMix64(seed), SplitMix64(seed)
            vec, expected = list(start), list(start)
            generate._top_up(batched, vec, cap, amount)
            while amount:
                i = sequential.randbelow(n)
                if expected[i] < cap:
                    expected[i] += 1
                    amount -= 1
            assert vec == expected
            assert batched.next_u64() == sequential.next_u64()


class TestGenCounterexample1:
    def test_minimal_instance(self):
        seq = bd.gen_counterexample1(2, 4)
        assert seq.in_degrees == (2, 2, 2, 0)
        assert seq.out_degrees == (4, 2, 0, 0)
        assert not bd.check_with_loops(seq).is_graphic

    def test_with_residue(self):
        seq = bd.gen_counterexample1(3, 4, n=5)
        assert seq.in_degrees == (3, 3, 3, 1, 0)
        assert seq.out_degrees == (4, 4, 2, 0, 0)
        assert not bd.check_with_loops(seq).is_graphic

    def test_product_past_bound(self):
        for ma, mb in [(2, 3), (4, 5), (6, 8)]:
            seq = bd.gen_counterexample1(ma, mb)
            st = bd.stats(seq)
            assert st.max_in * st.max_out == st.total + 2

    def test_invalid_parameters(self):
        with pytest.raises(bd.InvalidParameters):
            bd.gen_counterexample1(2, 2)
        with pytest.raises(bd.InvalidParameters):
            bd.gen_counterexample1(1, 4)
        with pytest.raises(bd.InvalidParameters):
            bd.gen_counterexample1(3, 4, n=3)

    def test_sharpness_survives_padding(self):
        """With n = Ma + Mb the instance is still one unit past the frontier."""
        for ma in range(2, 7):
            for mb in range(3, 9):
                n = ma + mb
                seq = bd.gen_counterexample1(ma, mb, n=n)
                st = bd.stats(seq)
                assert st.max_in * st.max_out == st.total + 2
                out = bd.check_with_loops(seq)
                assert not out.is_graphic
                assert out.witness == mb - 1

    def test_residue_placement_is_immaterial(self):
        """Splitting the leftover in-degree mass never restores graphicality."""
        ma, mb = 5, 6
        base = bd.gen_counterexample1(ma, mb, n=12)
        assert not bd.check_with_loops(base).is_graphic
        # residue ma-2 = 3 split into unit entries instead of one slot
        a = [ma] * (mb - 1) + [1, 1, 1]
        a += [0] * (12 - len(a))
        variant = bd.new_sequence(a, base.out_degrees)
        out = bd.check_with_loops(variant)
        assert not out.is_graphic
        assert out.witness == mb - 1


class TestGenExtremal:
    def test_frontier_instance(self):
        seq = bd.gen_extremal(5, 10, 3)
        assert seq.in_degrees == (3, 3, 3, 1, 0)
        assert seq.out_degrees == (3, 3, 3, 1, 0)
        assert bd.check_thm3(seq).is_graphic
        assert bd.check_with_loops(seq).is_graphic

    def test_forced_shape(self):
        seq = bd.gen_extremal(4, 6, 2)
        assert seq.in_degrees == (2, 2, 2, 0)

    def test_past_frontier_infeasible(self):
        # max**2 == total + 2 is adversarial territory, not extremal
        with pytest.raises(bd.Infeasible):
            bd.gen_extremal(4, 7, 3)


class TestGeneratorSpec:
    def test_dispatch(self):
        spec = GeneratorSpec(kind="counterexample1", max_in=2, max_out=4)
        assert generate_sequence(spec) == bd.gen_counterexample1(2, 4)
        spec = GeneratorSpec(kind="uniform", n=6, total=12, min_degree=1,
                             max_degree=4, seed=3)
        assert generate_sequence(spec) == bd.gen_uniform(6, 12, 1, 4, 3)
        spec = GeneratorSpec(kind="powerlaw", n=16, exponent=2.5, seed=1)
        assert generate_sequence(spec) == bd.gen_powerlaw(16, 2.5, 1)
        spec = GeneratorSpec(kind="extremal", n=5, total=10, max_degree=3)
        assert generate_sequence(spec) == bd.gen_extremal(5, 10, 3)

    def test_unknown_kind(self):
        with pytest.raises(bd.InvalidParameters):
            GeneratorSpec(kind="mystery")
        with pytest.raises(bd.InvalidParameters):
            GeneratorSpec(kind="uniform")._replace(kind="mystery")

    def test_missing_parameter(self):
        with pytest.raises(bd.InvalidParameters):
            generate_sequence(GeneratorSpec(kind="uniform", n=4))

    @pytest.mark.parametrize("kind, fields", [
        ("uniform", {"n": 6, "total": 12, "min_degree": 1, "max_degree": 4}),
        ("powerlaw", {"n": 16, "exponent": 2.5}),
        ("counterexample1", {"max_in": 2, "max_out": 4}),
        ("extremal", {"n": 5, "total": 10, "max_degree": 3}),
    ])
    def test_missing_parameters_are_named_in_order(self, kind, fields):
        """Each kind asks for its required fields one at a time, in the
        generator's argument order."""
        present = {}
        for name, value in fields.items():
            with pytest.raises(bd.InvalidParameters) as info:
                generate_sequence(GeneratorSpec(kind=kind, **present))
            assert str(info.value) == f"{kind} generator requires {name}"
            present[name] = value
        generate_sequence(GeneratorSpec(kind=kind, **present))

    def test_optional_fields(self):
        spec = GeneratorSpec(kind="counterexample1", max_in=3, max_out=4, n=7)
        assert generate_sequence(spec) == bd.gen_counterexample1(3, 4, 7)
        # extremal takes no seed, so one changes nothing
        spec = GeneratorSpec(kind="extremal", n=5, total=10, max_degree=3, seed=9)
        assert generate_sequence(spec) == bd.gen_extremal(5, 10, 3)
