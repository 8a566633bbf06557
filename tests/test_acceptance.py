"""Acceptance suite: one test per release criterion.

Each test prints an ``ACCEPTANCE Cn: PASS/FAIL`` line (visible with
``pytest -s``) and asserts the criterion at its stated tolerance.  All
tolerances are pinned here; nothing is calibrated elsewhere.

C7 asserts the dominance the mean/min bound formulas have: they beat the
product bounds at every grid cell, and beat the equal-vector bound too
except at the five cells where the mean is exactly three times the
minimum.  There the two share a leading term, the unrounded mean/min
bound still reaches the equal-vector one, and the integer prefix count
costs at most a derived 2 units (4 without loops).
"""

import time
from collections import Counter
from itertools import product
from statistics import median

import pytest

import bidegree as bd
from bidegree.exact import Verdict
from bidegree.generate import SplitMix64
from bidegree.sufficient import prepare
from conftest import (
    compositions,
    conjugate_sum_direct,
    equal_sum_pair_multisets,
    equal_sum_vector_pairs,
    random_records,
)


def report(tag, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {tag}: {status} {detail}".rstrip())


# -- C1 ---------------------------------------------------------------------


def _c1_records():
    """(sweep, loops, a, b) for every record C1 decides."""
    for n in range(1, 5):
        for a, b in equal_sum_vector_pairs(n, n):
            yield "n<=4", True, a, b
        for a, b in equal_sum_vector_pairs(n, n - 1):
            yield "n<=4", False, a, b
    # entries up to 5 reach the loop-free rule at j = n (an out-degree n)
    for a, b in equal_sum_pair_multisets(5, 5):
        yield "n=5", True, a, b
        yield "n=5", False, a, b
    for a, b in random_records(20260601, 20_000, 6, 12):
        yield "n=6..12", True, a, b
        yield "n=6..12", False, a, b


def test_c1_oracle_equivalence_exhaustive():
    """Exact checks agree with the max-flow oracle on every record with
    n <= 4, every pair multiset at n = 5 and 20k seeded records at
    n = 6..12, under both loop policies."""
    t0 = time.perf_counter()
    mismatches = []
    checked = Counter()
    for sweep, loops, a, b in _c1_records():
        seq = bd.new_sequence(a, b)
        check = bd.check_with_loops if loops else bd.check_no_loops
        checked[sweep] += 1
        if check(seq).is_graphic != bd.brute_force_exists(seq, loops):
            mismatches.append((loops, a, b))
    elapsed = time.perf_counter() - t0
    ok = not mismatches and elapsed < 60
    counts = ", ".join(f"{sweep}: {count}" for sweep, count in checked.items())
    report("C1 oracle equivalence", ok,
           f"({counts} decisions, {len(mismatches)} disagreements, "
           f"{elapsed:.1f}s)")
    assert not mismatches
    assert elapsed < 60


# -- C2 ---------------------------------------------------------------------


def _c2_corpus(rng):
    """Yield >= 1e5 sequences from all four generator families, n in [1..50]."""
    for _ in range(60_000):
        n = rng.randint(1, 50)
        m = rng.randint(0, min(3, n))
        M = rng.randint(m, n)
        S = rng.randint(n * m, n * M)
        yield bd.gen_uniform(n, S, m, M, seed=rng.next_u64())
    exponents = (2.1, 2.5, 3.0, 5.0)
    for i in range(20_000):
        n = rng.randint(2, 50)
        yield bd.gen_powerlaw(n, exponents[i % 4], seed=rng.next_u64())
    for _ in range(10_000):
        n = rng.randint(1, 50)
        M = rng.randint(0, n)
        S = rng.randint(max(M * M - 1, 0), n * M) if M else 0
        yield bd.gen_extremal(n, S, M)
    for _ in range(10_000):
        ma = rng.randint(2, 6)
        mb = rng.randint(3, 8)
        n = rng.randint(max(ma, mb), min(50, max(ma, mb) + 10))
        yield bd.gen_counterexample1(ma, mb, n)


LOOPS_CHECKS = (bd.check_thm2, bd.check_thm3, bd.check_thm5, bd.check_cor2,
                bd.check_cor5)
NO_LOOPS_CHECKS = (bd.check_thm4, bd.check_thm6, bd.check_cor3)


def test_c2_soundness_fuzz():
    """>= 1e5 seeded sequences: every fired certificate is exact-confirmed."""
    rng = SplitMix64(20260808)
    violations = []
    fired = 0
    total = 0
    for seq in _c2_corpus(rng):
        total += 1
        prep = prepare(seq)
        loops_fired = [c for c in LOOPS_CHECKS if c(seq, prep).is_graphic]
        nl_fired = [c for c in NO_LOOPS_CHECKS if c(seq, prep).is_graphic]
        fired += len(loops_fired) + len(nl_fired)
        if loops_fired and not bd.check_with_loops(seq).is_graphic:
            violations.append((seq, [c.__name__ for c in loops_fired]))
        if nl_fired and not bd.check_no_loops(seq).is_graphic:
            violations.append((seq, [c.__name__ for c in nl_fired]))
    ok = total >= 100_000 and not violations
    report("C2 soundness fuzz", ok,
           f"({total} sequences, {fired} certificates fired, "
           f"{len(violations)} false)")
    assert total >= 100_000
    assert not violations, violations[:3]


# -- C3 ---------------------------------------------------------------------


def test_c3_worked_example():
    """n=10, S=40, m=1, M=6: prefix count 6, mean/min certifies, ZZ fails."""
    degs = (6, 6, 6, 6, 6, 4, 2, 2, 1, 1)
    seq = bd.new_sequence(degs, degs)
    st = bd.stats(seq)
    ok = (st.n, st.total, st.min_degree, st.max_degree) == (10, 40, 1, 6)

    thm5 = bd.check_thm5(seq)
    params = thm5.certificate.parameters if thm5.is_graphic else {}
    k = params.get("k")
    ok &= (k, params.get("Mmax")) == (6, 6)

    thm2 = bd.check_thm2(seq)
    lhs = (1 + 6) ** 2 // 4
    ok &= thm2.verdict is Verdict.INCONCLUSIVE and lhs == 12 and lhs > 10 == 1 * 10

    report("C3 worked example", ok, f"(k={k}, Mmax=6, ZZ lhs={lhs} > 10)")
    assert ok


# -- C4 ---------------------------------------------------------------------


def _boundary_companion(ma, mb, n):
    """The instance one unit inside the product bound (sum = Ma*Mb - 1)."""
    a = [ma] * (mb - 1) + [ma - 1]
    b = [mb] * (ma - 1) + [mb - 1]
    a += [0] * (n - len(a))
    b += [0] * (n - len(b))
    return bd.new_sequence(a, b)


def test_c4_counterexample_sharpness_grid():
    """Generated instances sit exactly one unit past the graphic frontier."""
    failures = []
    for ma, mb in product(range(2, 7), range(3, 9)):
        seq = bd.gen_counterexample1(ma, mb)
        st = bd.stats(seq)
        out = bd.check_with_loops(seq)
        if st.max_in * st.max_out != st.total + 2:
            failures.append((ma, mb, "product"))
        if out.verdict is not Verdict.NOT_GRAPHIC or out.witness != mb - 1:
            failures.append((ma, mb, "witness", out))

        # raising one in-degree (and the matching out-degree unit) by one
        # lands on Ma*Mb = S + 1, which flips the verdict
        comp = _boundary_companion(ma, mb, seq.n)
        cst = bd.stats(comp)
        if cst.max_in * cst.max_out != cst.total + 1:
            failures.append((ma, mb, "companion-product"))
        diffs = [
            y - x
            for x, y in zip(
                sorted(seq.in_degrees), sorted(comp.in_degrees)
            )
            if y != x
        ]
        if diffs != [1]:
            failures.append((ma, mb, "companion-shape", diffs))
        if not bd.check_thm3(comp).is_graphic:
            failures.append((ma, mb, "companion-thm3"))
        if not bd.check_with_loops(comp).is_graphic:
            failures.append((ma, mb, "companion-exact"))
    report("C4 sharpness grid", not failures,
           f"(30 cells, {len(failures)} failures)")
    assert not failures, failures


# -- C5 ---------------------------------------------------------------------


def test_c5_minimizer_dominance_exhaustive():
    """F(j, b*) <= F(j, b) for every vector with n<=6, max<=4, sum<=12."""
    t0 = time.perf_counter()
    violations = 0
    vectors = 0
    for n in range(1, 7):
        for M in range(0, min(4, n) + 1):
            for S in range(0, min(12, n * M) + 1):
                star = bd.minimizer_b_star(n, S, M, 0)
                star_profile = [
                    conjugate_sum_direct(star, j) for j in range(n + 1)
                ]
                for b in compositions(S, n, M):
                    vectors += 1
                    for j in range(n + 1):
                        if star_profile[j] > conjugate_sum_direct(b, j):
                            violations += 1
                            break
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 30
    report("C5 minimizer dominance", ok,
           f"({vectors} vectors, {violations} violations, {elapsed:.1f}s)")
    assert violations == 0
    assert elapsed < 30


# -- C6 ---------------------------------------------------------------------


def test_c6_realization_round_trip():
    """1e4 fuzzed graphic sequences (n <= 200) realize and verify."""
    rng = SplitMix64(606060)
    done = 0
    failures = 0
    while done < 10_000:
        n = rng.randint(1, 200)
        m = rng.randint(0, 1)
        cbar = rng.randint(max(m, 1), max(min(8, n), max(m, 1)))
        lo, hi = max(cbar, m, 1), min(n, 3 * cbar + 2)
        if hi < lo:
            continue
        M = rng.randint(lo, hi)
        S = cbar * n
        if not (n * m <= S <= n * M):
            continue
        seq = bd.gen_uniform(n, S, m, M, seed=rng.next_u64())
        loops = rng.randint(0, 1) == 1
        check = bd.check_with_loops if loops else bd.check_no_loops
        if not check(seq).is_graphic:
            continue
        result = bd.realize(seq, loops)
        done += 1
        if not isinstance(result, bd.AdjacencyRealization):
            failures += 1
            continue
        if not bd.verify_realization(result, seq):
            failures += 1
        if not loops and any(i in result.targets[i] for i in range(seq.n)):
            failures += 1
    report("C6 realization round-trip", failures == 0,
           f"({done} sequences, {failures} failures)")
    assert failures == 0


@pytest.mark.parametrize("loops", [True, False])
def test_c6_realization_at_large_n(loops):
    """n = 10^5 with S = 7n: realize, list the edges and verify, under
    20 s.  Stored as bitmask rows, the edge list alone took about 19 s."""
    seq = bd.gen_uniform(10**5, 7 * 10**5, 1, 10**5, seed=5)
    t0 = time.perf_counter()
    real = bd.realize(seq, loops)
    edges = list(real.edges())
    ok = bd.verify_realization(real, seq)
    elapsed = time.perf_counter() - t0
    report(f"C6 realization at n=1e5 ({'loops' if loops else 'no-loops'})",
           ok and elapsed < 20, f"({len(edges)} edges, {elapsed:.1f}s)")
    assert isinstance(real, bd.AdjacencyRealization)
    assert ok
    assert len(edges) == seq.stats.total
    assert loops or all(src != dst for src, dst in edges)
    assert elapsed < 20


# -- C7 ---------------------------------------------------------------------

C7_GRID = [
    (m, cbar) for m in range(1, 6) for cbar in range(2 * m + 1, 2 * m + 9)
]


def test_c7_bound_dominance_at_large_n():
    """Mean/min bounds dominate the older ones on the whole grid at n=1e6.

    Every cell: ``h5 > max(h3, h4)`` and ``h6 > h4``.  A sequence with
    ``a != b`` and maximum degree ``h5`` is then certified by thm5 and by
    none of thm2 (which needs ``a == b``), thm3 or thm4; likewise thm6
    against thm4 without loops.  This is the paper's "more flexible".

    Cells with mean ``cbar != 3m``: ``h5 >= max(h2, h3, h4)`` and
    ``h6 >= max(h2, h3, h4) - 1``.

    Cells with ``cbar == 3m``: the equal-vector bound ``h2`` and the
    mean/min bound both equal ``2*sqrt(mn) - m`` up to ``O(1/sqrt(n))``.
    With ``T = S - nm`` and ``D = m^2 + S - 2mn``, the thm5 bound before
    rounding, ``T/k0 + m`` at ``k0 = m + sqrt(D)``, reaches ``h2``; in
    integers, ``A = T - (h2 - m)*m >= 0`` and ``(h2 - m)^2 * D <= A^2``.
    The documented ``k = ceil(...)`` then costs at most 2 units, and
    thm6 at most 4:

    - Here ``T = 2mn`` and ``k0^2 > mn + 2m*sqrt(mn)``, so raising ``k``
      from ``k0`` by ``d`` lowers ``T/k`` by ``T*d/(k0*(k0 + d))``, which
      is below ``2d``.
    - thm5: the ceiling gives ``d < 1``, a loss under 2; the floor loses
      under 1 more, so ``h5 > h2 - 3``, i.e. ``h2 - h5 <= 2``.
    - thm6: the offset ``m + 1`` and the ceiling give ``d < 2 + e`` with
      ``e = sqrt(D + 2m + 1) - sqrt(D) < (2m + 1)/(2*sqrt(mn))``, and the
      loss ``T*d/(k0*(k0 + d))`` stays under 4 for such ``d``; with the
      floor, ``h2 - h6 <= 4``.  No rounding of ``k`` removes this: the
      offset alone already puts the unrounded thm6 bound about 2 units
      down.
    """
    n = 10**6
    beats_products = original = tie_within = 0
    failures = []
    for m, cbar in C7_GRID:
        S = n * cbar
        h = bd.bound_table(n, m, S).h
        best = max(h[2], h[3], h[4])
        ok_products = h[5] > max(h[3], h[4]) and h[6] > h[4]
        beats_products += ok_products
        if cbar != 3 * m:
            ok_cell = h[5] >= best and h[6] >= best - 1
            original += ok_cell
        else:
            D = m * m + S - 2 * m * n
            A = S - n * m - (h[2] - m) * m
            ok_cell = (
                A >= 0
                and (h[2] - m) ** 2 * D <= A * A
                and h[2] - h[5] <= 2
                and h[2] - h[6] <= 4
            )
            tie_within += ok_cell
        if not (ok_products and ok_cell):
            failures.append((m, cbar, h[2], h[3], h[4], h[5], h[6]))
    report("C7 bound dominance", not failures,
           f"({len(C7_GRID)} cells: {beats_products} beat thm3/thm4, "
           f"{original} with mean != 3*min beat all three, "
           f"{tie_within} with mean = 3*min within 2/4 of thm2)")
    assert not failures, (
        "mean/min bounds fall short of the stated dominance at these "
        f"(m, mean, h2, h3, h4, h5, h6) cells: {failures}"
    )


def test_c7_characterization_of_actual_frontier():
    """What provably holds at n=1e6: dominance over the product bounds
    everywhere, and at most a 2-unit shortfall against the equal-vector
    bound (4 units for the loop-free variant), occurring only at mean
    exactly three times the minimum."""
    n = 10**6
    shortfall_cells = []
    for m, cbar in C7_GRID:
        h = bd.bound_table(n, m, n * cbar).h
        assert h[5] >= max(h[3], h[4])
        assert h[6] >= max(h[3], h[4]) - 1
        assert h[5] >= h[2] - 2
        assert h[6] >= h[2] - 4
        if h[5] < max(h[2], h[3], h[4]):
            shortfall_cells.append((m, cbar))
    assert shortfall_cells == [(m, 3 * m) for m in range(1, 6)]
    report("C7 characterization", True,
           f"(shortfall only at {shortfall_cells}, bounded by 2)")


# -- C8 ---------------------------------------------------------------------


def _bench_sequence(n):
    """Deterministic mixed-degree sequence: min 1, max 13, mean about 7."""
    a = [1 + (i * 7) % 13 for i in range(n)]
    b = a[::-1]
    return bd.new_sequence(a, b)


def _median_call_ns(fns, reps, inner):
    """Median ns per call of each of ``fns``.

    The functions are timed in turn within every repetition, so a drift
    in the host's speed over the run affects all of them alike.
    """
    samples = [[] for _ in fns]
    for _ in range(reps):
        for fn, out in zip(fns, samples):
            t0 = time.perf_counter_ns()
            for _ in range(inner):
                fn()
            out.append((time.perf_counter_ns() - t0) / inner)
    return [median(out) for out in samples]


def test_c8_constant_time_certificates_vs_linear_exact():
    """Sufficient checks are size-independent; the exact check is not.

    Medians over >= 100 repetitions, timing n=1e3 and n=1e6 alternately;
    sufficient checks read the stats validation found, and cor5 the pair
    profile ``prepare`` built; the exact check runs cold.
    """
    checks = (bd.check_thm2, bd.check_thm3, bd.check_thm4, bd.check_thm5,
              bd.check_thm6, bd.check_cor2, bd.check_cor3, bd.check_cor5)
    cases = []
    for n in (10**3, 10**6):
        seq = _bench_sequence(n)
        cases.append((seq, prepare(seq)))

    kernel_ratios = {}
    for chk in checks:
        small, big = _median_call_ns(
            [lambda chk=chk, seq=seq, prep=prep: chk(seq, prep)
             for seq, prep in cases],
            reps=151, inner=50,
        )
        kernel_ratios[chk.__name__] = (big / small, small, big)
    small_exact, big_exact = _median_call_ns(
        [lambda seq=seq: bd.check_with_loops(seq) for seq, _ in cases],
        reps=101, inner=1,
    )
    exact_ratio = big_exact / small_exact
    worst = max(kernel_ratios, key=kernel_ratios.get)
    ok = exact_ratio >= 100 and all(
        r <= 2.0 for r, _, _ in kernel_ratios.values()
    )
    report("C8 performance", ok,
           f"(exact ratio {exact_ratio:.0f}x, worst kernel "
           f"{worst} {kernel_ratios[worst][0]:.2f}x)")
    assert exact_ratio >= 100, exact_ratio
    for name, (ratio, small, big) in kernel_ratios.items():
        assert ratio <= 2.0, (name, ratio, small, big)


# -- C9 ---------------------------------------------------------------------


def test_c9_heavy_tail_regime():
    """Power-law corpus: heavy-tail certificates are sound, and on some
    sequences fire where the plain mean/min bound cannot."""
    corpus_n = 10**4
    false_certs = 0
    cor5_only = 0
    cor5_fired = 0
    for seed in range(1000):
        seq = bd.gen_powerlaw(corpus_n, 2.5, seed=seed)
        prep = prepare(seq)
        thm5 = bd.check_thm5(seq, prep)
        cor5 = bd.check_cor5(seq, prep)
        if cor5.is_graphic:
            cor5_fired += 1
            if not bd.check_with_loops(seq).is_graphic:
                false_certs += 1
            if not thm5.is_graphic:
                cor5_only += 1
    fraction = cor5_only / 1000
    ok = false_certs == 0 and cor5_only > 0
    report("C9 heavy-tail regime", ok,
           f"(cor5 fired on {cor5_fired}/1000, cor5-not-thm5 fraction "
           f"{fraction:.3f}, false certificates {false_certs})")
    assert false_certs == 0
    assert cor5_only > 0
