"""Seeded generators for random and adversarial bidegree sequences.

Every generator is deterministic given its parameters and seed.  The
random ones draw from SplitMix64 (Steele, Lea & Flood's published
mix-and-increment generator), pinned here so fuzz corpora are
reproducible across runs and platforms.  Its k-th output depends only on
``seed + k*gamma``, so the generators take their draws in batches
(:meth:`SplitMix64.next_u64s`), computed in one pass of big-integer
arithmetic with one 128-bit lane per draw; a batch equals as many
:meth:`SplitMix64.next_u64` calls, so the stream is the sequential one.
The power-law sampler additionally evaluates its cumulative weights in
IEEE double precision, so its byte-for-byte reproducibility is pinned to
platforms with the same libm rounding (all common ones).  It keeps the
weight table of the last ``(n, exponent)`` it sampled, with its head
ends: for ``j = 1 .. min(64, n - 1)``, ``R_j`` is the least 64-bit draw
``r`` whose ``u = (r >> 11) * 2.0**-53 * W`` reaches the cumulative weight
``cum[j - 1]``.  A draw below the last head end gets its degree from
integer compares alone.  That is the float test's answer: ``r >> 11`` is
below ``2**53``, so it converts exactly, the power-of-two scale is exact,
and one rounded multiply by ``W > 0`` never decreases, so ``u`` is
monotone in ``r`` and ``u < cum[j - 1]`` exactly when ``r < R_j``.
Outputs always satisfy sum(a) == sum(b) by construction.
:func:`gen_extremal` takes :func:`minimizer_b_star`, the conjugate
minimizer, for both vectors.
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from collections import namedtuple
from functools import lru_cache
from itertools import accumulate
from numbers import Real

from .core import BidegreeSequence, new_sequence
from .errors import BadExponent, Infeasible, InvalidParameters

__all__ = [
    "GENERATOR_KINDS",
    "SplitMix64",
    "GeneratorSpec",
    "generate_sequence",
    "gen_uniform",
    "gen_powerlaw",
    "gen_counterexample1",
    "gen_extremal",
    "minimizer_b_star",
]

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# next_u64s computes up to _CHUNK outputs in one integer z: output k
# (from 0) is mix(state + (k+1)*gamma mod 2**64), held in bits
# [128k, 128k + 64) ("lane k").  ONES holds 1 and STEPS (k+1)*gamma
# mod 2**64 in each lane k, so state * ONES + STEPS is below 2**65 a lane
# and carries into nothing; the lane mask (2**64 - 1 a lane) leaves each
# lane's upper 64 bits zero.  Each step of mix acts on all lanes at once,
# exactly as on one 64-bit value:
# - z >> s (s <= 31) moves the low s bits of lane k + 1 into the top s
#   bits of lane k, above its value; the mask clears them;
# - z * c (c < 2**64) makes each lane's product below 2**128, so it fits
#   its own lane and no carry crosses into the next; the mask keeps it
#   mod 2**64.
# Only each lane's low word is read: word 2k of z.to_bytes in
# little-endian order, word 2c - 1 - 2k in big-endian order (c lanes,
# most significant first), so every host reads the same stream.
_CHUNK = 1024
_LANE_WORDS = {"little": slice(0, None, 2), "big": slice(None, None, -2)}
_lanes = None  # (ONES, STEPS, mask) over _CHUNK lanes, built on first use


def _build_lanes():
    global _lanes
    ones = int.from_bytes(b"\1".ljust(16, b"\0") * _CHUNK, "little")
    steps = b"".join(
        (k * _GAMMA & _MASK64).to_bytes(16, "little") for k in range(1, _CHUNK + 1)
    )
    _lanes = ones, int.from_bytes(steps, "little"), ones * _MASK64
    return _lanes


class SplitMix64:
    """SplitMix64 PRNG: 64-bit state, published mixing constants.

    Chosen for its tiny, exactly specified integer algorithm; any
    implementation with the same seed produces the same stream.
    """

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def next_u64s(self, count: int) -> list[int]:
        """The outputs of ``count`` calls to :meth:`next_u64`, leaving the
        state where they would; computed ``_CHUNK`` lanes at a time."""
        ones, steps, mask = _lanes or _build_lanes()
        words = _LANE_WORDS[sys.byteorder]
        out = []
        state = self._state
        while count > 0:
            c = min(count, _CHUNK)
            if c < _CHUNK:
                keep = (1 << 128 * c) - 1
                ones, steps, mask = ones & keep, steps & keep, mask & keep
            z = (state * ones + steps) & mask
            z = ((z ^ z >> 30) & mask) * _MIX1 & mask
            z = ((z ^ z >> 27) & mask) * _MIX2 & mask
            z ^= z >> 31  # only each lane's low word is read: no mask
            out += memoryview(z.to_bytes(16 * c, sys.byteorder)).cast("Q")[words].tolist()
            state = (state + c * _GAMMA) & _MASK64
            count -= c
        self._state = state
        return out

    def randbelow(self, bound: int) -> int:
        """Unbiased uniform integer in [0, bound), by rejection.

        Raises ValueError unless ``0 < bound <= 2**64``; past ``2**64``
        the error comes after one draw.
        """
        if bound <= 0:
            raise ValueError("bound must be positive")
        limit = ((1 << 64) // bound) * bound
        while True:
            r = self.next_u64()
            if r < limit:
                return r % bound
            # only a rejected draw gets here, so an accepted one pays
            # nothing for this test: past 2**64 the limit is 0, and no
            # draw would ever be accepted
            if not limit:
                raise ValueError("bound must be at most 2**64")

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] inclusive."""
        return lo + self.randbelow(hi - lo + 1)

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53


def gen_uniform(
    n: int, total: int, min_degree: int, max_degree: int, seed: int
) -> BidegreeSequence:
    """Random sequence with the given sum and entry bounds.

    Both vectors start at the minimum everywhere and receive unit
    increments at uniformly random slots below the maximum until the sum
    is reached; the realized min may exceed ``min_degree`` and the
    realized max may fall below ``max_degree``.

    Raises
    ------
    Infeasible
        Unless ``0 <= min <= max <= n`` and ``n*min <= total <= n*max``.
    """
    m, M = min_degree, max_degree
    _require_feasible(n, total, m, M)
    rng = SplitMix64(seed)
    a, b = [m] * n, [m] * n
    _top_up(rng, a, M, total - n * m)
    _top_up(rng, b, M, total - n * m)
    return new_sequence(a, b)


def gen_powerlaw(n: int, exponent: float, seed: int) -> BidegreeSequence:
    """Heavy-tailed sequence: degrees i.i.d. with P(d = x) ~ x**-exponent.

    Degrees are drawn on [1..n] by inverse transform on the truncated
    discrete distribution, independently for both vectors; the
    smaller-sum vector is then topped up by unit increments at uniformly
    random slots (capped at n) until the sums match.

    An integral ``Fraction`` exponent, such as ``Fraction(3)``, gives
    exact rational weights, whose denominators grow with n: building its
    table costs about four times as much per doubling of n (0.31 s at
    n = 8000, 4.47 s at 32000, against a few ms for a float).  The CLI
    always passes a float.

    Raises
    ------
    BadExponent
        Unless ``exponent`` is a real number (an int, a float or a
        ``Fraction``, not a ``Decimal``) and ``exponent > 2`` (the mean
        must be finite); NaN fails too.
    InvalidParameters
        If ``n < 2``.
    """
    if not isinstance(exponent, Real):
        raise BadExponent(f"exponent must be a real number, got {exponent!r}")
    if not exponent > 2:
        raise BadExponent(f"exponent must exceed 2, got {exponent}")
    if n < 2:
        raise InvalidParameters("power-law generation needs n >= 2")
    cum, total_weight, ends = _powerlaw_table(n, exponent)
    # u is random() * total_weight, as the sequential sampler computed it,
    # and the degree is min(bisect_right(cum, u) + 1, n), as cum never
    # decreases.  Since u < cum[j - 1] exactly when r < R_j, below the last
    # head end that count is the count of the ends at or below r, and only
    # a draw past the head (0.10% at exponent 2.5) computes u.  Most draws
    # are degree 1 (P(d = 1) is 1/zeta(exponent), 0.75 at 2.5), so r < R_1
    # is tested first.
    first, last, head = ends[0], ends[-1], len(ends)
    rng = SplitMix64(seed)
    degrees = [
        1
        if r < first
        else bisect_right(ends, r, 1) + 1
        if r < last
        else bisect_right(cum, (r >> 11) * 2.0**-53 * total_weight, head, n - 1) + 1
        for r in rng.next_u64s(2 * n)
    ]
    a, b = degrees[:n], degrees[n:]
    excess = sum(a) - sum(b)
    _top_up(rng, b if excess > 0 else a, n, abs(excess))
    return new_sequence(a, b)


# how many degrees, from 1, _powerlaw_table keeps a bucket end for
_HEAD = 64


@lru_cache(maxsize=1, typed=True)
def _powerlaw_table(n: int, exponent: float) -> tuple:
    """The cumulative weights of ``x**-exponent`` on ``[1..n]``, their
    total ``W`` and the head ends, kept for the last ``(n, exponent)``
    asked for.  The head ends are ``R_1 .. R_h`` with
    ``h = min(64, n - 1)``: ``R_j`` is the least 64-bit draw ``r`` whose
    ``u = (r >> 11) * 2.0**-53 * W`` reaches ``cum[j - 1]`` (``2**64`` if
    none does).  The cache is typed, since an equal exponent of another
    type can give other weights (``Fraction(3)`` exact ones).  The kept
    weights cost about 32 bytes a node, and the 64 ends about 3 KB, until
    a call at another ``(n, exponent)`` or
    ``_powerlaw_table.cache_clear()``."""
    cum = list(accumulate(x ** -exponent for x in range(1, n + 1)))
    total = cum[-1]

    def reaches(k, weight):
        return k * 2.0**-53 * total >= weight

    ends = []
    for weight in cum[: min(_HEAD, n - 1)]:
        # u never decreases in k = r >> 11 (module docstring), so step from
        # the rounded quotient, a few steps off, to the least k that passes.
        # No weight exceeds the total, so k starts at most at 2**53, where
        # u is the total and the test passes.
        k = int(weight / total * 2**53)
        while k and reaches(k - 1, weight):
            k -= 1
        while not reaches(k, weight):
            k += 1
        ends.append(k << 11)
    return cum, total, ends


def _top_up(rng: SplitMix64, vec: list, cap: int, amount: int) -> None:
    """Add 1 at ``randbelow(len(vec))`` slots below ``cap`` until
    ``amount`` units are placed, drawing as the one-at-a-time loop did.

    Each unit takes at least one draw, so a batch of ``amount`` draws
    never goes past the last draw that loop would make.
    """
    n = len(vec)
    while amount:
        limit = (1 << 64) // n * n  # randbelow's rejection bound
        for i in [r % n for r in rng.next_u64s(amount) if r < limit]:
            if vec[i] < cap:
                vec[i] += 1
                amount -= 1


def gen_counterexample1(
    max_in: int, max_out: int, n: int | None = None
) -> BidegreeSequence:
    """Adversarial sequence sitting just past the max-product bound.

    With ``Ma = max_in`` and ``Mb = max_out``, the output has degree sum
    ``S = Ma*Mb - 2`` (so ``Ma*Mb = S + 2``), out-degrees ``Mb`` repeated
    ``Ma - 1`` times then ``Mb - 2``, and in-degrees ``Ma`` repeated
    ``Mb - 1`` times with the leftover mass (``Ma - 2``, when positive)
    in one extra entry.  It is never graphic with loops: the first
    ``Mb - 1`` in-degrees demand one more unit than the out-degrees can
    supply.  ``n`` defaults to the minimal feasible ``max(Ma, Mb)``.

    Raises
    ------
    InvalidParameters
        Unless ``Ma >= 2``, ``Mb > 2``, and ``n >= max(Ma, Mb)``.
    """
    if max_in < 2 or max_out <= 2:
        raise InvalidParameters(
            f"need max_in >= 2 and max_out > 2, got {max_in}, {max_out}"
        )
    n_min = max(max_in, max_out)
    if n is None:
        n = n_min
    if n < n_min:
        raise InvalidParameters(f"n={n} too small; need at least {n_min}")
    a = [max_in] * (max_out - 1)
    if max_in > 2:
        a.append(max_in - 2)
    b = [max_out] * (max_in - 1) + [max_out - 2]
    a += [0] * (n - len(a))
    b += [0] * (n - len(b))
    return new_sequence(a, b)


def _require_feasible(n: int, S: int, m: int, M: int) -> None:
    """Raise Infeasible unless ``0 <= m <= M <= n`` and ``n*m <= S <= n*M``."""
    if not (0 <= m <= M <= n) or not (n * m <= S <= n * M):
        raise Infeasible(
            f"no vector over n={n} slots with min={m} max={M} sum={S}"
        )


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
    _require_feasible(n, S, m, M)
    if S == n * M:  # so too when M == m, as then S == n*m
        return (M,) * n
    k = (S - n * m) // (M - m)  # below n, as S < n*M
    r = S - k * M - (n - k - 1) * m
    return (M,) * k + (r,) + (m,) * (n - k - 1)


def gen_extremal(n: int, total: int, max_degree: int) -> BidegreeSequence:
    """Tight-frontier graphic sequence for the max-product bound.

    Both vectors take the conjugate-minimizing shape (leading entries at
    the maximum, one remainder, zeros): the hardest sum profile that the
    product condition ``M*M <= S + 1`` still certifies.

    Raises
    ------
    Infeasible
        Unless ``max_degree <= n``, ``total <= n*max_degree`` and
        ``max_degree**2 <= total + 1``.
    """
    if max_degree * max_degree > total + 1:
        raise Infeasible(
            f"max={max_degree} exceeds the certifiable frontier for sum={total}"
        )
    vec = minimizer_b_star(n, total, max_degree, 0)
    return new_sequence(vec, vec)


# kind -> (its generator, the spec fields it requires, the ones it may
# take), passed to it in that order
_GENERATORS = {
    "uniform": (gen_uniform, ("n", "total", "min_degree", "max_degree"), ("seed",)),
    "powerlaw": (gen_powerlaw, ("n", "exponent"), ("seed",)),
    "counterexample1": (gen_counterexample1, ("max_in", "max_out"), ("n",)),
    "extremal": (gen_extremal, ("n", "total", "max_degree"), ()),
}

# what GeneratorSpec.kind may name, and ``generate --kind``'s choices
GENERATOR_KINDS = tuple(_GENERATORS)


class GeneratorSpec(
    namedtuple(
        "GeneratorSpec",
        "kind n seed total min_degree max_degree exponent max_in max_out",
        defaults=(None, 0, None, None, None, None, None, None),
    )
):
    """Declarative description of one generator invocation.

    ``kind`` is one of :data:`GENERATOR_KINDS`; every other field
    defaults to None, except ``seed``, which defaults to 0.
    """

    __slots__ = ()

    def __new__(cls, kind, *args, **kwargs):
        if kind not in GENERATOR_KINDS:
            raise InvalidParameters(f"unknown generator kind {kind!r}")
        return super().__new__(cls, kind, *args, **kwargs)

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make; route it past the kind check too
        return cls(*iterable)


def generate_sequence(spec: GeneratorSpec) -> BidegreeSequence:
    """Run the generator a :class:`GeneratorSpec` describes."""
    generator, required, optional = _GENERATORS[spec.kind]
    for name in required:
        if getattr(spec, name) is None:
            raise InvalidParameters(f"{spec.kind} generator requires {name}")
    return generator(*(getattr(spec, name) for name in required + optional))
