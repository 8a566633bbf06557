"""Greedy construction of 0-1 adjacency matrices from bidegree sequences.

The matrix convention is row sums = in-degrees, column sums =
out-degrees: entry ``(i, j) = 1`` means an edge from node ``j`` to node
``i``.  A realization is stored sparse, as one increasing tuple of
targets per source (``targets[j]`` holds every ``i`` with entry
``(i, j) = 1``), so it takes ``O(n + S)`` space for ``S`` edges.

The wiring is the directed laying-off scheme of Kleitman and Wang (1973),
in the form of Erdős, Miklós and Toroczkai (2010): take the sources in
order of decreasing out-degree and connect all out-stubs of each at once
to the targets that are currently largest in (residual in-degree,
residual out-degree), skipping the source itself when loops are
disallowed.  Breaking in-degree ties toward larger residual out-degree
is load-bearing for the loop-free case: for a = b = (1, 1, 1) an index
tie-break strands the last stub, while the out-degree-aware order always
completes the 3-cycle.  Exchange arguments for this family of reductions
guarantee the greedy never fails on a sequence the exact check accepts,
which the construction re-verifies before returning.

Targets wait in one heap ordered by residual in-degree (largest first)
and, within a residual in-degree, by a key: the node's rank in the source
order while it still has out-stubs, ``n + i`` once it has been wired or
if it has none.  A node's residual out-degree changes only once, to 0 on
its own turn, so the key reproduces the (residual out-degree, index)
tie-break exactly.  Re-keying a wired node pushes a fresh entry and
leaves the old one behind; old entries are recognized by a rank below the
current step and dropped when popped.  Each stub costs one pop and one
push, and each source sorts its own short target list, so the wiring
takes ``O(S log n)``.  The margin check, the edge list and the dense
rows all read the target lists, in ``O(n + S)`` plus ``n`` characters per
row for the dense form.
"""

from __future__ import annotations

from collections import namedtuple
from heapq import heapify, heappop, heappush
from itertools import chain, repeat
from operator import contains

from .core import BidegreeSequence
from .errors import DimensionMismatch
from .exact import CheckOutcome, check_no_loops, check_with_loops

__all__ = ["AdjacencyRealization", "realize", "verify_realization"]


class AdjacencyRealization(
    namedtuple("AdjacencyRealization", "n targets loops_allowed")
):
    """A 0-1 adjacency matrix in the caller's node order, kept sparse.

    ``targets[j]`` is the tuple of the nodes that ``j`` has an edge to, so
    entry ``(i, j)`` is 1 exactly when ``i`` is in it; ``realize`` lists
    each in increasing order.  The constructor checks only the shape, an
    int ``n``, one target list per node and every target an int in
    ``[0, n)``: order, repeats, the margins and, when ``loops_allowed`` is
    False, the empty diagonal are ``verify_realization``'s to check.

    A namedtuple: it equals and hashes as ``(n, targets, loops_allowed)``.

    Raises
    ------
    DimensionMismatch
        If ``n`` is not an int, there are not ``n`` target lists, or a
        target is not an int in ``[0, n)``.
    """

    __slots__ = ()

    def __new__(cls, n: int, targets, loops_allowed: bool):
        if not isinstance(n, int):
            raise DimensionMismatch(f"node count {n!r} is not an integer")
        try:
            targets = tuple(map(tuple, targets))
        except TypeError:  # targets, or a target list, is not iterable
            raise DimensionMismatch(f"{targets!r} is not {n} target lists") from None
        if len(targets) != n:
            raise DimensionMismatch(f"{len(targets)} target lists for n={n}")
        # a float, Fraction or Decimal target makes the sum of the targets
        # one too, and a str target makes it fail
        try:
            integral = type(sum(chain.from_iterable(targets))) is int
        except (TypeError, ArithmeticError):
            integral = False
        if not integral:
            for x in chain.from_iterable(targets):
                if not isinstance(x, int):
                    raise DimensionMismatch(f"target {x!r} is not an integer")
        # int targets: min/max over the at most n distinct ones, not all S
        distinct = set(chain.from_iterable(targets))
        low, high = min(distinct, default=0), max(distinct, default=-1)
        if low < 0 or high >= n:
            bad = low if low < 0 else high
            raise DimensionMismatch(f"target {bad} outside [0, {n})")
        return super().__new__(cls, n, targets, loops_allowed)

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make; route it past the shape check too
        return cls(*iterable)

    def row_strings(self):
        """Yield every row as ``row_string`` gives it, built from the
        target lists: ``n`` bytes per row and one byte store per edge."""
        n = self.n
        sources = [[] for _ in range(n)]
        for src, dsts in enumerate(self.targets):
            for dst in dsts:
                sources[dst].append(src)
        blank = b"0" * n
        for srcs in sources:
            row = bytearray(blank)
            for src in srcs:
                row[src] = 49  # "1"
            yield row.decode()

    def row_string(self, i: int) -> str:
        """Row ``i`` as a 0/1 character string, column 0 first: one
        membership test per source, so ``O(n + S)`` for one row.

        Raises
        ------
        IndexError
            If ``i`` is outside ``[0, n)``.
        """
        if not 0 <= i < self.n:
            raise IndexError(f"row {i} outside [0, {self.n})")
        hits = bytes(map(contains, self.targets, repeat(i)))
        return hits.translate(_ZERO_ONE).decode()

    def edges(self):
        """Yield ``(src, dst)`` pairs grouped by source node, in target
        list order: both ascending for a realization ``realize`` built."""
        for src, dsts in enumerate(self.targets):
            for dst in dsts:
                yield (src, dst)


_ZERO_ONE = bytes.maketrans(b"\0\1", b"01")


def realize(
    seq: BidegreeSequence, allow_loops: bool = True
) -> AdjacencyRealization | CheckOutcome:
    """Build an adjacency matrix realizing ``seq``, or report why not.

    Runs the exact check first; a NOT_GRAPHIC outcome (with its witness)
    is returned as a value.  On graphic input the greedy wiring always
    succeeds, and the result is verified against the margins before it is
    returned.
    """
    outcome = check_with_loops(seq) if allow_loops else check_no_loops(seq)
    if not outcome.is_graphic:
        return outcome

    n = seq.n
    out = seq.out_degrees
    resid_in = list(seq.in_degrees)
    # the sort is stable under reverse=True too: ties stay in index order
    sources = sorted(range(n), key=out.__getitem__, reverse=True)
    # heap entry key - r*width: larger residual in-degree r first, then key
    width = 2 * n
    heap = [
        (rank if out[s] else n + s) - resid_in[s] * width
        for rank, s in enumerate(sources)
        if resid_in[s]
    ]
    heapify(heap)
    targets = [()] * n

    for step, s in enumerate(sources):
        need = out[s]
        if need == 0:
            break  # sources are sorted; nothing is left to wire
        chosen = []
        while need:
            if not heap:
                raise RuntimeError(
                    "greedy wiring failed on a sequence the exact check accepts"
                )
            entry = heappop(heap)
            k = entry % width
            if k < step or (k == step and not allow_loops):
                continue  # left behind by re-keying, or the source itself
            chosen.append(entry)
            need -= 1
        dsts = []
        for entry in chosen:
            k = entry % width
            t = sources[k] if k < n else k - n
            dsts.append(t)
            resid_in[t] -= 1
            if resid_in[t]:
                heappush(heap, entry + width)
        dsts.sort()
        targets[s] = tuple(dsts)
        if resid_in[s]:
            heappush(heap, n + s - resid_in[s] * width)  # s is wired: re-key

    # every target is sources[k] or k - n, so inside [0, n): build the
    # namedtuple directly, past the constructor's shape checks
    realization = tuple.__new__(
        AdjacencyRealization, (n, tuple(targets), allow_loops))
    if not verify_realization(realization, seq):
        raise RuntimeError("constructed matrix does not match the margins")
    return realization


def verify_realization(
    real: AdjacencyRealization, seq: BidegreeSequence
) -> bool:
    """Exact margin check in ``O(n + S)``: each source's targets strictly
    increase, number its out-degree and skip the source itself unless
    loops are allowed; each node is a target as often as its in-degree.
    Every target is already inside ``[0, n)``: the constructor checks
    callers' targets, and ``realize`` builds only such targets.

    Raises
    ------
    DimensionMismatch
        If the matrix size differs from the sequence length.
    """
    if real.n != seq.n:
        raise DimensionMismatch(f"matrix n={real.n} vs sequence n={seq.n}")
    targets = real.targets
    if list(map(len, targets)) != list(seq.out_degrees):
        return False
    loops = real.loops_allowed
    for src, dsts in enumerate(targets):
        prev = -1
        for dst in dsts:
            if dst <= prev:
                return False  # repeated or unordered
            prev = dst
        if not loops and src in dsts:
            return False
    in_count = [0] * seq.n
    for dst in chain.from_iterable(targets):
        in_count[dst] += 1
    return in_count == list(seq.in_degrees)
