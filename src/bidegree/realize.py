"""Greedy construction of 0-1 adjacency matrices from bidegree sequences.

The matrix convention is row sums = in-degrees, column sums =
out-degrees: entry ``(i, j) = 1`` means an edge from node ``j`` to node
``i``.  Rows are stored as bitmasks (bit ``j`` of row ``i`` is entry
``(i, j)``).

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
push, so the wiring takes ``O(S log n)`` for ``S`` edges.  Setting a bit
rebuilds the whole ``n``-bit row (about ``n / 30`` CPython digits), and
at large ``n`` that ``O(S n)`` term of the bitmask rows dominates.
"""

from __future__ import annotations

from collections import namedtuple
from heapq import heapify, heappop, heappush

from .core import BidegreeSequence
from .errors import DimensionMismatch
from .exact import CheckOutcome, check_no_loops, check_with_loops

__all__ = ["AdjacencyRealization", "realize", "verify_realization"]


class AdjacencyRealization(
    namedtuple("AdjacencyRealization", "n rows loops_allowed")
):
    """A 0-1 adjacency matrix in the caller's node order.

    ``rows[i]`` is a bitmask: bit ``j`` set means an edge ``j -> i``.
    The diagonal is all zero whenever ``loops_allowed`` is False.
    """

    __slots__ = ()

    def entry(self, i: int, j: int) -> int:
        return (self.rows[i] >> j) & 1

    def row_string(self, i: int) -> str:
        """Row ``i`` as a 0/1 character string, column 0 first."""
        # the last n binary digits, reversed; bits past column n-1 drop out
        return format(self.rows[i], f"0{self.n}b")[: -self.n - 1 : -1]

    def edges(self):
        """Yield ``(src, dst)`` pairs grouped by source node, both ascending."""
        targets = [[] for _ in range(self.n)]
        for dst in range(self.n):
            bits = self.row_string(dst)
            src = bits.find("1")
            while src >= 0:
                targets[src].append(dst)
                src = bits.find("1", src + 1)
        for src, dsts in enumerate(targets):
            for dst in dsts:
                yield (src, dst)


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
    sources = sorted(range(n), key=lambda i: (-out[i], i))
    # heap entry key - r*width: larger residual in-degree r first, then key
    width = 2 * n
    heap = [
        (rank if out[s] else n + s) - resid_in[s] * width
        for rank, s in enumerate(sources)
        if resid_in[s]
    ]
    heapify(heap)
    rows = [0] * n

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
        bit = 1 << s
        for entry in chosen:
            k = entry % width
            t = sources[k] if k < n else k - n
            rows[t] |= bit
            resid_in[t] -= 1
            if resid_in[t]:
                heappush(heap, entry + width)
        if resid_in[s]:
            heappush(heap, n + s - resid_in[s] * width)  # s is wired: re-key

    realization = AdjacencyRealization(n, tuple(rows), allow_loops)
    if not verify_realization(realization, seq):
        raise RuntimeError("constructed matrix does not match the margins")
    return realization


def verify_realization(
    real: AdjacencyRealization, seq: BidegreeSequence
) -> bool:
    """Bit-exact margin check: row sums, column sums, diagonal policy.

    Raises
    ------
    DimensionMismatch
        If the matrix size differs from the sequence length.
    """
    if real.n != seq.n:
        raise DimensionMismatch(f"matrix n={real.n} vs sequence n={seq.n}")
    n = seq.n
    col_sums = [0] * n
    for i, row in enumerate(real.rows):
        if row >> n:
            return False  # stray bits beyond column n-1
        if row.bit_count() != seq.in_degrees[i]:
            return False
        if not real.loops_allowed and row >> i & 1:
            return False
        while row:
            low = row & -row
            col_sums[low.bit_length() - 1] += 1
            row ^= low
    return col_sums == list(seq.out_degrees)
