"""Independent correctness oracle for the benchmark.

Decides graphicality from the dominance inequalities as they are defined
and checks the CLI's output against that decision.  It imports nothing
from ``bidegree``, so a defect in ``bidegree.exact`` cannot hide itself,
and it runs outside every timed region.

With loops (Fulkerson-Ryser): with in-degrees ``a`` sorted descending,
for every ``j`` in ``[1..n]``

    sum_{i<=j} a_i  <=  sum_i min(b_i, j).

Without loops (Fulkerson, with Chen's order): with the pairs ``(a_i,
b_i)`` sorted descending by in-degree, ties by out-degree, for every
``j`` in ``[1..n]``

    sum_{i<=j} a_i  <=  sum_{i<=j} min(b_i, j-1) + sum_{i>j} min(b_i, j).

A record is a pair of tuples ``(a, b)``.  Every ``*_errors`` function
returns the number of records whose output is wrong or missing.
"""

from __future__ import annotations


def _capacity(b):
    """``cap[j] = sum_i min(b_i, j)`` for ``j`` in ``[0..n]``."""
    n = len(b)
    hist = [0] * (n + 1)
    for x in b:
        hist[x] += 1
    cap = [0] * (n + 1)
    below = 0  # entries < j
    for j in range(1, n + 1):
        below += hist[j - 1]
        cap[j] = cap[j - 1] + n - below
    return cap


def _chen_order(a, b):
    return sorted(zip(a, b), reverse=True)


def violated(a, b, loops):
    """Every ``j`` in ``[1..n]`` whose inequality fails (sums must agree)."""
    n = len(a)
    cap = _capacity(b)
    out = []
    demand = 0
    if loops:
        for j, x in enumerate(sorted(a, reverse=True), start=1):
            demand += x
            if demand > cap[j]:
                out.append(j)
        return out
    pairs = _chen_order(a, b)
    # Node i (1-based, in Chen order) loses one unit of capacity at every
    # j in [i..b_i]: there min(b_i, j-1) replaces min(b_i, j).
    lost = [0] * (n + 2)
    for i, (_, y) in enumerate(pairs, start=1):
        if y >= i:
            lost[i] += 1
            lost[y + 1] -= 1
    running = 0
    for j, (x, _) in enumerate(pairs, start=1):
        demand += x
        running += lost[j]
        if demand > cap[j] - running:
            out.append(j)
    return out


def inequality_holds(a, b, loops, j):
    """Evaluate the single inequality ``j`` term by term, in O(n)."""
    if loops:
        lhs = sum(sorted(a, reverse=True)[:j])
        return lhs <= sum(min(y, j) for y in b)
    pairs = _chen_order(a, b)
    lhs = sum(x for x, _ in pairs[:j])
    rhs = sum(min(y, j - 1) for _, y in pairs[:j])
    rhs += sum(min(y, j) for _, y in pairs[j:])
    return lhs <= rhs


class Oracle:
    """Cached verdicts for the records of one corpus."""

    def __init__(self, records):
        self.records = records
        self._graphic = {}

    def graphic(self, idx, loops):
        key = (idx, loops)
        if key not in self._graphic:
            a, b = self.records[idx]
            self._graphic[key] = sum(a) == sum(b) and not violated(a, b, loops)
        return self._graphic[key]

    def not_graphic_line_ok(self, idx, loops, line, prefix):
        """``line`` is ``prefix + "j=W"``, or a sum-mismatch line, and true."""
        a, b = self.records[idx]
        if sum(a) != sum(b):
            return line == "NOT_GRAPHIC sum-mismatch"
        if not line.startswith(prefix + "j=") or self.graphic(idx, loops):
            return False
        try:
            j = int(line[len(prefix) + 2 :])
        except ValueError:
            return False
        return 1 <= j <= len(a) and not inequality_holds(a, b, loops, j)

    def expected_exit(self, indices, loops):
        bad = any(not self.graphic(i, loops) for i in set(indices))
        return 1 if bad else 0


def check_errors(oracle, indices, loops, text, exit_code):
    """Failed records of one ``check --fallback-exact`` or ``--method exact`` run.

    ``indices[k]`` is the corpus index of input line ``k``.  A wrong exit
    code fails every record of the run.
    """
    if exit_code != oracle.expected_exit(indices, loops):
        return len(indices)
    lines = text.splitlines()
    failed = max(0, len(indices) - len(lines))
    for idx, line in zip(indices, lines):
        if line.startswith("GRAPHIC "):
            ok = oracle.graphic(idx, loops)
        else:  # INCONCLUSIVE is always wrong with a fallback
            ok = oracle.not_graphic_line_ok(idx, loops, line, "NOT_GRAPHIC exact ")
        failed += not ok
    if len(lines) > len(indices):
        failed = min(len(indices), failed + 1)
    return failed


def dense_margins(rows):
    """Row sums, column sums and diagonal of 0/1 rows, or None if malformed."""
    n = len(rows)
    if any(len(r) != n or r.strip("01") for r in rows):
        return None
    row_sums = [r.count("1") for r in rows]
    col_sums = [col.count("1") for col in zip(*rows)]
    diagonal = sum(r[i] == "1" for i, r in enumerate(rows))
    return row_sums, col_sums, diagonal


def edge_margins(lines, n):
    """Margins of ``src dst`` lines (edge ``src -> dst`` sits in row ``dst``)."""
    row_sums = [0] * n
    col_sums = [0] * n
    seen = set()
    diagonal = 0
    for line in lines:
        parts = line.split()
        if len(parts) != 2 or not all(p.isdigit() for p in parts):
            return None
        src, dst = int(parts[0]), int(parts[1])
        if src >= n or dst >= n or (src, dst) in seen:
            return None  # out of range, or not a 0-1 matrix
        seen.add((src, dst))
        row_sums[dst] += 1
        col_sums[src] += 1
        diagonal += src == dst
    return row_sums, col_sums, diagonal


def realization_ok(oracle, idx, loops, margins):
    """Margins match the record, with a zero diagonal under ``--no-loops``."""
    if margins is None or not oracle.graphic(idx, loops):
        return False
    a, b = oracle.records[idx]
    row_sums, col_sums, diagonal = margins
    return row_sums == list(a) and col_sums == list(b) and (loops or not diagonal)


def realize_errors(oracle, indices, loops, fmt, text, exit_code):
    """Failed records of one ``realize`` run (``fmt`` is dense or edges).

    Blocks are read in order: a blank separator between records, then one
    ``NOT_GRAPHIC`` line, or ``n`` rows (dense) or ``S`` edge lines.
    """
    if exit_code != oracle.expected_exit(indices, loops):
        return len(indices)
    lines = text.splitlines()
    pos = 0
    failed = 0
    for k, idx in enumerate(indices):
        a, _ = oracle.records[idx]
        if k:
            if pos >= len(lines) or lines[pos]:
                failed += 1
                continue
            pos += 1
        if pos < len(lines) and lines[pos].startswith("NOT_GRAPHIC"):
            failed += not oracle.not_graphic_line_ok(idx, loops, lines[pos], "NOT_GRAPHIC ")
            pos += 1
            continue
        size = len(a) if fmt == "dense" else sum(a)
        block = lines[pos : pos + size]
        pos += size
        if len(block) < size:
            failed += 1
            continue
        margins = dense_margins(block) if fmt == "dense" else edge_margins(block, len(a))
        failed += not realization_ok(oracle, idx, loops, margins)
    if pos < len(lines):
        failed = min(len(indices), failed + 1)
    return failed
