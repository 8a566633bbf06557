"""The ``bound``, ``generate`` and ``bench`` commands of :mod:`bidegree.cli`.

``cli`` imports this module only when the command on the command line is
one of these three, so a ``check`` or ``realize`` process never compiles
their code.  ``cli``'s command table declares their arguments, and
:data:`HANDLERS` maps each name to its handler.
"""

from __future__ import annotations

import time
from collections import Counter

from .cli import _decider, _records, format_record
from .core import new_sequence
from .errors import BidegreeError
from .exact import Verdict, violated_indices


def _cmd_bound(args, stdin, stdout, stderr) -> int:
    from .sufficient import bound_table

    try:
        table = bound_table(args.n, args.m, args.total)
    except BidegreeError as exc:
        stderr.write(f"error: {exc}\n")
        return 3
    cells = {j: table.h.get(j, "n/a") for j in range(2, 7)}
    if args.format == "csv":
        stdout.write("J,H\n")
        for j in range(2, 7):
            stdout.write(f"{j},{cells[j]}\n")
    else:
        stdout.write(" ".join(f"H{j}={cells[j]}" for j in range(2, 7)) + "\n")
        best = max(table.h.values())
        winners = " ".join(f"H{j}" for j in sorted(table.h) if table.h[j] == best)
        stdout.write(f"largest: {winners}\n")
    return 0


def _cmd_generate(args, stdin, stdout, stderr) -> int:
    from .generate import GeneratorSpec, generate_sequence

    if args.count < 0:
        stderr.write(f"error: --count must be at least 0, got {args.count}\n")
        return 3
    try:
        # the generator flags are parsed under GeneratorSpec's field names
        spec = GeneratorSpec(
            **{name: getattr(args, name) for name in GeneratorSpec._fields}
        )
        for i in range(args.count):
            seq = generate_sequence(spec._replace(seed=spec.seed + i))
            stdout.write(format_record(seq) + "\n")
    except BidegreeError as exc:
        stderr.write(f"error: {exc}\n")
        return 3
    return 0


def _median_p99(samples) -> tuple[int, int]:
    """The median, as the truncated mean of the middle two samples, and
    the nearest-rank p99."""
    ordered = sorted(samples)
    size = len(ordered)
    median = (ordered[(size - 1) // 2] + ordered[size // 2]) // 2
    return median, ordered[max(0, -(-99 * size // 100) - 1)]  # ceil(.99 size)


_BENCH_COLUMNS = (
    "check certified inconclusive not_graphic coverage median_ns p99_ns".split()
)


def _cmd_bench(args, stdin, stdout, stderr) -> int:
    if args.repeat < 1:
        stderr.write(f"error: --repeat must be at least 1, got {args.repeat}\n")
        return 3
    seen: set = set()
    # each record as a sequence built from its vectors, as a library caller
    # builds one: the exact row counts its own degrees, no later row reads
    # vectors an earlier row decoded, and no record keeps its entry strings
    seqs = [
        None if seq is None else new_sequence(seq.in_degrees, seq.out_degrees)
        for _, seq in _records(args.input, stdin, stderr, seen)
    ]
    if 3 in seen:
        return 3
    mismatched = seqs.count(None)
    seqs = [seq for seq in seqs if seq is not None]
    if not seqs:
        # a CSV reader gets the header and no rows
        empty = ",".join(_BENCH_COLUMNS) if args.format == "csv" else "empty corpus"
        stdout.write(empty + "\n")
        return 0
    table, not_graphic = _bench_table(seqs, args.loops, args.repeat)
    if args.format == "csv":
        for row in table:
            stdout.write(",".join(map(str, row)) + "\n")
        return 0

    stdout.write(
        f"records={len(seqs)} sum_mismatch={mismatched} repeat={args.repeat} "
        f"policy={'loops' if args.loops else 'no-loops'}\n"
    )
    widths = [12, 9, 12, 11, 8, 10, 10]
    for row in table:
        stdout.write(" ".join(str(c).ljust(w) for c, w in zip(row, widths)) + "\n")
    if not_graphic:
        witness_hist = Counter(
            j for seq in not_graphic for j in violated_indices(seq, args.loops)
        )
        top = sorted(witness_hist.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
        summary = " ".join(f"j={j}:{c}" for j, c in top)
        stdout.write(f"violated indices over non-graphic records: {summary}\n")
    return 0


def _bench_table(seqs, loops: bool, repeat: int) -> tuple[list, list]:
    """Time, on each record, every check the policy allows and the exact
    check, each as ``check --method`` calls it; return the report, header
    first, and the records the exact check found not graphic."""
    from .sufficient import Condition

    labels = [
        cond.value for cond in Condition if loops or cond.certifies_no_loops
    ] + ["exact"]
    rows = [(label, _decider(label, loops), []) for label in labels]
    certified = Counter()
    not_graphic = []  # only the exact check finds a record not graphic

    clock = time.perf_counter_ns
    for seq in seqs:
        for rep in range(repeat):
            for label, call, samples in rows:
                t0 = clock()
                outcome = call(seq)
                samples.append(clock() - t0)
                if rep == 0 and outcome.verdict is Verdict.GRAPHIC:
                    certified[label] += 1
                elif rep == 0 and outcome.verdict is Verdict.NOT_GRAPHIC:
                    not_graphic.append(seq)

    # a check leaves each record it does not certify inconclusive, the
    # exact check finds it not graphic
    records, graphic = len(seqs), certified["exact"]
    table = [_BENCH_COLUMNS]
    for label, _, samples in rows:
        missed = records - certified[label]
        counts = (0, missed) if label == "exact" else (missed, 0)
        coverage = f"{certified[label] / graphic:.4f}" if graphic else "n/a"
        table.append(
            (label, certified[label], *counts, coverage, *_median_p99(samples))
        )
    return table, not_graphic


# command -> its handler, as cli calls it
HANDLERS = {"bound": _cmd_bound, "generate": _cmd_generate, "bench": _cmd_bench}
