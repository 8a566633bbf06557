"""Command-line front-end: check, bound, realize, generate, bench.

Records are one bidegree sequence per line, in either the plain form
``a1,a2,...,an;b1,b2,...,bn`` or a JSON object ``{"in": [...], "out":
[...]}`` — auto-detected from the first non-whitespace byte.  A line ends
at ``\\n``, in a file and on stdin alike: a ``\\r\\n`` ending is fine, and
a bare ``\\r`` is part of its line.  Blank lines are skipped.  Plain entries
are ASCII ``[0-9]+``, so parsing round-trips: printing a parsed record
reproduces the plain form byte for byte.  A plain line is read once:
:func:`bidegree.core.from_entries` counts each side's entry strings in one
C-level pass, looks up only the distinct ones in a table of canonical
decimal text, and validates the record from those counts, which the
exact checks read too; the vectors are decoded only if something reads
them.  ``bench`` rebuilds each record from its vectors,
so what it times is what a library caller's sequence costs.
``check``, ``realize`` and ``bench`` read records from a positional input
(a file, or ``-`` for stdin, the default); every command writes only to
stdout and stderr, the streams ``main`` was given, argparse's help and
usage messages included.

Exit codes for ``check`` and ``realize``: 0 when every record is graphic,
1 when any is not graphic, 2 when any is inconclusive (and none is
non-graphic), 3 on input error.  Every command exits 3 on a usage error
too, after argparse's usage message, so 2 always means inconclusive.
Malformed records report the offending line number and poison the exit
code with 3, but processing continues; so does a line that is not UTF-8
text and a record ``realize`` fails to build (an internal error).  An
input file that cannot be read is an input error too: one ``error: ...``
line on stderr and exit 3, never a traceback.
A well-formed record whose in- and out-degrees sum differently is not an
input error: unequal sums already disprove graphicality, so ``check`` and
``realize`` emit ``NOT_GRAPHIC sum-mismatch`` for it and count it like
any other non-graphic record.  ``bench`` leaves such records out of the
timed set and counts them as ``sum_mismatch=K``; it prints its report,
as text or with ``--format csv`` as the table's rows, only when every
record parsed.

When the reader of stdout goes away (``bidegree realize | head``), the
command stops without a traceback and exits with 141, the code a shell
gives a process ended by SIGPIPE.

``generate`` takes its seed from ``--seed`` only, default 0; no command
reads a seed from the environment.

Each command imports only the modules it runs: the parser adds only the
arguments of the command on the command line, and ``sufficient``,
``generate`` and ``json`` are imported inside the functions that use
them.  So ``realize`` loads ``core``, ``errors``, ``exact`` and
``realize``; ``check``, ``bound`` and ``bench`` add ``sufficient``
(``check --method exact`` does not), and ``generate`` adds ``generate``
only.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from collections import Counter
from contextlib import nullcontext, redirect_stderr, redirect_stdout

from .core import BidegreeSequence, from_entries, new_sequence
from .errors import BidegreeError, SumMismatch
from .exact import (
    INCONCLUSIVE,
    CheckOutcome,
    Verdict,
    check_no_loops,
    check_with_loops,
    violated_indices,
)
from .realize import realize

__all__ = ["main", "entry", "parse_record", "format_record"]

# the characters a plain line may hold once its ends are stripped; only
# a line the table missed is checked against it, to word its error
_PLAIN_CHARS = str.maketrans("", "", "0123456789,;")


class _Decimals(dict):
    """Canonical decimal text -> its int, for the values in ``[0..limit]``.

    Canonical text is ASCII digits with no sign and no leading zero, the
    text ``str()`` gives, so a hit proves a plain entry well-formed.  Each
    value is entered on first sight, and only up to ``limit``, the most
    in-degrees any plain line has held: a larger entry is out of range
    anyway.  So, whatever the input, the table holds no more entries than
    the longest line held in-degrees, plus one; every other key misses
    with ``KeyError``.
    """

    __slots__ = ("limit",)

    def __init__(self):
        self.limit = 0

    def __missing__(self, key):
        # the length test keeps int() off keys past its digit limit
        if len(key) <= len(str(self.limit)) and key.isdecimal():
            value = int(key)
            if value <= self.limit and str(value) == key:
                self[key] = value
                return value
        raise KeyError(key)


_DECIMALS = _Decimals()


def _int_entries(values):
    entries = []
    for x in values:
        if isinstance(x, bool) or not isinstance(x, int):
            raise BidegreeError(f"degree entries must be integers, got {x!r}")
        entries.append(x)
    return entries


def parse_record(line: str) -> BidegreeSequence:
    """Parse one record line (plain or JSON form)."""
    text = line.strip()
    if not text:
        raise BidegreeError("empty record")
    if text.startswith("{"):
        import json

        try:
            obj = json.loads(text)
        except RecursionError:
            raise BidegreeError("JSON record nested too deeply") from None
        if not isinstance(obj, dict) or not all(
            isinstance(obj.get(key), list) for key in ("in", "out")
        ):
            raise BidegreeError('JSON record needs "in" and "out" arrays')
        return new_sequence(_int_entries(obj["in"]), _int_entries(obj["out"]))
    left, sep, right = text.partition(";")
    if not sep:
        raise BidegreeError("plain record needs ';' between in- and out-degrees")
    n = left.count(",") + 1
    table = _DECIMALS
    if n > table.limit:
        table.limit = n
    # every entry a hit: the line is canonical entries in [0..n], with one
    # ';' (a second one stays inside an entry of the right side).  A miss
    # costs only time, as the diagnosis reads a well-formed line too.
    try:
        return from_entries(left.split(","), right.split(","), table.__getitem__)
    except KeyError:
        pass  # diagnosed past the handler, so its error chains to no KeyError
    return _diagnose_plain(text)


def _diagnose_plain(text: str) -> BidegreeSequence:
    """Read a plain line with an entry the table missed, checking its rules
    in this order: ASCII digits, ',' and ';' only; no leading zero; one
    ';'; then the first entry, in line order, that is empty or past
    int()'s digit limit, which keeps int()'s own message.  A line that
    breaks none of them is read with int(): the table missed only an
    entry past its limit, which validation rejects as past ``n``."""
    import re

    stray = text.translate(_PLAIN_CHARS)
    if stray:
        raise BidegreeError(f"plain entries must be ASCII digits, got {stray[0]!r}")
    # an entry with a leading zero, searched for with ',' put before every
    # entry: a pattern that starts with a literal is scanned for in C, one
    # that starts with an alternation is tried at every position (10x slower)
    padded = re.search(",(0[0-9]+)", "," + text.replace(";", ","))
    if padded:
        raise BidegreeError(
            f"plain entries must not have leading zeros, got {padded[1]!r}"
        )
    sides = text.split(";")
    if len(sides) > 2:
        raise BidegreeError("plain record needs exactly one ';'")
    for entry in ",".join(sides).split(","):
        if not entry:
            raise BidegreeError("plain entries must not be empty")
        int(entry)
    left, right = sides
    return new_sequence(map(int, left.split(",")), map(int, right.split(",")))


def format_record(seq: BidegreeSequence) -> str:
    """Plain-form record line for a sequence.  Entries print as ints, so
    a ``bool`` entry prints as 0 or 1 and the line parses back."""
    return (
        ",".join(map(int.__repr__, seq.in_degrees))
        + ";"
        + ",".join(map(int.__repr__, seq.out_degrees))
    )


def _outcome_line(outcome: CheckOutcome, method_label: str) -> str:
    if outcome.verdict is Verdict.GRAPHIC:
        cert = outcome.certificate
        if cert is None:
            return "GRAPHIC exact"
        return cert.condition.line.format_map(cert.parameters)
    if outcome.verdict is Verdict.NOT_GRAPHIC:
        return f"NOT_GRAPHIC exact j={outcome.witness}"
    return f"INCONCLUSIVE {method_label}"


# the exit code a record's verdict asks for; a run exits with the first of
# 3 (input error), 1 and 2 that any record asked for, else 0
_EXIT_CODE = {Verdict.GRAPHIC: 0, Verdict.NOT_GRAPHIC: 1, Verdict.INCONCLUSIVE: 2}


def _exit_code(seen: set) -> int:
    return next((code for code in (3, 1, 2) if code in seen), 0)


def _records(path, stdin, stderr, seen: set):
    """Yield ``(lineno, seq)`` for each non-blank record of ``path`` (``-``
    for stdin); ``seq`` is None for a sum-mismatch record, which adds 1 to
    ``seen``.  A file and stdin are both read as bytes, so in either a line
    ends at ``\\n``.  A malformed record, one that is not UTF-8 among them,
    is reported as ``line N: ...`` and adds 3; the records after it are
    still read.  An input that cannot be opened is reported on one line,
    adds 3 and yields nothing."""
    try:
        with (
            # a text stream without bytes beneath (StringIO) yields str
            nullcontext(getattr(stdin, "buffer", stdin))
            if path == "-"
            else open(path, "rb")
        ) as stream:
            for lineno, line in enumerate(stream, start=1):
                try:
                    if isinstance(line, bytes):
                        line = line.decode()
                    if not line.strip():
                        continue
                    seq = parse_record(line)
                except SumMismatch:
                    seen.add(1)
                    seq = None
                except (BidegreeError, ValueError) as exc:
                    if isinstance(exc, UnicodeDecodeError):
                        exc = "not UTF-8 text"
                    stderr.write(f"line {lineno}: {exc}\n")
                    seen.add(3)
                    continue
                yield lineno, seq
    except OSError as exc:
        stderr.write(f"error: cannot read {path}: {exc.strerror or exc}\n")
        seen.add(3)


_SUM_MISMATCH = "NOT_GRAPHIC sum-mismatch"


def _decider(method: str, loops: bool, fallback_exact: bool = False):
    """The call that decides one record under ``--method``: the policy's
    exact check, the ``auto`` ladder, or one condition's check.  A
    loops-only condition asked a ``--no-loops`` question certifies
    nothing, so its call leaves every record inconclusive."""
    if method == "exact":
        return check_with_loops if loops else check_no_loops
    from .sufficient import Condition, certify

    if method == "auto":
        return lambda seq: certify(seq, loops, fallback_exact)
    cond = Condition(method)
    if loops or cond.certifies_no_loops:
        return cond.check
    return lambda seq: INCONCLUSIVE


def _cmd_check(args, stdin, stdout, stderr) -> int:
    decide = _decider(args.method, args.loops, args.fallback_exact)
    seen: set = set()
    # one write per line: print() writes the line and its end apart, two
    # system calls each on an unbuffered stdout (PYTHONUNBUFFERED)
    for _, seq in _records(args.input, stdin, stderr, seen):
        if seq is None:
            stdout.write(_SUM_MISMATCH + "\n")
            continue
        outcome = decide(seq)
        seen.add(_EXIT_CODE[outcome.verdict])
        stdout.write(_outcome_line(outcome, args.method) + "\n")
    return _exit_code(seen)


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


def _cmd_realize(args, stdin, stdout, stderr) -> int:
    seen: set = set()
    first = True
    for lineno, seq in _records(args.input, stdin, stderr, seen):
        if seq is not None:
            try:
                result = realize(seq, allow_loops=args.loops)
            except RuntimeError as exc:
                stderr.write(f"line {lineno}: {exc}\n")
                seen.add(3)
                continue
        if not first:
            stdout.write("\n")  # blank separator between records
        first = False
        if seq is None:
            stdout.write(_SUM_MISMATCH + "\n")
        elif isinstance(result, CheckOutcome):
            seen.add(_EXIT_CODE[result.verdict])
            stdout.write(f"NOT_GRAPHIC j={result.witness}\n")
        elif args.format == "dense":
            for row in result.row_strings():
                stdout.write(row + "\n")
        else:
            # one write per source: its lines share the "src " prefix
            for src, dsts in enumerate(result.targets):
                if dsts:
                    head = f"{src} "
                    stdout.write(head + f"\n{head}".join(map(str, dsts)) + "\n")
    return _exit_code(seen)


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


def _add_loop_flags(parser):
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--loops",
        dest="loops",
        action="store_true",
        default=True,
        help="allow self-loops (default)",
    )
    group.add_argument(
        "--no-loops",
        dest="loops",
        action="store_false",
        help="require a zero diagonal",
    )


class _MethodChoices:
    """``--method``'s choices: ``exact``, ``auto`` and the condition codes.
    It answers ``exact`` and ``auto`` without importing ``sufficient``, and
    reads ``Condition`` only to list the choices or to look up another
    code, so ``check --method exact`` never loads the certificates."""

    def __contains__(self, method):
        return method in ("exact", "auto") or method in list(self)

    def __iter__(self):
        from .sufficient import Condition

        return iter(["exact", "auto"] + sorted(cond.value for cond in Condition))


def _check_arguments(parser):
    parser.add_argument("input", nargs="?", default="-", help="file or - for stdin")
    _add_loop_flags(parser)
    method = parser.add_argument(
        "--method",
        default="auto",
        help="exact check, one certificate, or the auto ladder",
    )
    # set after add_argument, whose check of the metavar lists the choices
    method.choices = _MethodChoices()
    parser.add_argument(
        "--fallback-exact",
        action="store_true",
        help="with --method auto, settle inconclusive records exactly",
    )


def _bound_arguments(parser):
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--m", type=int, required=True)
    parser.add_argument("--total", type=int, required=True)
    parser.add_argument("--format", choices=["text", "csv"], default="text")


def _realize_arguments(parser):
    parser.add_argument("input", nargs="?", default="-")
    _add_loop_flags(parser)
    parser.add_argument("--format", choices=["dense", "edges"], default="dense")


def _generate_arguments(parser):
    from .generate import GENERATOR_KINDS

    parser.add_argument("--kind", choices=GENERATOR_KINDS, required=True,
                        help="generator family")
    parser.add_argument("--n", type=int, help="node count")
    parser.add_argument("--total", type=int, help="degree sum")
    # dest is GeneratorSpec's field name, metavar the flag's own
    parser.add_argument("--min", dest="min_degree", metavar="MIN", type=int,
                        help="minimum degree (uniform)")
    parser.add_argument("--max", dest="max_degree", metavar="MAX", type=int,
                        help="maximum degree (uniform/extremal)")
    parser.add_argument("--exponent", type=float, help="power-law exponent (> 2)")
    parser.add_argument("--Ma", dest="max_in", metavar="MA", type=int,
                        help="maximum in-degree (counterexample1)")
    parser.add_argument("--Mb", dest="max_out", metavar="MB", type=int,
                        help="maximum out-degree (counterexample1)")
    parser.add_argument("--count", type=int, default=1, help="records to emit")
    parser.add_argument("--seed", type=int, default=0,
                        help="base seed (record i uses seed+i)")


def _bench_arguments(parser):
    parser.add_argument("input", nargs="?", default="-", help="file or - for stdin")
    _add_loop_flags(parser)
    parser.add_argument("--repeat", type=int, default=1, help="timing repetitions")
    parser.add_argument("--format", choices=["text", "csv"], default="text")


# command -> (its help line, the call that adds its arguments, its handler)
_COMMANDS = {
    "check": ("decide graphicality per record", _check_arguments, _cmd_check),
    "bound": ("largest certifiable max degree per condition", _bound_arguments,
              _cmd_bound),
    "realize": ("construct adjacency matrices", _realize_arguments, _cmd_realize),
    "generate": ("emit generated records", _generate_arguments, _cmd_generate),
    "bench": ("coverage and timing over a corpus", _bench_arguments, _cmd_bench),
}


def build_parser(command=None) -> argparse.ArgumentParser:
    """A parser that adds the arguments of ``command`` only, and of no
    command when it is None, so that parsing a command line imports only
    the modules its command runs.  Every command keeps its name and help
    line, so the top-level help and usage errors, which never print a
    command's arguments, are the same."""
    parser = argparse.ArgumentParser(
        prog="bidegree",
        description="Graphicality checks, realization, and generators for "
        "directed bidegree sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_arguments, _) in _COMMANDS.items():
        command_parser = sub.add_parser(name, help=help_line)
        if command == name:
            add_arguments(command_parser)
    return parser


def main(argv=None, stdin=None, stdout=None, stderr=None) -> int:
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    argv = sys.argv[1:] if argv is None else list(argv)
    # the top level takes no option but --help, so a command comes first
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    try:
        # argparse prints help to sys.stdout and usage errors to sys.stderr
        with redirect_stdout(stdout), redirect_stderr(stderr):
            args = build_parser(command).parse_args(argv)
    except SystemExit as exc:
        if exc.code != 2:
            raise  # --help exits 0
        return 3  # a usage error is an input error, not "inconclusive"
    return _COMMANDS[args.command][2](args, stdin, stdout, stderr)


def entry():
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe (e.g. `| head`); point stdout at devnull
        # so the flush at interpreter exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(141)  # 128 + SIGPIPE, as a shell reports a process it ended
    sys.exit(code)


if __name__ == "__main__":
    entry()
