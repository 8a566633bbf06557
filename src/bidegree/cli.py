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
them.  :func:`format_record` writes the other way through a table of
``str(i)`` for ``i`` up to the largest maximum degree it has formatted,
so the table is never longer than the largest record it wrote.
``bench`` rebuilds each record from its vectors,
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
input file that cannot be read, or a closed stdin, is an input error too:
one ``error: ...`` line on stderr and exit 3, never a traceback.  So is a
closed stdout, for every command, before any input is read: ``error:
cannot write -: ...``.  A closed stderr, or one whose fd is not open for
writing, drops the messages; the exit codes stay as they are.
A well-formed record whose in- and out-degrees sum differently is not an
input error: unequal sums already disprove graphicality, so ``check`` and
``realize`` emit ``NOT_GRAPHIC sum-mismatch`` for it and count it like
any other non-graphic record.  ``bench`` leaves such records out of the
timed set and counts them as ``sum_mismatch=K``; it prints its report,
as text or with ``--format csv`` as the table's rows, only when every
record parsed.

When the reader of stdout or stderr goes away (``bidegree realize |
head``, or ``2>&1 | head``), the command stops without a traceback and
exits with 141, the code a shell gives a process ended by SIGPIPE.
Run as a program, :func:`entry` ends the process as soon as its output is
flushed: its ``atexit`` callbacks still run, but the interpreter's
teardown, which frees every object and module, is skipped, unless a
profiler or tracer is attached, which reports at that teardown.
:func:`main` itself returns the exit code and ends nothing.

``generate`` takes its seed from ``--seed`` only, default 0; no command
reads a seed from the environment.

One table, ``_COMMANDS``, declares each command once, for argparse and
for :func:`main`, which reads a command line itself when it is spelled
exactly: each option a whole token of the command's row, given at most
once, and not both loop flags; a valued one followed by a token that does
not start with ``-``, that its type reads and that is one of its choices;
every required option given; and at most one other token, the input
(``-`` or a token that does not start with ``-``) of a command that takes
one.  The handler gets the attributes argparse would give it.  Every
other command line goes to argparse, which alone prints help, usage and
errors: ``-h``, an abbreviation such as ``--meth``, an ``--option=value``
form, a repeated option, ``--``, a value such as ``-5``, an unknown
option or choice.  argparse, which loads ``gettext`` and ``locale``, is
imported only to build a parser, so a command line spelled exactly never
loads it.

Each command compiles and imports only the code it runs.  ``check`` and
``realize`` run from this module, ``bound``, ``generate`` and ``bench``
from :mod:`bidegree.cli_extra`, which only they import.  ``realize``,
``sufficient``, ``generate`` and ``json`` are imported inside the
functions that use them; ``--method``'s and ``--kind``'s choices load
theirs only to list them or to meet a value other than ``exact`` or
``auto``.  So every command loads ``core``, ``errors`` and ``exact``;
``realize`` adds ``realize``, and only it; ``check`` adds
``sufficient`` (``check --method exact`` does not); ``bound`` adds
``cli_extra`` and ``sufficient``, ``generate`` adds ``cli_extra`` and
``generate``, and ``bench`` adds ``cli_extra``, and ``sufficient`` once
it has a record to time.

``check`` given a regular file of at least two shares of 512 KiB
decides it in as many processes as there are CPUs it may run on
(``os.sched_getaffinity``), at most one a share.  It cuts the file into
waves of at most 4 MiB, and each wave into contiguous byte ranges of
about equal size, one a process, each ending at a ``\n``; so a wave has
at most 8 processes.  The parent counts the line ends before each range
once, in 64 KiB blocks, to number its lines.  In each wave it forks a
worker for every range but the first and decides the first itself.  A
worker reads only its range.  It sends its output text, its messages and
its exit codes back through a pipe, and the parent writes them in file
order, each message after the text written before it, so stdout bytes,
stderr bytes and the exit code do not depend on the split, nor, on a
line-buffered or unbuffered stdout, how the two streams interleave.
Workers hold their ranges' output until then, so the processes hold at
most the output of one wave's 4 MiB of input.  A worker that fails, or a
fork that fails, leaves its range to the parent, which kills and reaps
every worker before it returns, also when it raises (a closed stdout, an
interrupt).  A CPU quota below the affinity is not read, and the split
was measured only with 2 CPUs.  Everything else runs in one process:
stdin, a pipe, FIFO or device, a smaller file, a run a profiler or
tracer observes, a process with a second thread, a platform without
``os.fork`` or ``os.sched_getaffinity``, and the other commands.
``realize`` writes each matrix as it is built, which a worker would have
to hold whole, and ``bench`` times records, which parallel processes
would slow one another down for.

``realize`` writes a record, with the blank line before it, in blocks of
whole lines of at most 64 KiB (a longer line alone), and ends it before
it reads the next; ``check`` writes a worker's lines in such blocks too,
and the other lines of every command at once.  On an unbuffered stdout
(``PYTHONUNBUFFERED``) each write is a system call.
``--format edges`` formats no edge on its own: a source's lines are its
cached head ``"src "`` joined before each target's cached line ``"dst\\n"``.
The two tables of these texts hold every id below the largest ``n``
written as edges, about 120 bytes an id (0.25 MB at n = 2000): the order
of one realized record's target lists.
"""

from __future__ import annotations

import atexit
import errno
import io
import marshal
import os
import stat
import sys
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from functools import partial
from itertools import chain, islice
from operator import itemgetter
from types import SimpleNamespace

from .core import BidegreeSequence, from_entries, new_sequence
from .errors import BidegreeError, SumMismatch
from .exact import (
    INCONCLUSIVE,
    CheckOutcome,
    Verdict,
    check_no_loops,
    check_with_loops,
)

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


# str(i) at index i, for i up to the largest max degree format_record has
# seen, so never longer than the largest record it formatted; grown by
# rebinding a new list, so a thread never reads a half-built one
_TEXTS = ["0"]


def format_record(seq: BidegreeSequence) -> str:
    """Plain-form record line for a sequence.  Entries print as ints, so
    a ``bool`` entry prints as 0 or 1 and the line parses back.  Each
    side's texts come from one ``itemgetter`` call on the table."""
    global _TEXTS
    texts = _TEXTS
    size = seq.stats.max_degree + 1
    if len(texts) < size:
        texts = _TEXTS = texts + list(map(str, range(len(texts), size)))
    # itemgetter of one key returns the text itself, not a tuple, and join
    # reads it char by char; a one-node record's entries are 0 or 1, one
    # character each, so the join gives the text back
    return ",".join(itemgetter(*seq.in_degrees)(texts)) + ";" + ",".join(
        itemgetter(*seq.out_degrees)(texts)
    )


# ("i " at index i, "i\n" at index i), for i below the largest n realize
# has written as edges; one tuple, so a rebinding grows both at once
_EDGE_TEXTS = ([], [])


def _edge_texts(n: int):
    """The (heads, lines) tables, grown to at least ``n`` entries."""
    global _EDGE_TEXTS
    heads, lines = _EDGE_TEXTS
    if len(lines) < n:
        # every new id formatted by one C-level %, then split both ways
        text = "%d\n" * (n - len(lines)) % tuple(range(len(lines), n))
        heads, lines = _EDGE_TEXTS = (
            heads + text.replace("\n", " \n").splitlines(),
            lines + text.splitlines(True))
    return heads, lines


# bound once: a class attribute lookup per record costs more than a global
_GRAPHIC, _NOT_GRAPHIC = Verdict.GRAPHIC, Verdict.NOT_GRAPHIC


def _outcome_line(outcome: CheckOutcome, method_label: str) -> str:
    verdict = outcome.verdict
    if verdict is _GRAPHIC:
        cert = outcome.certificate
        if cert is None:
            return "GRAPHIC exact"
        return cert.condition.line.format_map(cert.parameters)
    if verdict is _NOT_GRAPHIC:
        return f"NOT_GRAPHIC exact j={outcome.witness}"
    return f"INCONCLUSIVE {method_label}"


def _exit_code(seen: set) -> int:
    """The exit code of a run whose records asked for the codes in ``seen``:
    3 for an input error, 1 for a record not graphic, 2 for one left
    inconclusive; the first of 3, 1 and 2 that is there, else 0."""
    return next((code for code in (3, 1, 2) if code in seen), 0)


def _numbered(stream, start, stop, lineno):
    """``(lineno, line)`` for each line of the binary file ``stream`` that
    starts in bytes ``[start, stop)``, or from ``start`` to the end when
    ``stop`` is None, numbered from ``lineno``, the number of the line at
    ``start``; ``start`` is 0 or just after a ``\\n``.  Only those bytes
    are read."""
    stream.seek(start)
    if stop is None:
        yield from enumerate(stream, lineno)
        return
    for lineno, line in enumerate(stream, lineno):
        yield lineno, line
        start += len(line)
        if start >= stop:
            return


def _records(path, stdin, stderr, seen: set, share=None):
    """Yield ``(lineno, seq)`` for each non-blank record of ``path`` (``-``
    for stdin), or, given a ``share`` ``(start, stop, lineno)`` of a file,
    of its lines in those bytes (see :func:`_numbered`); ``seq`` is None for a
    sum-mismatch record, which adds 1 to ``seen``.  A file and stdin are
    both read as bytes, so in either a line ends at ``\\n``.  A malformed
    record, one that is not UTF-8 among them, is reported as ``line N:
    ...`` and adds 3; the records after it are still read.  An input that
    cannot be opened is reported on one line, adds 3 and yields nothing, as
    does a closed stdin (``None``)."""
    try:
        if path == "-" and stdin is None:
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        with (
            # a text stream without bytes beneath (StringIO) yields str
            nullcontext(getattr(stdin, "buffer", stdin))
            if path == "-"
            else open(path, "rb")
        ) as stream:
            lines = (enumerate(stream, start=1) if share is None
                     else _numbered(stream, *share))
            for lineno, line in lines:
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


def _check_share(records, method: str, decide, write, seen: set):
    """Write the line of each of ``records`` (see :func:`_records`) through
    ``write``, and add to ``seen`` the exit codes their verdicts ask for."""
    # one write per line: print() writes the line and its end apart, two
    # system calls each on an unbuffered stdout (PYTHONUNBUFFERED)
    for _, seq in records:
        if seq is None:
            write(_SUM_MISMATCH + "\n")
            continue
        outcome = decide(seq)
        verdict = outcome.verdict
        if verdict is not _GRAPHIC:  # identity tests: no Enum __hash__ call
            seen.add(1 if verdict is _NOT_GRAPHIC else 2)
        write(_outcome_line(outcome, method) + "\n")


# The fewest bytes a share of a split ``check`` holds.  On CPython 3.11.7
# (2 shared cores) a check child forks a worker, relays a 60 KB result
# through a pipe and reaps it in 2.5-2.7 ms (median of 200), and ``check
# --method auto --fallback-exact`` reads at most 16.7 MB/s (power-law
# records at n = 2000; 9.2 MB/s at uniform n = 100, 2.2 MB/s at n = 10).
# So a share decides for at least 31 ms, over 10x what its fork costs.
_MIN_SHARE = 1 << 19
# The most bytes a wave of shares holds.  Each worker holds its share's
# output text, at most about 6 bytes a byte of input (``1;1`` prints as
# ``GRAPHIC thm3 Ma=1 Mb=1``), so the text held at once is bounded by the
# wave, whatever the number of CPUs; and a wave of shares of at least
# ``_MIN_SHARE`` bytes has at most 8 processes.
_MAX_WAVE = 1 << 22


def _cpus() -> int:
    """The CPUs this process may run on; 1 on a platform that cannot fork
    or does not say."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _line_ends(stream, start, stop) -> int:
    """The ``\\n`` bytes in bytes ``[start, stop)`` of ``stream``, read in
    blocks of ``_BLOCK``."""
    stream.seek(start)
    count = 0
    while start < stop:
        block = stream.read(min(stop - start, _BLOCK))
        if not block:
            break  # the file shrank
        count += block.count(b"\n")
        start += len(block)
    return count


def _waves(path) -> list:
    """The byte ranges ``(start, stop, lineno)`` of a regular file ``path``
    that ``check`` decides one to a process, in file order and in waves of
    one share per process.  The file is cut into waves of at most
    ``_MAX_WAVE`` bytes, and each wave into as many shares as the CPUs this
    process may use, but none below ``_MIN_SHARE`` bytes.  Each share is
    cut at the first line start at or after an equal part of the file, and
    the last runs to the end (``stop`` None); ``lineno`` is the number of
    its first line, from the line ends before it, which this process counts
    once.  ``[[None]]``, the whole input in this process, for stdin, a
    file that is not regular or holds fewer than two shares, a run a
    profiler or tracer observes (it would miss the workers), and a process
    with a second thread, which a fork leaves behind holding whatever
    locks it held."""
    threading = sys.modules.get("threading")
    if (path == "-" or _observed()
            or (threading is not None and threading.active_count() > 1)):
        return [[None]]
    try:
        info = os.stat(path)
        size = info.st_size
        if size < 2 * _MIN_SHARE or not stat.S_ISREG(info.st_mode):
            return [[None]]
        waves = -(-size // _MAX_WAVE)
        count = min(_cpus(), size // (waves * _MIN_SHARE))
        if count < 2:
            return [[None]]
        shares, start, lineno = [], 0, 1
        with open(path, "rb") as stream:
            for k in range(1, count * waves):
                # just after the first "\n" at or after the byte before the cut
                stream.seek(size * k // (count * waves) - 1)
                stream.readline()
                stop = stream.tell()
                if start < stop < size:
                    shares.append((start, stop, lineno))
                    lineno += _line_ends(stream, start, stop)
                    start = stop
    except OSError:
        return [[None]]  # reported by the one-process read
    shares.append((start, None, lineno))
    return [shares[i:i + count] for i in range(0, len(shares), count)]


def _share_result(args, decide, share):
    """What ``check`` writes for ``share`` of its input: the stdout text,
    each stderr message with the length the text had when it was written,
    and the exit codes its records ask for.  The text is held whole until
    the parent writes it."""
    text, messages, seen = io.StringIO(), [], set()

    def message(line):
        messages.append((text.tell(), line))

    records = _records(args.input, None, SimpleNamespace(write=message),
                       seen, share)
    _check_share(records, args.method, decide, text.write, seen)
    return text.getvalue(), messages, seen


class _Worker:
    """A forked process that sends ``run()``'s result back through a pipe,
    marshalled, and exits; it never returns into the caller's code, and it
    ends without flushing the buffers or running the ``atexit`` callbacks
    it inherited.  Raises ``OSError`` when the pipe or the fork fails."""

    def __init__(self, run):
        read, write = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            os.close(read)
            os.close(write)
            raise
        if self.pid == 0:
            code = 1  # whatever run() raises, a failure to send included
            try:
                os.close(read)
                with open(write, "wb") as pipe:
                    pipe.write(marshal.dumps(run()))
                code = 0
            finally:
                os._exit(code)
        os.close(write)
        self.pipe = open(read, "rb")

    def result(self):
        """The ``(text, messages, codes)`` the worker sent, once it has
        exited and been reaped; None if it exited non-zero or sent anything
        else, a short payload among them."""
        with self.pipe:
            data = self.pipe.read()
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        if os.waitstatus_to_exitcode(status):
            return None
        try:
            text, messages, codes = marshal.loads(data)
        except (EOFError, ValueError, TypeError):
            return None
        return text, messages, codes

    def kill(self):
        """End and reap the worker, unless :meth:`result` has."""
        if self.pid is not None:
            import signal  # only a run that failed kills a worker

            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None
        self.pipe.close()


def _cmd_check(args, stdin, stdout, stderr) -> int:
    # decided first, so every worker inherits what the method loaded
    decide = _decider(args.method, args.loops, args.fallback_exact)
    seen: set = set()

    def here(share):
        _check_share(_records(args.input, stdin, stderr, seen, share),
                     args.method, decide, stdout.write, seen)

    for first, *rest in _waves(args.input):
        workers = []  # (share, its _Worker, or None when it could not start)
        try:
            for share in rest:
                try:
                    worker = _Worker(partial(_share_result, args, decide, share))
                except OSError:
                    worker = None
                workers.append((share, worker))
            here(first)
            for share, worker in workers:
                result = worker.result() if worker else None
                if result is None:  # decided here, as a one-process run would
                    here(share)
                    continue
                # each message after the text written before it, as one
                # process writes them
                text, messages, codes = result
                start = 0
                for stop, message in messages:
                    _write_text(stdout.write, text[start:stop])
                    stderr.write(message)
                    start = stop
                _write_text(stdout.write, text[start:])
                seen.update(codes)
        finally:
            for _, worker in workers:
                if worker:
                    worker.kill()
    return _exit_code(seen)


# the most characters one write of realize holds, unless it is one line
_BLOCK = 1 << 16


def _write_text(write, text: str):
    """Write ``text``, whole lines, in blocks of ``_BLOCK`` characters at
    most, each ending at a line end; a longer line goes out alone."""
    start = 0
    while len(text) - start > _BLOCK:
        # after the last line end within the block, else after the long line
        stop = (text.rfind("\n", start, start + _BLOCK) + 1
                or text.index("\n", start + _BLOCK) + 1)
        write(text[start:stop])
        start = stop
    if start < len(text):
        write(text[start:])


def _cmd_realize(args, stdin, stdout, stderr) -> int:
    # read from the submodule on each run, so a check child never loads it
    from .realize import realize

    seen: set = set()
    write = stdout.write
    gap = ""  # the blank line that separates a record from the one before
    for lineno, seq in _records(args.input, stdin, stderr, seen):
        if seq is not None:
            try:
                result = realize(seq, allow_loops=args.loops)
            except RuntimeError as exc:
                stderr.write(f"line {lineno}: {exc}\n")
                seen.add(3)
                continue
        if seq is None:
            _write_text(write, f"{gap}{_SUM_MISMATCH}\n")
        elif isinstance(result, CheckOutcome):  # realize's NOT_GRAPHIC
            seen.add(1)
            _write_text(write, f"{gap}NOT_GRAPHIC j={result.witness}\n")
        elif args.format == "dense":
            # rows are built as they are written, so the matrix is never
            # held whole as text; each is n characters and its end
            lines = chain([""] if gap else [], result.row_strings())
            per_block = max(1, _BLOCK // (result.n + 1))
            while block := list(islice(lines, per_block)):
                block.append("")  # the end of the last line
                write("\n".join(block))
        else:
            # a source's head before each target's line, so no edge is
            # formatted; one target needs no join.  The record's text, built
            # whole, is about its target lists' size
            heads, lines = _edge_texts(result.n)
            line = lines.__getitem__
            _write_text(write, gap + "".join([
                head + lines[dsts[0]] if len(dsts) == 1
                else head + head.join(map(line, dsts))
                for head, dsts in zip(heads, result.targets) if dsts]))
        gap = "\n"
    return _exit_code(seen)


class _Choices:
    """An option's choices, read from a module only when they must be
    listed or when a value is not one of ``known``, so ``check --method
    exact`` never loads ``sufficient`` and only ``generate`` loads
    ``generate``."""

    def __init__(self, known, load):
        self.known, self.load = known, load

    def __contains__(self, value):
        return value in self.known or value in list(self)

    def __iter__(self):
        return iter([*self.known, *self.load()])


def _condition_codes():
    from .sufficient import Condition

    return sorted(cond.value for cond in Condition)


def _generator_kinds():
    from .generate import GENERATOR_KINDS

    return GENERATOR_KINDS


_LOOP_FLAGS = {
    "--loops": dict(dest="loops", action="store_true", default=True,
                    help="allow self-loops (default)"),
    "--no-loops": dict(dest="loops", action="store_false", default=True,
                       help="require a zero diagonal"),
}
_INPUT_HELP = "file or - for stdin"
_TEXT_CSV = dict(choices=["text", "csv"], default="text")

# command -> (its help line, its input's help, or None when it takes no
# input, its options).  Each option's exact spelling maps to the keywords
# argparse adds it with, and _read_exact reads the same keywords.
_COMMANDS = {
    "check": ("decide graphicality per record", _INPUT_HELP, {
        **_LOOP_FLAGS,
        "--method": dict(default="auto",
                         choices=_Choices(("exact", "auto"), _condition_codes),
                         help="exact check, one certificate, or the auto ladder"),
        "--fallback-exact": dict(
            action="store_true", default=False,
            help="with --method auto, settle inconclusive records exactly"),
    }),
    "bound": ("largest certifiable max degree per condition", None, {
        "--n": dict(type=int, required=True),
        "--m": dict(type=int, required=True),
        "--total": dict(type=int, required=True),
        "--format": _TEXT_CSV,
    }),
    "realize": ("construct adjacency matrices", "", {  # an input, no help
        **_LOOP_FLAGS,
        "--format": dict(choices=["dense", "edges"], default="dense"),
    }),
    "generate": ("emit generated records", None, {
        "--kind": dict(choices=_Choices((), _generator_kinds), required=True,
                       help="generator family"),
        "--n": dict(type=int, help="node count"),
        "--total": dict(type=int, help="degree sum"),
        # dest is GeneratorSpec's field name, metavar the flag's own
        "--min": dict(dest="min_degree", metavar="MIN", type=int,
                      help="minimum degree (uniform)"),
        "--max": dict(dest="max_degree", metavar="MAX", type=int,
                      help="maximum degree (uniform/extremal)"),
        "--exponent": dict(type=float, help="power-law exponent (> 2)"),
        "--Ma": dict(dest="max_in", metavar="MA", type=int,
                     help="maximum in-degree (counterexample1)"),
        "--Mb": dict(dest="max_out", metavar="MB", type=int,
                     help="maximum out-degree (counterexample1)"),
        "--count": dict(type=int, default=1, help="records to emit"),
        "--seed": dict(type=int, default=0,
                       help="base seed (record i uses seed+i)"),
    }),
    "bench": ("coverage and timing over a corpus", _INPUT_HELP, {
        **_LOOP_FLAGS,
        "--repeat": dict(type=int, default=1, help="timing repetitions"),
        "--format": _TEXT_CSV,
    }),
}


def _dest(spelling, keywords):
    """The attribute an option sets, named as argparse names it."""
    return keywords.get("dest", spelling[2:].replace("-", "_"))


def _add_arguments(parser, input_help, options):
    """Add a command's input, if it takes one, and its options."""
    if input_help is not None:
        parser.add_argument("input", nargs="?", default="-", help=input_help)
    loops = parser.add_mutually_exclusive_group() if "--loops" in options else None
    for spelling, keywords in options.items():
        keywords = dict(keywords)
        choices = keywords.pop("choices", None)
        # set after add_argument, whose check of the metavar would list
        # the choices and so load sufficient or generate
        target = loops if spelling in _LOOP_FLAGS else parser
        target.add_argument(spelling, **keywords).choices = choices


def _read_exact(argv):
    """The arguments argparse would give command ``argv[0]`` for a command
    line spelled exactly, as the module docstring says, or None for any
    other, which is left to argparse."""
    command = argv[0]
    _, input_help, options = _COMMANDS[command]
    args = {"command": command}
    if input_help is not None:
        args["input"] = "-"
    args.update((_dest(spelling, keywords), keywords.get("default"))
                for spelling, keywords in options.items())
    given = set()  # the dests read so far, "input" among them
    tokens = iter(argv[1:])
    for token in tokens:
        keywords = options.get(token)
        if keywords is None:
            if input_help is None or (token.startswith("-") and token != "-"):
                return None
            dest, value = "input", token
        elif "action" in keywords:
            dest, value = _dest(token, keywords), keywords["action"] == "store_true"
        else:
            # a missing value reads as "-", which no option takes
            dest, value = _dest(token, keywords), next(tokens, "-")
            if value.startswith("-"):
                return None
            try:
                value = keywords.get("type", str)(value)
            except ValueError:
                return None
            if value not in keywords.get("choices", [value]):
                return None
        if dest in given:
            return None
        given.add(dest)
        args[dest] = value
    if any(keywords.get("required") and _dest(spelling, keywords) not in given
           for spelling, keywords in options.items()):
        return None
    return SimpleNamespace(**args)


def build_parser():
    """The ``argparse.ArgumentParser`` of every command.  argparse, which
    loads ``gettext`` and ``locale``, is imported here, so a command line
    :func:`_read_exact` reads never loads it."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="bidegree",
        description="Graphicality checks, realization, and generators for "
        "directed bidegree sequences.",
    )
    # no metavar: a missing command's error names the dest, "command"
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, input_help, options) in _COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=help_line), input_help, options)
    return parser


class _Stderr:
    """``stream`` until it shows itself closed: None (fd 2 closed) or a
    write failing with EBADF (fd 2 not open for writing).  Then writes are
    dropped, and the fd points at devnull, so the exit's flush cannot fail."""

    def __init__(self, stream):
        self.stream = stream

    def write(self, text):
        if self.stream is not None:
            try:
                return self.stream.write(text)
            except OSError as exc:
                if exc.errno != errno.EBADF:
                    raise  # a reader that went away ends the run with 141
                os.dup2(os.open(os.devnull, os.O_WRONLY), self.stream.fileno())
                self.stream = None
        return len(text)


def main(argv=None, stdin=None, stdout=None, stderr=None) -> int:
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    stderr = _Stderr(stderr if stderr is not None else sys.stderr)
    # Python sets sys.stdout to None when fd 1 is closed: no command can run
    if stdout is None:
        stderr.write(f"error: cannot write -: {os.strerror(errno.EBADF)}\n")
        return 3
    argv = sys.argv[1:] if argv is None else list(argv)
    # the top level takes no option but --help, so a command comes first
    args = _read_exact(argv) if argv and argv[0] in _COMMANDS else None
    if args is None:
        try:
            # argparse prints help to sys.stdout and usage errors to sys.stderr
            with redirect_stdout(stdout), redirect_stderr(stderr):
                args = build_parser().parse_args(argv)
        except SystemExit as exc:
            if exc.code != 2:
                raise  # --help exits 0
            return 3  # a usage error is an input error, not "inconclusive"
    handler = {"check": _cmd_check, "realize": _cmd_realize}.get(args.command)
    if handler is None:
        # bound, generate and bench run from cli_extra, which only they
        # load; "from . import cli_extra" would ask the package's lazy
        # __getattr__, which loads generate and sufficient
        from .cli_extra import HANDLERS

        handler = HANDLERS[args.command]
    return handler(args, stdin, stdout, stderr)


def _flushed(code: int) -> int:
    """Flush stdout and stderr and return ``code``, or 141 (128 + SIGPIPE,
    as a shell reports a process it ended) if the reader of either went
    away (``| head``).  Such a stream is pointed at devnull, so no later
    flush can raise again.  A closed stream (None) is skipped."""
    for stream in filter(None, (sys.stdout, sys.stderr)):
        try:
            stream.flush()
        except BrokenPipeError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
            code = 141
    return code


def _observed() -> bool:
    """Whether a profiler or tracer is attached: through ``sys.setprofile``
    or ``sys.settrace``, or, from CPython 3.12 (where ``cProfile`` uses it),
    as a ``sys.monitoring`` tool, of which there are six ids."""
    monitoring = getattr(sys, "monitoring", None)
    return (sys.getprofile() is not None or sys.gettrace() is not None
            or (monitoring is not None and any(map(monitoring.get_tool, range(6)))))


def entry():
    """Run :func:`main` on the process's arguments and streams, then end
    the process with its exit code once the ``atexit`` callbacks have run
    and stdout and stderr are flushed, skipping interpreter teardown.  A
    profiler or tracer reports at interpreter exit, so while one is
    attached the process exits through ``sys.exit``."""
    try:
        code = main()
    except BrokenPipeError:
        code = 141
    if _observed():
        sys.exit(_flushed(code))
    atexit._run_exitfuncs()
    os._exit(_flushed(code))


if __name__ == "__main__":
    # cli_extra imports this module by name: let it find this run of the
    # module, not compile a second one
    sys.modules.setdefault(__spec__.name, sys.modules[__name__])
    entry()
