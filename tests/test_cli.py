import contextlib
import hashlib
import importlib
import io
import itertools
import json
import os
import random
import re
import statistics
import subprocess
import sys
import threading
from collections import Counter
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bidegree as bd
from bidegree import cli, cli_extra, sufficient
from bidegree.cli import format_record, main, parse_record
from bidegree.generate import SplitMix64
from conftest import sequence_pairs

# a realize command reads the function from this module on each run, so a
# failing realize is patched in here
REALIZE_MODULE = importlib.import_module("bidegree.realize")

TEN_NODE_RECORD = "6,6,6,6,6,4,2,2,1,1;6,6,6,6,6,4,2,2,1,1"
COUNTEREXAMPLE_RECORD = "2,2,2,0;4,2,0,0"


@cache
def golden_corpus():
    """Seeded records on which ``check --method auto`` reaches every rung
    of both ladders, the exact fallback, a blank line and a sum mismatch."""
    rng = SplitMix64(1018)
    lines = []
    for _ in range(1500):
        n = rng.randint(1, 25)
        m = rng.randint(0, min(3, n))
        M = rng.randint(m, n)
        S = rng.randint(n * m, n * M)
        lines.append(format_record(bd.gen_uniform(n, S, m, M, seed=rng.next_u64())))
    lines += [format_record(bd.gen_powerlaw(200, 2.5, seed=s)) for s in range(30)]
    # symmetric heavy tails: some satisfy both cor5 and thm2
    for s in range(100):
        a = bd.gen_powerlaw(30, 2.5, seed=s).in_degrees
        lines.append(format_record(bd.new_sequence(a, a)))
    thm2_first = [1] + [9] * 6 + [3] + [1] * 17
    lines += [
        "",
        "2,1;1,1",
        format_record(bd.new_sequence(thm2_first, thm2_first)),
        TEN_NODE_RECORD,
        COUNTEREXAMPLE_RECORD,
    ]
    return "\n".join(lines) + "\n"


@cache
def realize_corpus():
    """Seeded uniform records with n from 150 to 250 and mean degree up to
    12, each graphic under both policies."""
    rng = SplitMix64(1914)
    lines = []
    for _ in range(24):
        n = rng.randint(150, 250)
        m = rng.randint(0, 2)
        M = rng.randint(max(m, 1) * 4, n)
        c = rng.randint(max(m, 1), 12)
        seq = bd.gen_uniform(n, c * n, m, M, seed=rng.next_u64())
        lines.append(format_record(seq))
    return "\n".join(lines) + "\n"


def run_cli(argv, stdin_text=""):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, stdin=io.StringIO(stdin_text), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def python_child(argv, unbuffered=None, **kwargs):
    """``python argv`` in a child process that imports this checkout's
    package.  ``unbuffered`` True sets ``PYTHONUNBUFFERED``, False unsets
    it, None leaves it as it is here."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(bd.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    if unbuffered is not None:
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen([sys.executable, *argv], env=env, **kwargs)


def cli_child(argv, **kwargs):
    """``python -m bidegree.cli argv`` in a child process that imports this
    checkout's package."""
    return python_child(["-m", "bidegree.cli", *argv], **kwargs)


class TestRecords:
    def test_plain_round_trip(self):
        seq = parse_record("2,2,2,0;4,2,0,0")
        assert format_record(seq) == "2,2,2,0;4,2,0,0"

    def test_json_form(self):
        seq = parse_record('{"in": [1, 1], "out": [1, 1]}')
        assert seq.in_degrees == (1, 1)

    def test_json_mirrors_plain(self):
        plain = parse_record("2,1,0;1,1,1")
        as_json = parse_record(json.dumps({"in": [2, 1, 0], "out": [1, 1, 1]}))
        assert plain == as_json
        # a generated corpus re-emitted as JSON records is decided as its
        # plain form, under either policy
        corpus = generated("--kind", "powerlaw", "--n", "50", "--exponent",
                           "2.2", "--count", "100", "--seed", "8")
        records = ""
        for line in corpus.splitlines():
            a, b = (list(map(int, side.split(","))) for side in line.split(";"))
            records += json.dumps({"in": a, "out": b}) + "\n"
        for policy in ("--loops", "--no-loops"):
            from_plain = run_cli(["check", "--fallback-exact", policy], corpus)
            assert len(from_plain[1].splitlines()) == 100
            assert run_cli(["check", "--fallback-exact", policy], records) == (
                from_plain)

    def test_whitespace_tolerated(self):
        assert parse_record("  1,1;1,1 \n").n == 2

    def test_bad_records(self):
        for text in ["", "1,1", "1,x;1,1", '{"in": [1]}', "1;1,0"]:
            with pytest.raises((bd.BidegreeError, ValueError)):
                parse_record(text)

    @pytest.mark.parametrize(
        "text",
        [
            "1_0,0,0,0,0,0,0,0,0,0;1,1,1,1,1,1,1,1,1,1",  # int() reads 10
            "\u0661,1;1,1",  # ARABIC-INDIC DIGIT ONE
            "\uff11,1;1,1",  # FULLWIDTH DIGIT ONE
            "+1,1;1,1",
            "1, 1;1,1",
            "1,1 ;1,1",
            "1,1;1,\t1",
            "-1,1;1,1",
        ],
    )
    def test_plain_entries_are_ascii_digits_only(self, text):
        with pytest.raises(bd.BidegreeError, match="ASCII digits"):
            parse_record(text)
        code, out, err = run_cli(["check"], text + "\n1,1;1,1\n")
        assert code == 3
        assert err.startswith("line 1: ")
        assert out == "GRAPHIC thm3 Ma=1 Mb=1\n"

    @pytest.mark.parametrize(
        "text", ["01,1;1,1", "1,1;1,01", "00,0;0,0", "1,0;0,001", "0,010;5,5"]
    )
    def test_plain_entries_have_no_leading_zeros(self, text):
        with pytest.raises(bd.BidegreeError, match="leading zeros"):
            parse_record(text)
        code, out, err = run_cli(["check"], text + "\n0,0;0,0\n1,1;1,1\n")
        assert code == 3
        assert err.startswith("line 1: ")
        assert out == "GRAPHIC thm3 Ma=0 Mb=0\nGRAPHIC thm3 Ma=1 Mb=1\n"

    def test_golden_corpus_round_trips(self):
        # every line but the blank one and the sum mismatch is a sequence
        lines = [
            line for line in golden_corpus().splitlines()
            if line not in ("", "2,1;1,1")
        ]
        assert len(lines) == 1633
        for line in lines:
            assert format_record(parse_record(line)) == line

    def test_bool_entries_print_as_ints(self):
        seq = bd.new_sequence([True, 0], [0, True])
        assert format_record(seq) == "1,0;0,1"
        assert parse_record(format_record(seq)) == seq
        seq = bd.new_sequence([True, False, 2], [1, True, True])
        assert format_record(seq) == "1,0,2;1,1,1"
        assert parse_record(format_record(seq)) == seq

    @given(sequence_pairs(max_n=8))
    @settings(max_examples=100)
    def test_round_trip_property(self, seq):
        if seq is None:
            return
        assert parse_record(format_record(seq)) == seq


def int_repr_line(seq):
    """The plain line written with ``int.__repr__`` for every entry."""
    return (",".join(map(int.__repr__, seq.in_degrees)) + ";"
            + ",".join(map(int.__repr__, seq.out_degrees)))


def count_up(top):
    """A record of max degree ``top`` holding every value in [0..top]."""
    return bd.new_sequence(range(top + 1), range(top, -1, -1))


class TestFormatRecord:
    """format_record reads each entry's text from a table that grows to
    the largest max degree it has formatted; each line is int.__repr__'s."""

    @pytest.fixture(autouse=True)
    def fresh_table(self, monkeypatch):
        monkeypatch.setattr(cli, "_TEXTS", ["0"])

    def test_entry_equal_to_n(self):
        for n in (1, 2, 10, 100):
            seq = bd.new_sequence([n] + [0] * (n - 1), [1] * n)
            line = format_record(seq)
            assert line == int_repr_line(seq)
            assert line.replace(";", ",").split(",")[0] == str(n)

    def test_growing_maxima(self):
        """Each record past the largest max so far grows the table to its
        own max, no further; smaller records after it read the same table."""
        largest = 0
        for top in (0, 1, 2, 9, 10, 11, 5, 99, 100, 3, 101, 999, 1000, 40):
            seq = count_up(top)
            assert format_record(seq) == int_repr_line(seq)
            largest = max(largest, top)
            assert cli._TEXTS == [str(i) for i in range(largest + 1)]

    def test_threads_format_different_maxima(self):
        """Threads that format records of different maxima at once, each
        growing the table, all write int.__repr__'s lines."""
        seqs = [count_up(top) for top in (3, 70, 700, 9, 2000, 150)]
        want = [int_repr_line(seq) for seq in seqs]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                cli._TEXTS = ["0"]
                barrier = threading.Barrier(len(seqs), timeout=60)
                seen = []

                def write(i):
                    barrier.wait()
                    seen.extend((i, format_record(seqs[i])) for _ in range(5))

                threads = [threading.Thread(target=write, args=(i,))
                           for i in range(len(seqs))]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert len(seen) == 5 * len(seqs)
                for i, line in seen:
                    assert line == want[i]
        finally:
            sys.setswitchinterval(switch)


_LEADING_ZERO = re.compile(",(0[0-9]+)")


def split_reader(line):
    """Reference reader for the plain form: split on ';' and ',', then
    int() each entry, with the plain form's checks in their stated order.
    ``parse_record`` looks entries up in a table instead and must agree
    with it."""
    text = line.strip()
    if not text:
        raise bd.BidegreeError("empty record")
    if ";" not in text:
        raise bd.BidegreeError("plain record needs ';' between in- and out-degrees")
    stray = text.translate(str.maketrans("", "", "0123456789,;"))
    if stray:
        raise bd.BidegreeError(
            f"plain entries must be ASCII digits, got {stray[0]!r}")
    padded = _LEADING_ZERO.search("," + text.replace(";", ","))
    if padded:
        raise bd.BidegreeError(
            f"plain entries must not have leading zeros, got {padded[1]!r}")
    left, right = text.split(";", 1)
    if ";" in right:
        raise bd.BidegreeError("plain record needs exactly one ';'")
    try:
        return bd.new_sequence(map(int, left.split(",")),
                               map(int, right.split(",")))
    except bd.BidegreeError:
        raise
    except ValueError:
        for entry in (*left.split(","), *right.split(",")):
            if not entry:
                raise bd.BidegreeError("plain entries must not be empty") from None
            int(entry)
        raise


def read_with(reader, line):
    """The sequence ``reader`` returns, or its error's type and message."""
    try:
        return reader(line)
    except ValueError as exc:
        return type(exc), str(exc)


LONG_ENTRY = "9" * 5000
PLAIN_EDGE_LINES = [
    ";", "1;", ";1", "1;;", ";;", "1,;1", ",1;1", "1;1,", "1;,1", ",;,",
    "1,,1;1,1", "01;1", "1;01", "0;0", "00;0", "0,010;5,5", "1;1;1", "1;1;",
    "01;1;1", "1;;01", "+1;1", "1;1\r", "\uff11;1", "1", "2,1;1,1",
    "2;1,1", "3,0;1,1", f"{LONG_ENTRY};1", f"1;{LONG_ENTRY}",
    f"{LONG_ENTRY},;1", f"1,;{LONG_ENTRY}", f"{LONG_ENTRY};1;1",
    f"0{LONG_ENTRY};1", f"1;1,{LONG_ENTRY}", "1,1;1,1", "  2,2,2,0;4,2,0,0 \n",
    # entries equal to n and to n + 1, some of several digits
    "2,0;1,1", "3,0;1,2", "0,1;0,3", "1,1;2,0", "100;1", "1;100",
    ",".join(["10"] + ["0"] * 9) + ";" + ",".join(["1"] * 10),
    ",".join(["11"] + ["0"] * 9) + ";" + ",".join(["1"] * 10),
    ",".join(["0"] * 9 + ["10"]) + ";" + ",".join(["1"] * 9 + ["11"]),
    ",".join(["12", "10"] + ["0"] * 10) + ";" + ",".join(["2"] * 11 + ["0"]),
    # digits of other scripts, for which str.isdigit() is true
    "\u00b2;1", "1;\u00b2", "\u0661;1", "1;\u0661", "1;\uff11", "1,\uff11;1,1",
    # a sign, an underscore, inner spaces
    "1;+1", "1;-1", "1_0;1", "1;1_0", "1 ;1", "1; 1", "1,1;1 ,1", "1 1;1",
    f"2,{LONG_ENTRY};1,1", f"2,1;1,{LONG_ENTRY}0",
]


def mutated_lines(count, seed):
    """Seeded edits of well-formed records: a character dropped, or one
    of '0', ',' and ';' put in, so most break a rule and some do not."""
    rng = SplitMix64(seed)
    for _ in range(count):
        n = rng.randint(1, 12)
        M = rng.randint(0, n)
        line = format_record(bd.gen_uniform(n, rng.randint(0, n * M), 0, M,
                                            seed=rng.next_u64()))
        for _ in range(rng.randint(0, 2)):
            i = rng.randbelow(len(line) + 1)
            if rng.randbelow(3) == 0:
                line = line[:i] + line[i + 1:]
            else:
                line = line[:i] + "0,;"[rng.randbelow(3)] + line[i:]
        yield line


class TestPlainDecoder:
    """``parse_record``'s table lookup of the plain form, and the routine
    that words the lines it misses, give the sequence or the error, type
    and message, the split reader gives."""

    @pytest.mark.parametrize("line", PLAIN_EDGE_LINES,
                             ids=lambda line: repr(line[:12]))
    def test_edge_lines(self, line):
        assert read_with(parse_record, line) == read_with(split_reader, line)

    def test_mutated_records(self):
        lines = list(mutated_lines(3000, seed=12))
        ok = sum(isinstance(read_with(split_reader, line), bd.BidegreeSequence)
                 for line in lines)
        assert 300 < ok < 2700  # both well-formed and malformed lines
        for line in lines:
            assert read_with(parse_record, line) == read_with(split_reader, line)

    @settings(max_examples=1500)
    @given(st.text(alphabet="0123,;", min_size=1, max_size=14))
    def test_fuzzed_lines(self, line):
        assert read_with(parse_record, line) == read_with(split_reader, line)

    @settings(max_examples=800)
    @given(st.lists(st.text(alphabet="0129,; +_-\u00b2\u0661\uff11",
                            min_size=1, max_size=24), min_size=1, max_size=6))
    def test_fuzzed_streams(self, lines):
        """Lines of other characters too, read one after another, so the
        table has seen other records, of other lengths, before each."""
        for line in lines:
            assert read_with(parse_record, line) == read_with(split_reader, line)

    def test_records_of_different_n_on_one_stream(self, monkeypatch):
        """An entry the table took from a longer record is still out of
        range in a shorter one, and one it missed as out of range is read
        once a record is long enough for it."""
        monkeypatch.setattr(cli, "_DECIMALS", cli._Decimals())
        long_line = ",".join(map(str, range(13))) + ";" + ",".join(["6"] * 13)
        stream = [
            "5,0;1,4", "1,1;1,1", long_line, "5,0;1,4", "12,0;6,6", "2,0;1,1",
            "3,1,1;1,2,2", "1,1;1,1", "0,12;12,0", long_line, "1,0;0,1",
        ]
        expected = [read_with(split_reader, line) for line in stream]
        assert [read_with(parse_record, line) for line in stream] == expected
        assert sum(isinstance(x, bd.BidegreeSequence) for x in expected) == 7
        monkeypatch.setattr(cli, "_DECIMALS", cli._Decimals())
        code, out, err = run_cli(["check"], "\n".join(stream) + "\n")
        assert code == 3
        assert len(out.splitlines()) == 7
        assert err.splitlines() == [
            f"line {i}: {result[1]}"
            for i, result in enumerate(expected, start=1)
            if isinstance(result, tuple)
        ]

    def test_threads_share_the_table(self, monkeypatch):
        """A lost update to the table's limit costs only time: every
        thread still reads what the split reader reads, and the table
        stays within the longest record."""
        table = cli._Decimals()
        monkeypatch.setattr(cli, "_DECIMALS", table)
        streams = [[format_record(bd.gen_uniform(n, n * 3, 0, n, seed=seed))
                    for n, seed in zip(range(k + 4, 400, 37), itertools.count(k))]
                   + [f"{k + 30},0;1,1", f"1;0{k}"] for k in range(6)]
        mismatches = []

        def read(stream):
            for _ in range(20):
                for line in stream:
                    if read_with(parse_record, line) != read_with(split_reader, line):
                        mismatches.append(line)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read, args=(s,)) for s in streams]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []
        longest = max(len(line.split(";")[0].split(","))
                      for stream in streams for line in stream)
        assert len(table) <= longest + 1
        assert all(table[key] == int(key) for key in table)

    def test_json_record_with_a_semicolon_in_a_string(self):
        line = '{"in": [2, 1, 0], "note": "a;b", "out": [1, 1, 1]}'
        assert parse_record(line) == parse_record("2,1,0;1,1,1")
        assert run_cli(["check"], line + "\n") == (0, "GRAPHIC thm3 Ma=2 Mb=1\n", "")

    def test_table_stays_within_the_longest_record(self, monkeypatch):
        """Out-of-range, long and malformed entries are never entered, so
        no input grows the table past the most in-degrees a line held,
        plus one for 0."""
        table = cli._Decimals()
        monkeypatch.setattr(cli, "_DECIMALS", table)
        lines = [",".join(map(str, range(40))) + ";" + ",".join(["20"] * 39)]
        for k in range(3000):
            lines.append(f"{k + 3},0;1,1")  # out of range: past n = 2
            lines.append(f"{k % 2};{k % 2}")
            if k % 100 == 0:
                lines += [f"{LONG_ENTRY}{k};1", f"1;{k}{LONG_ENTRY}", f"0{k};0",
                          f"1,1;{k},{k}"]
        for line in lines:
            assert read_with(parse_record, line) == read_with(split_reader, line)
        longest = max(len(line.split(";")[0].split(",")) for line in lines)
        assert table.limit == longest == 40
        assert len(table) <= longest + 1
        assert table == {str(x): x for x in range(longest + 1)}


class TestCheck:
    def test_thm5_golden_line(self):
        code, out, _ = run_cli(
            ["check", "--method", "thm5", "--loops"], TEN_NODE_RECORD
        )
        assert out == "GRAPHIC thm5 k=6 Mmax=6\n"
        assert code == 0

    def test_counterexample_auto_fallback(self):
        code, out, _ = run_cli(
            ["check", "--method", "auto", "--fallback-exact", "--loops"],
            COUNTEREXAMPLE_RECORD,
        )
        assert out == "NOT_GRAPHIC exact j=3\n"
        assert code == 1

    def test_counterexample_thm3_inconclusive(self):
        code, out, _ = run_cli(
            ["check", "--method", "thm3", "--loops"], COUNTEREXAMPLE_RECORD
        )
        assert out == "INCONCLUSIVE thm3\n"
        assert code == 2

    def test_exact_graphic(self):
        code, out, _ = run_cli(["check", "--method", "exact"], TEN_NODE_RECORD)
        assert out == "GRAPHIC exact\n"
        assert code == 0

    def test_loops_only_method_under_no_loops_is_inconclusive(self):
        code, out, _ = run_cli(
            ["check", "--no-loops", "--method", "thm3"], TEN_NODE_RECORD
        )
        assert out == "INCONCLUSIVE thm3\n"
        assert code == 2

    def test_cor5_parameters_echoed(self):
        record = format_record(
            bd.new_sequence(
                [10] + [2] * 19, [6] + [4] * 7 + [2] * 2 + [1] * 10
            )
        )
        code, out, _ = run_cli(["check", "--method", "cor5"], record)
        assert out == "GRAPHIC cor5 R=1 P=10 k=5 Mmax=4\n"
        assert code == 0

    def test_json_records_accepted(self):
        code, out, _ = run_cli(
            ["check", "--method", "exact"],
            '{"in": [1, 1], "out": [1, 1]}\n',
        )
        assert out == "GRAPHIC exact\n"
        assert code == 0

    def test_parse_error_reports_line_and_exit_3(self):
        code, out, err = run_cli(
            ["check", "--method", "exact"],
            "1,1;1,1\n1,x;1,1\n1,1;1,1\n",
        )
        assert code == 3
        assert "line 2" in err
        assert out.count("GRAPHIC exact") == 2

    def test_sum_mismatch_is_not_graphic_not_an_error(self):
        # unequal sums disprove graphicality outright
        code, out, err = run_cli(
            ["check", "--method", "exact"], "1,1;1,1\n2,1;1,1\n"
        )
        assert code == 1
        assert err == ""
        assert out.splitlines() == ["GRAPHIC exact", "NOT_GRAPHIC sum-mismatch"]

    def test_exit_codes_on_mixed_stream(self):
        stream = TEN_NODE_RECORD + "\n" + COUNTEREXAMPLE_RECORD + "\n"
        code, out, _ = run_cli(["check", "--method", "thm3"], stream)
        assert code == 2  # inconclusive present, nothing non-graphic
        assert out.splitlines() == [
            "GRAPHIC thm3 Ma=6 Mb=6",
            "INCONCLUSIVE thm3",
        ]
        code, out, _ = run_cli(["check", "--method", "exact"], stream)
        assert code == 1  # a non-graphic record dominates
        assert out.splitlines() == ["GRAPHIC exact", "NOT_GRAPHIC exact j=3"]

    def test_auto_fallback_matches_exact_verdicts(self):
        rng = SplitMix64(31)
        lines = []
        for _ in range(120):
            n = rng.randint(1, 12)
            M = rng.randint(0, n)
            S = rng.randint(0, n * M)
            lines.append(format_record(bd.gen_uniform(n, S, 0, M, rng.next_u64())))
        stream = "\n".join(lines) + "\n"
        for policy in ("--loops", "--no-loops"):
            auto_code, auto_out, _ = run_cli(
                ["check", policy, "--method", "auto", "--fallback-exact"], stream
            )
            exact_code, exact_out, _ = run_cli(
                ["check", policy, "--method", "exact"], stream
            )
            auto_verdicts = [line.split()[0] for line in auto_out.splitlines()]
            exact_verdicts = [line.split()[0] for line in exact_out.splitlines()]
            assert auto_verdicts == exact_verdicts
            assert auto_code == exact_code
            # the corpus holds both verdicts, and records a rung certifies
            assert "NOT_GRAPHIC" in auto_verdicts
            assert re.search("^GRAPHIC thm", auto_out, re.M)


# (check arguments, exit code, SHA-256 of stdout) over golden_corpus(),
# computed before the certify ladders were pruned to the rungs that can fire
# first; the output of every method must stay byte-identical.  The one
# exception is ``--loops --method auto --fallback-exact``, re-derived when
# the fallback ladder dropped cor5: test_fallback_lines_differ_only_at_cor5
# pins the lines that changed.
GOLDEN_CHECK_OUTPUT = [
    ("--loops --method auto", 1,
     "a19442e778218ff55cd320bb68107c187f5d92168103ba9b1078db2d6b85df12"),
    ("--loops --method auto --fallback-exact", 1,
     "0a6ae1c56be6e5e8b43fbd9b488d2568928d47319fb7f7f2af5200a9027509de"),
    ("--loops --method thm2", 1,
     "5587460643b3d97a55a0098f7645933d04d0fc687411b348344b5e5845724a83"),
    ("--loops --method thm3", 1,
     "00d19f11933267fb98cd9e9427fd583404a4c8ec0814cb705608123cce620a26"),
    ("--loops --method thm4", 1,
     "f2723240f85719154f301d1b3c4386e658b2c057d29c56a3f876e01b553b38c7"),
    ("--loops --method thm5", 1,
     "1e7a013468c5c051b2aab8ddcc7d6d1d2019bd553b2f8cb1e5587e64553ecc94"),
    ("--loops --method thm6", 1,
     "33531c0fa8469735b8684ae3494f31ba1005069679be16281d4d0af488c45f60"),
    ("--loops --method cor2", 1,
     "3983dc95158031ed757a779ed8190d60a23245811c164cb4fc6a5785b9ea9cf6"),
    ("--loops --method cor3", 1,
     "73637619bc40456f46cec16063dc3950a3d8ccbe8e97f73faf49356c95b13ba3"),
    ("--loops --method cor5", 1,
     "00c58c377e3ac28aec38aa08e38df50b027f1a9099eba5bc2ce4ca19c0b95ef0"),
    ("--no-loops --method auto", 1,
     "3d8cce71c1d15fd8595299c0374d42bda566913b34c4465d94746e3e8da71ca4"),
    ("--no-loops --method auto --fallback-exact", 1,
     "e15b9116b66a6756adb04331b8595ae21a6056174aad0b72bc9407c773742762"),
    ("--no-loops --method thm2", 1,
     "a85e997dfcb2947753f210d53fffb88b9f65f85f1b17f5f0a7aa0cfbedaac813"),
    ("--no-loops --method thm3", 1,
     "3c5ecd02f0f71d969af65fe619bde1fe7b664453b58b38333e2899167855e42e"),
    ("--no-loops --method thm4", 1,
     "f2723240f85719154f301d1b3c4386e658b2c057d29c56a3f876e01b553b38c7"),
    ("--no-loops --method thm5", 1,
     "e4ea95a9c98d50ce603259e71336b58bc431958a6a4a6835199c1c529759d980"),
    ("--no-loops --method thm6", 1,
     "33531c0fa8469735b8684ae3494f31ba1005069679be16281d4d0af488c45f60"),
    ("--no-loops --method cor2", 1,
     "4398f8a906e8a74f105aa6b8751c44ecd59a45de3b831e88704da265ee048f17"),
    ("--no-loops --method cor3", 1,
     "73637619bc40456f46cec16063dc3950a3d8ccbe8e97f73faf49356c95b13ba3"),
    ("--no-loops --method cor5", 1,
     "f049f28223ae368569dcf79a7fe75d9561b65ace4d006d6edb945e02ac70a199"),
]


# (corpus, realize arguments, exit code, SHA-256 of stdout), computed
# while each row was still a bitmask, before realizations were stored as
# per-source target lists; the matrices must stay byte-identical.
GOLDEN_REALIZE_OUTPUT = [
    ("golden", "--format dense --loops", 1,
     "1c6cee6d3735deaea3f281be63b60b82dfe4f61badd4ab6a84e8d597be288f11"),
    ("golden", "--format dense --no-loops", 1,
     "925921e68d2ea47526a1c1514f5d230d7a1e161bf19fc8c597c453f6c19a79eb"),
    ("golden", "--format edges --loops", 1,
     "994ea5a10636a37b36c05c002c59e4c27a3de8a6b1778fc2a10bbdee7a8004c9"),
    ("golden", "--format edges --no-loops", 1,
     "ec511faa91eb4cfd0cb039774e78f9008db398d50a64412b960d5032ed0621c9"),
    ("n200", "--format dense --loops", 0,
     "66e7b1b6f13ded0a886839ccee147c79c752a19e3e39feb769c1b67efe91261d"),
    ("n200", "--format dense --no-loops", 0,
     "da74c682c686ca427a47248cc8528a2cad961ebe00ae9815ea3dce258e51f8d7"),
    ("n200", "--format edges --loops", 0,
     "f3bf5ba88daebad5588209934c75cd80219c490350c95848b06c6786f979f1da"),
    ("n200", "--format edges --no-loops", 0,
     "46600c4a92a212adbb636944b7e9df6d77c838b5d1e43dac14bd1f652b31ee53"),
]


# (generate arguments, SHA-256 of stdout), computed from the sequential
# one-draw-at-a-time generators, before draws were taken in lane-packed
# batches; the seeded streams must stay byte-identical.
GOLDEN_GENERATE_OUTPUT = [
    ("--kind uniform --n 300 --total 2400 --min 2 --max 12 --count 20 --seed 9",
     "e1879d5f842bcdba6b95dab89a8472d5754021c705d1d58baaa60dc5445ddca8"),
    ("--kind uniform --n 5 --total 15 --min 0 --max 3 --count 30 "
     "--seed 18446744073709551600",
     "46e1f36eaf0469ed5f39ccd6fecff8e73bf761d45f031eb510107f5ac21063c5"),
    ("--kind powerlaw --n 700 --exponent 2.2 --count 20 --seed 3",
     "58608921698ce69f98af9ca39ef9a3038aafa901a5535c83740eeeffc7e874a8"),
    ("--kind powerlaw --n 2 --exponent 10 --count 50 --seed -7",
     "9eb1e897bc1d995029b00680cb095fca31fcb84bf58064a6eb1b05a6b747a0ea"),
    # the benchmark's powerlaw-n2000 shape
    ("--kind powerlaw --n 2000 --exponent 2.5 --count 10 --seed 5",
     "96ac73168bb99d7be4fbb83a0bb954cd3daf0545adb279f120b4ef9ff7371e57"),
    # a heavy tail: about 0.7% of the draws fall past the power-law
    # sampler's 64 head ends and take its float bisect
    ("--kind powerlaw --n 2000 --exponent 2.05 --count 20 --seed 1",
     "68eaa1df7239b9c82b0110b37a5d0c4df114135b06cd20711a2af67945b2613b"),
    ("--kind counterexample1 --Ma 5 --Mb 7 --n 12 --count 3",
     "7b8302c73ae49c1db8bd390beed0224dcf7d591ec3467f94fc516eafb3b63b90"),
    ("--kind extremal --n 30 --total 80 --max 9 --count 2",
     "9e541de66eb463ecbf6ba72cd9bdf7319a54715382735c0b977abe62e82b7eb9"),
]


class TestGoldenOutput:
    @pytest.mark.parametrize("args,code,digest", GOLDEN_CHECK_OUTPUT)
    def test_check_output_is_byte_identical(self, args, code, digest):
        got_code, out, err = run_cli(["check", *args.split()], golden_corpus())
        assert err == ""
        assert got_code == code
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("policy", ["--loops", "--no-loops"])
    def test_fallback_lines_differ_only_at_cor5(self, policy):
        """With the exact fallback, a record the ladder certifies keeps the
        line it gets without the fallback, unless cor5 certified it: cor5
        is skipped, so the line is thm2's where thm2 certifies the record
        and the exact check's otherwise.  An inconclusive record gets the
        exact check's line."""
        lines = {
            method: run_cli(["check", policy, *method.split()],
                            golden_corpus())[1].splitlines()
            for method in ("--method auto --fallback-exact", "--method auto",
                           "--method thm2", "--method exact")
        }
        changed = Counter()
        for fallback, auto, thm2, exact in zip(*lines.values()):
            if auto.startswith("GRAPHIC cor5 "):
                want = thm2 if thm2.startswith("GRAPHIC ") else exact
                changed[want.split()[1]] += 1
            else:
                want = exact if auto.startswith("INCONCLUSIVE ") else auto
            assert fallback == want
        # the corpus holds cor5 records of both kinds, with loops only
        assert changed == (Counter(thm2=2, exact=16) if policy == "--loops"
                           else Counter())

    @pytest.mark.parametrize("corpus,args,code,digest", GOLDEN_REALIZE_OUTPUT)
    def test_realize_output_is_byte_identical(self, corpus, args, code, digest):
        records = golden_corpus() if corpus == "golden" else realize_corpus()
        got_code, out, err = run_cli(["realize", *args.split()], records)
        assert err == ""
        assert got_code == code
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("args,digest", GOLDEN_GENERATE_OUTPUT)
    def test_generate_output_is_byte_identical(self, args, digest):
        code, out, err = run_cli(["generate", *args.split()])
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestBound:
    def test_golden_row(self):
        code, out, _ = run_cli(["bound", "--n", "10", "--m", "1", "--total", "40"])
        lines = out.splitlines()
        assert lines[0] == "H2=5 H3=6 H4=5 H5=6 H6=5"
        assert lines[1] == "largest: H3 H5"
        assert code == 0

    def test_k1_branch(self):
        _, out, _ = run_cli(["bound", "--n", "10", "--m", "3", "--total", "40"])
        assert "H5=10" in out

    def test_zero_min_prints_na(self):
        _, out, _ = run_cli(["bound", "--n", "10", "--m", "0", "--total", "40"])
        assert "H5=n/a H6=n/a" in out

    def test_csv(self):
        _, out, _ = run_cli(
            ["bound", "--n", "10", "--m", "1", "--total", "40", "--format", "csv"]
        )
        assert out.splitlines() == ["J,H", "2,5", "3,6", "4,5", "5,6", "6,5"]

    def test_invalid_stats_exit_3(self):
        code, _, err = run_cli(["bound", "--n", "10", "--m", "5", "--total", "40"])
        assert code == 3
        assert "error" in err


class TestRealize:
    def test_dense_two_cycle(self):
        code, out, _ = run_cli(
            ["realize", "--no-loops", "--format", "dense"], "1,1;1,1"
        )
        assert out == "01\n10\n"
        assert code == 0

    def test_edges_two_cycle(self):
        code, out, _ = run_cli(
            ["realize", "--no-loops", "--format", "edges"], "1,1;1,1"
        )
        assert out == "0 1\n1 0\n"
        assert code == 0

    def test_not_graphic_exit_1(self):
        code, out, _ = run_cli(
            ["realize", "--loops"], COUNTEREXAMPLE_RECORD
        )
        assert out == "NOT_GRAPHIC j=3\n"
        assert code == 1

    def test_margins_of_dense_output(self, ten_node_vector):
        _, out, _ = run_cli(["realize", "--loops"], format_record(ten_node_vector))
        rows = out.splitlines()
        assert len(rows) == 10
        assert [row.count("1") for row in rows] == list(ten_node_vector.in_degrees)
        cols = [sum(int(row[j]) for row in rows) for j in range(10)]
        assert cols == list(ten_node_vector.out_degrees)

    def test_multi_record_blank_separator(self):
        code, out, _ = run_cli(
            ["realize", "--no-loops"], "1,1;1,1\n0,0;0,0\n"
        )
        assert out == "01\n10\n\n00\n00\n"
        assert code == 0

    @pytest.mark.parametrize("policy", ["--loops", "--no-loops"])
    def test_edges_lay_out_as_the_dense_rows(self, policy):
        """Each record's edge list, laid out as 0/1 rows, is its dense
        matrix, on a corpus of graphic and non-graphic records, every
        record with edges."""
        corpus = generated("--kind", "powerlaw", "--n", "12", "--exponent",
                           "2.1", "--count", "60", "--seed", "6")
        code, dense, _ = run_cli(["realize", "--format", "dense", policy], corpus)
        edges_code, edges, _ = run_cli(["realize", "--format", "edges", policy], corpus)
        assert edges_code == code == 1
        sizes = [len(line.split(";")[0].split(",")) for line in corpus.splitlines()]
        rebuilt = []
        for n, block in zip(sizes, edges.split("\n\n"), strict=True):
            lines = block.splitlines()
            if not lines[0].startswith("NOT_GRAPHIC"):
                rows = [["0"] * n for _ in range(n)]
                for line in lines:
                    src, dst = map(int, line.split())
                    rows[dst][src] = "1"
                lines = ["".join(row) for row in rows]
            rebuilt.append("".join(line + "\n" for line in lines))
        assert "\n".join(rebuilt) == dense
        assert any("1" in block for block in rebuilt)

    @pytest.mark.parametrize("loops", [True, False], ids=["loops", "no-loops"])
    def test_edges_as_the_node_texts_grow(self, monkeypatch, loops):
        """Records with n = 3, then 200, then 5: the cached node-id texts
        grow from none to 200 entries, and the n = 5 record reads them as
        they are.  Every record has a source with no targets, and the
        n = 200 record's edge text is longer than one 64 KiB block.  Each
        record's block is its edges, one ``src dst`` line each."""
        # n = 200: source 0 has no targets, the others 60 each
        big_in = [60] * 140 + [59] * 60
        seqs = [bd.new_sequence([1, 1, 0], [0, 1, 1]),
                bd.new_sequence(big_in, [0] + [60] * 199),
                bd.new_sequence([2, 1, 1, 0, 0], [0, 2, 0, 1, 1])]
        blocks = []
        for seq in seqs:
            result = bd.realize(seq, allow_loops=loops)
            assert not result.targets[0]
            blocks.append("".join(f"{s} {d}\n" for s, d in result.edges()))
        assert len(blocks[1]) > 1 << 16
        monkeypatch.setattr(cli, "_EDGE_TEXTS", ([], []))
        code, out, err = run_cli(
            ["realize", "--format", "edges", "--loops" if loops else "--no-loops"],
            "".join(format_record(seq) + "\n" for seq in seqs))
        assert (code, out, err) == (0, "\n".join(blocks), "")
        assert list(map(len, cli._EDGE_TEXTS)) == [200, 200]

    def test_sum_mismatch_record(self):
        code, out, _ = run_cli(["realize"], "2,1;1,1\n")
        assert code == 1
        assert out == "NOT_GRAPHIC sum-mismatch\n"

    def test_internal_error_reports_line_and_continues(self, monkeypatch):
        def failing_on_pairs(seq, allow_loops=True):
            if seq.n == 2:
                raise RuntimeError("greedy wiring failed")
            return bd.realize(seq, allow_loops)

        monkeypatch.setattr(REALIZE_MODULE, "realize", failing_on_pairs)
        code, out, err = run_cli(["realize"], "1,1;1,1\n1;1\n")
        assert err == "line 1: greedy wiring failed\n"
        assert out == "1\n"  # no separator before the first printed record
        assert code == 3


class TestGenerate:
    def test_counterexample_record(self):
        code, out, _ = run_cli(
            ["generate", "--kind", "counterexample1", "--Ma", "2", "--Mb", "4"]
        )
        assert out == "2,2,2,0;4,2,0,0\n"
        assert code == 0

    def test_constrained_uniform(self):
        _, out, _ = run_cli(
            ["generate", "--kind", "uniform", "--n", "4", "--total", "4",
             "--min", "1", "--max", "1"]
        )
        assert out == "1,1,1,1;1,1,1,1\n"

    def test_byte_identical_reruns(self):
        argv = ["generate", "--kind", "powerlaw", "--n", "20", "--exponent",
                "2.5", "--count", "5", "--seed", "11"]
        _, out1, _ = run_cli(argv)
        _, out2, _ = run_cli(argv)
        assert out1 == out2
        assert len(out1.splitlines()) == 5

    def test_bad_parameters_exit_3(self):
        code, _, err = run_cli(
            ["generate", "--kind", "counterexample1", "--Ma", "2", "--Mb", "2"]
        )
        assert code == 3
        assert "error" in err

    def test_records_parse_back(self):
        _, out, _ = run_cli(
            ["generate", "--kind", "uniform", "--n", "12", "--total", "30",
             "--min", "0", "--max", "6", "--count", "8", "--seed", "3"]
        )
        for line in out.splitlines():
            seq = parse_record(line)
            assert seq.n == 12
            assert bd.stats(seq).total == 30

    @pytest.mark.parametrize("value", ["77", "abc"])
    def test_seed_env_var_is_ignored(self, monkeypatch, value):
        """``--seed`` is the only seed: without it the seed is 0, whatever
        ``BIDEGREE_SEED`` holds, and no command reads that variable."""
        argv = ["generate", "--kind", "uniform", "--n", "10", "--total", "25",
                "--min", "0", "--max", "8", "--count", "3"]
        seed_0 = run_cli(argv + ["--seed", "0"])
        assert seed_0[0] == 0 and seed_0 != run_cli(argv + ["--seed", "77"])
        monkeypatch.setenv("BIDEGREE_SEED", value)
        assert run_cli(argv) == seed_0
        code, out, err = run_cli(["bench"], seed_0[1])
        assert (code, err) == (0, "") and out.startswith("records=3 ")
        assert run_cli(["check"], TEN_NODE_RECORD) == (
            0, "GRAPHIC thm3 Ma=6 Mb=6\n", "")

    @pytest.mark.parametrize("count", ["-2", "-1"])
    def test_negative_count_exit_3(self, count):
        code, out, err = run_cli(["generate", "--kind", "counterexample1",
                                  "--Ma", "2", "--Mb", "4", "--count", count])
        assert (code, out) == (3, "")
        assert err == f"error: --count must be at least 0, got {count}\n"

    def test_zero_count_prints_nothing(self):
        assert run_cli(["generate", "--kind", "counterexample1", "--Ma", "2",
                        "--Mb", "4", "--count", "0"]) == (0, "", "")


def generated(*argv):
    """The records ``generate`` prints for ``argv``, as bench's stdin."""
    code, out, err = run_cli(["generate", *argv])
    assert (code, err) == (0, "")
    return out


UNIFORM_N40 = generated("--kind", "uniform", "--n", "40", "--total", "120",
                        "--min", "1", "--max", "8", "--count", "25", "--seed", "2")
COUNT_COLUMNS = slice(0, 5)  # check .. coverage; the times differ per run


class TestBench:
    def test_generated_corpus_report(self):
        code, out, err = run_cli(["bench", "--format", "csv"], UNIFORM_N40)
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert lines[0] == "check,certified,inconclusive,not_graphic,coverage,median_ns,p99_ns"
        rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
        assert [line.split(",")[0] for line in lines[1:]] == [
            "thm2", "thm3", "thm4", "thm5", "thm6", "cor2", "cor3", "cor5",
            "exact",
        ]
        exact_graphic = int(rows["exact"][1])
        for code_name in ("thm2", "thm3", "thm4", "thm5", "thm6", "cor2",
                          "cor3", "cor5"):
            assert int(rows[code_name][1]) <= exact_graphic

    def test_no_loops_reports_no_loop_family_only(self):
        records = generated("--kind", "uniform", "--n", "10", "--total", "20",
                            "--min", "1", "--max", "4", "--count", "5")
        code, out, _ = run_cli(["bench", "--no-loops"], records)
        assert code == 0
        assert "thm4" in out and "thm6" in out and "cor3" in out
        assert "thm3" not in out and "cor5" not in out

    @pytest.mark.parametrize("loops", [True, False])
    def test_certified_counts_match_the_checks(self, loops):
        """Each row counts the verdicts ``check --method`` prints for its
        code under the same policy; the text and CSV reports agree on
        every count column."""
        corpus = UNIFORM_N40 + generated(
            "--kind", "powerlaw", "--n", "30", "--exponent", "2.5",
            "--count", "20", "--seed", "5") + COUNTEREXAMPLE_RECORD + "\n"
        corpus += "1;1\n"  # graphic only with a loop
        records = len(corpus.splitlines())
        policy = ["--loops"] if loops else ["--no-loops"]

        code, csv, err = run_cli(["bench", "--format", "csv", *policy], corpus)
        assert (code, err) == (0, "")
        header, *csv_rows = [line.split(",") for line in csv.splitlines()]
        assert [row[0] for row in csv_rows] == [
            cond.value for cond in bd.Condition
            if loops or cond.certifies_no_loops] + ["exact"]
        for label, certified, inconclusive, not_graphic, *_ in csv_rows:
            _, out, _ = run_cli(["check", "--method", label, *policy], corpus)
            verdicts = [line.split()[0] for line in out.splitlines()]
            assert len(verdicts) == records
            assert (int(certified), int(inconclusive), int(not_graphic)) == tuple(
                verdicts.count(v)
                for v in ("GRAPHIC", "INCONCLUSIVE", "NOT_GRAPHIC"))
        exact_graphic = int(csv_rows[-1][1])
        assert 0 < exact_graphic < records
        code, text, err = run_cli(["bench", *policy], corpus)
        assert (code, err) == (0, "")
        # records=..., then the header and one line per row
        text_rows = [line.split() for line in text.splitlines()[1:]]
        assert [row[COUNT_COLUMNS] for row in text_rows[:len(csv_rows) + 1]] == [
            row[COUNT_COLUMNS] for row in [header, *csv_rows]]

    def test_corpus_file(self, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text(TEN_NODE_RECORD + "\n" + COUNTEREXAMPLE_RECORD + "\n")
        code, out, _ = run_cli(["bench", str(corpus)])
        assert code == 0
        assert "records=2" in out
        # the non-graphic record's violated index shows in the failure summary
        assert "violated indices over non-graphic records: j=3:1" in out

    def test_histogram_pass_only_with_a_non_graphic_record(self, monkeypatch):
        """The violated-index pass runs only when the exact row found a
        non-graphic record; otherwise its histogram would be empty."""
        calls = []

        def counted(seq, loops):
            calls.append(seq)
            return bd.violated_indices(seq, loops)

        monkeypatch.setattr(cli_extra, "violated_indices", counted)
        all_graphic = TEN_NODE_RECORD + "\n1,1;1,1\n"
        code, out, err = run_cli(["bench"], all_graphic)
        assert (code, err, calls) == (0, "", [])
        assert "violated" not in out
        code, out, err = run_cli(["bench"], all_graphic + COUNTEREXAMPLE_RECORD)
        assert (code, err) == (0, "")
        # only on the record the timed exact row found not graphic
        assert calls == [parse_record(COUNTEREXAMPLE_RECORD)]
        assert out.splitlines()[-1] == (
            "violated indices over non-graphic records: j=3:1")

    def test_cor5_row_builds_its_own_profile(self, monkeypatch):
        """cor5's row times the sorted profile with the check, as ``check
        --method cor5`` and ``certify`` build it: one per record and
        repetition, none built outside the timed call."""
        built = []
        real_prepare = sufficient.prepare

        def counted_prepare(seq):
            built.append(seq)
            return real_prepare(seq)

        monkeypatch.setattr(sufficient, "prepare", counted_prepare)
        seqs = [parse_record(line) for line in UNIFORM_N40.splitlines()]
        assert min(seq.stats.min_degree for seq in seqs) >= 1
        code, out, err = run_cli(["bench", "--repeat", "2"], UNIFORM_N40)
        assert (code, err) == (0, "")
        assert built == [seq for seq in seqs for _ in range(2)]

    def test_sum_mismatch_records_are_counted_not_timed(self, tmp_path):
        corpus = tmp_path / "corpus.txt"
        lines = [TEN_NODE_RECORD, "2,1;1,1", "", COUNTEREXAMPLE_RECORD]
        corpus.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(["bench", str(corpus)])
        assert (code, err) == (0, "")
        assert out.splitlines()[0] == (
            "records=2 sum_mismatch=1 repeat=1 policy=loops")

    def test_malformed_record_reports_line_and_exit_3(self, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text(TEN_NODE_RECORD + "\n1,x;1,1\n")
        code, out, err = run_cli(["bench", str(corpus)])
        assert (code, out) == (3, "")
        assert err.startswith("line 2: ")

    def test_empty_corpus(self, tmp_path):
        corpus = tmp_path / "empty.txt"
        corpus.write_text("")
        code, out, _ = run_cli(["bench", str(corpus)])
        assert code == 0
        assert "empty corpus" in out
        # as CSV: the header and no rows
        assert run_cli(["bench", "--format", "csv", str(corpus)]) == (
            0, ",".join(cli_extra._BENCH_COLUMNS) + "\n", "")

    @pytest.mark.parametrize("argv", [["bench"], ["bench", "-"]], ids=["none", "dash"])
    def test_reads_stdin_by_default(self, argv):
        code, out, err = run_cli(argv, TEN_NODE_RECORD + "\n")
        assert (code, err) == (0, "")
        assert out.splitlines()[0] == (
            "records=1 sum_mismatch=0 repeat=1 policy=loops")

    @pytest.mark.parametrize("repeat", ["0", "-2"])
    def test_repeat_below_one_exit_3(self, repeat):
        code, out, err = run_cli(
            ["bench", f"--repeat={repeat}"], TEN_NODE_RECORD + "\n")
        assert code == 3
        assert out == ""
        assert err == f"error: --repeat must be at least 1, got {repeat}\n"

    def test_median_p99_matches_statistics_and_nearest_rank(self):
        rng = SplitMix64(7)
        for size in range(1, 51):
            for top in (20, 10**9):  # with and without repeated values
                samples = [rng.randint(0, top) for _ in range(size)]
                # nearest rank: the least sample with 99% of them at or below
                p99 = min(x for x in samples
                          if 100 * sum(y <= x for y in samples) >= 99 * size)
                assert cli_extra._median_p99(samples) == (
                    int(statistics.median(samples)), p99)


class TestUsageErrors:
    """A command line argparse rejects exits 3, the input-error code, and
    never 2, which ``check`` and ``realize`` give an inconclusive record."""

    @pytest.mark.parametrize("argv", [
        ["check", "--method", "bogus"],
        ["bound", "--n", "x", "--m", "1", "--total", "3"],
        ["generate", "--kind", "uniform", "--count", "many"],
        ["generate", "--n", "5"],
        ["realize", "--no-such-flag"],
        ["bench", "--repeat", "x"],
        [],
    ], ids=["check-method", "bound-n", "generate-count", "generate-kind",
            "realize-flag", "bench-repeat", "no-command"])
    def test_usage_error_exits_3(self, argv, capfd):
        code, out, err = run_cli(argv)
        assert (code, out) == (3, "")
        assert err.startswith("usage: ") and "error: " in err
        # argparse's message goes to main's stderr, not the process's
        assert capfd.readouterr() == ("", "")

    def test_help_still_exits_0(self, capfd):
        out, err = io.StringIO(), io.StringIO()
        with pytest.raises(SystemExit) as exc:
            main(["check", "--help"], stdout=out, stderr=err)
        assert exc.value.code == 0
        assert out.getvalue().startswith("usage: bidegree check ")
        assert err.getvalue() == ""
        assert capfd.readouterr() == ("", "")

    def test_process_streams_are_put_back(self, monkeypatch):
        # main swaps sys.stdout and sys.stderr while argparse runs only
        before = sys.stdout, sys.stderr

        def put_back():
            return sys.stdout is before[0] and sys.stderr is before[1]

        swaps = []
        for name in ("redirect_stdout", "redirect_stderr"):
            monkeypatch.setattr(cli, name, lambda stream, swap=getattr(cli, name):
                                swaps.append(stream) or swap(stream))
        # a command line spelled exactly is read without argparse, so the
        # process's streams are never swapped
        out, err = io.StringIO(), io.StringIO()
        assert main(["check", "--method", "exact", "--no-loops", "-"],
                    stdin=io.StringIO("1,1;1,1\n"), stdout=out, stderr=err) == 0
        assert (swaps, out.getvalue(), err.getvalue()) == (
            [], "GRAPHIC exact\n", "")
        assert put_back()
        out, err = io.StringIO(), io.StringIO()
        with pytest.raises(SystemExit) as exc:
            main(["--help"], stdout=out, stderr=err)
        assert exc.value.code == 0
        assert put_back()
        assert out.getvalue().startswith("usage: bidegree ")
        out, err = io.StringIO(), io.StringIO()
        assert main(["check", "--method", "bogus"], stdout=out, stderr=err) == 3
        assert put_back()
        assert len(swaps) == 4
        assert err.getvalue().startswith("usage: bidegree check ")
        assert "invalid choice: 'bogus'" in err.getvalue()

    def test_console_exit_code(self):
        child = cli_child(["check", "--method", "bogus"],
                          stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE)
        out, err = child.communicate(timeout=60)
        assert (child.returncode, out) == (3, b"")
        assert b"invalid choice: 'bogus'" in err


# tokens a command line is drawn from: the exact spellings, and
# abbreviations, "=" forms, "--", "-", "-5", "", help, unknown options,
# stray values, value tokens that int() or float() reads or rejects, and
# another command's option, which the exact reader leaves to argparse or
# argparse rejects
ARGV_TOKENS = {
    "check": ["--method", "--loops", "--no-loops", "--fallback-exact",
              "--meth", "--fall", "--loop", "--no", "--method=auto",
              "--method=", "--fallback-exact=1", "--format", "dense", "bogus",
              *cli._COMMANDS["check"][2]["--method"]["choices"]],
    "bound": ["--n", "--m", "--total", "--format", "text", "csv", "--tot",
              "--n=4", "--format=csv", "--kind", "--loops", "--repeat"],
    "realize": ["--format", "--loops", "--no-loops", "dense", "edges",
                "--form", "--f", "--format=edges", "--no-loops=", "--method",
                "auto", "exact", "DENSE"],
    "generate": ["--kind", "--n", "--total", "--min", "--max", "--exponent",
                 "--Ma", "--Mb", "--count", "--seed", "--m", "--mi", "--M",
                 "--kind=uniform", "--seed=3", "--exp", "--loops", "--format",
                 "uniform", "extremal", "Uniform"],
    "bench": ["--repeat", "--format", "--loops", "--no-loops", "text", "csv",
              "--rep", "--repeat=2", "--format=", "--method", "auto"],
}
VALUE_TOKENS = ["4", "0", "-1", "1_0", " 7", "x", "2.5", "nan", "-inf"]
SHARED_TOKENS = ["--", "-", "-5", "", "-h", "--help", "--bogus", "-x y",
                 "in.txt", "out.txt", *VALUE_TOKENS]
# the values a well-formed line gives an option of each type
TYPED_VALUES = {int: ["4", "0", "12", "1_0", " 7"],
                float: ["2.5", "3", "nan", "1e3", " 2.1"]}


def well_formed_argv(rng, command):
    """A command line the exact reader reads: a random choice of the
    command's input, one loop flag and its other options, each at most
    once and in a random order, with every required option among them."""
    _, input_help, options = cli._COMMANDS[command]
    groups = [[rng.choice(["-", "in.txt", ""])]] if input_help is not None else []
    required = []
    loop_flag = rng.choice(list(cli._LOOP_FLAGS))
    for spelling, keywords in options.items():
        if spelling in cli._LOOP_FLAGS and spelling != loop_flag:
            continue
        if "action" in keywords:
            group = [spelling]
        elif "choices" in keywords:
            group = [spelling, rng.choice(list(keywords["choices"]))]
        else:
            group = [spelling, rng.choice(TYPED_VALUES[keywords["type"]])]
        (required if keywords.get("required") else groups).append(group)
    groups = rng.sample(groups, rng.randint(0, len(groups))) + required
    rng.shuffle(groups)
    return [token for group in groups for token in group]


def argv_corpus(command, count=2000, seed=2730):
    """Every command line of at most two tokens after ``command``, then
    ``count`` seeded ones of three to six tokens, and ``count`` well-formed
    ones, half of them with one token replaced and a quarter with one
    token inserted."""
    tokens = ARGV_TOKENS[command] + SHARED_TOKENS
    rng = random.Random(seed)
    short = [[]] + [[a] for a in tokens] + [[a, b] for a in tokens for b in tokens]
    drawn = [rng.choices(tokens, k=rng.randint(3, 6)) for _ in range(count)]
    well_formed = []
    for _ in range(count):
        argv = well_formed_argv(rng, command)
        if argv and rng.random() < 0.5:
            argv[rng.randrange(len(argv))] = rng.choice(tokens)
        elif rng.random() < 0.5:
            argv.insert(rng.randint(0, len(argv)), rng.choice(tokens))
        well_formed.append(argv)
    return [[command, *rest] for rest in short + drawn + well_formed]


def reprs(namespace):
    """A namespace's attributes as their reprs, so NaN equals NaN and an
    int never equals a float."""
    return {key: repr(value) for key, value in vars(namespace).items()}


# the fewest command lines of each corpus the reader must read
READ_FLOOR = {"check": 1100, "bound": 500, "realize": 1000, "generate": 540,
              "bench": 940}


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_exact_reader_agrees_with_argparse(command):
    """The reader gives exactly the attributes argparse gives, or None,
    which leaves the command line to argparse; it gives None for every
    command line argparse exits on (help or a usage error)."""
    parser = cli.build_parser()
    read = 0
    for argv in argv_corpus(command):
        exact = cli._read_exact(argv)
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                parsed = reprs(parser.parse_args(argv))
        except SystemExit:
            parsed = None
        if exact is not None:
            assert reprs(exact) == parsed, argv
            read += 1
    # the reader read a good share of them
    assert read > READ_FLOOR[command]


class TestInputErrors:
    """An input the CLI cannot read gives one line on stderr and exit 3,
    never a traceback and never exit 1, the code for a non-graphic record."""

    COMMANDS = [["check"], ["realize"], ["bench"]]

    @staticmethod
    def assert_one_line_error(err):
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", COMMANDS)
    def test_missing_input_path(self, tmp_path, command):
        missing = tmp_path / "missing.txt"
        code, out, err = run_cli(command + [str(missing)])
        assert (code, out) == (3, "")
        self.assert_one_line_error(err)
        assert str(missing) in err

    @pytest.mark.parametrize("command", COMMANDS)
    def test_directory_as_input(self, tmp_path, command):
        code, out, err = run_cli(command + [str(tmp_path)])
        assert (code, out) == (3, "")
        self.assert_one_line_error(err)

    CLOSED_STDIN = (3, "", "error: cannot read -: Bad file descriptor\n")

    @pytest.mark.parametrize("command", COMMANDS)
    def test_closed_stdin(self, monkeypatch, command):
        """Python sets sys.stdin to None when fd 0 is closed."""
        monkeypatch.setattr(sys, "stdin", None)
        out, err = io.StringIO(), io.StringIO()
        code = main(command, stdout=out, stderr=err)
        assert (code, out.getvalue(), err.getvalue()) == self.CLOSED_STDIN

    @pytest.mark.parametrize("command", COMMANDS)
    def test_closed_stdin_in_a_child(self, command):
        # fd 0 is closed in the child just before it starts Python
        proc = cli_child(command, preexec_fn=lambda: os.close(0),
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        stdout, stderr = proc.communicate(timeout=120)
        assert (proc.returncode, stdout.decode(), stderr.decode()) == (
            self.CLOSED_STDIN)

    # the two commands that print a verdict per record
    VERDICT_COMMANDS = [["check"], ["realize"]]
    CLOSED_STDOUT = (3, "error: cannot write -: Bad file descriptor\n")

    @pytest.mark.parametrize("command", VERDICT_COMMANDS)
    def test_closed_stdout(self, monkeypatch, command):
        """Python sets sys.stdout to None when fd 1 is closed: the run
        stops before it reads any input."""
        monkeypatch.setattr(sys, "stdout", None)
        stdin, err = io.StringIO("1;1\n"), io.StringIO()
        code = main(command, stdin=stdin, stderr=err)
        assert (code, err.getvalue()) == self.CLOSED_STDOUT
        assert stdin.tell() == 0

    @pytest.mark.parametrize("command", VERDICT_COMMANDS)
    def test_closed_stdout_in_a_child(self, command):
        # fd 1 is closed in the child just before it starts Python
        proc = cli_child(command, preexec_fn=lambda: os.close(1),
                         stdin=subprocess.PIPE, stderr=subprocess.PIPE)
        _, stderr = proc.communicate(b"1;1\n", timeout=120)
        assert (proc.returncode, stderr.decode()) == self.CLOSED_STDOUT

    # a malformed line, then a graphic record: what stdout gets
    CLOSED_STDERR_OUT = {"check": "GRAPHIC thm3 Ma=1 Mb=1\n", "realize": "1\n"}

    @pytest.mark.parametrize("command", VERDICT_COMMANDS)
    def test_closed_stderr(self, monkeypatch, command):
        """With sys.stderr None, the messages are dropped and the exit
        codes stay: 3 for a malformed line, and for a usage error."""
        monkeypatch.setattr(sys, "stderr", None)
        out = io.StringIO()
        code = main(command, stdin=io.StringIO("x\n1;1\n"), stdout=out)
        assert (code, out.getvalue()) == (3, self.CLOSED_STDERR_OUT[command[0]])
        out = io.StringIO()
        assert main([*command, "--bogus"], stdout=out) == 3
        assert out.getvalue() == ""

    @pytest.mark.parametrize("command", VERDICT_COMMANDS)
    @pytest.mark.parametrize("fd2", ["closed", "read-only"])
    def test_closed_stderr_in_a_child(self, command, fd2):
        """fd 2 closed (Python's stderr is None) or open only for reading,
        as a launcher that opened a file in the gap may leave it (a write
        fails with EBADF): either way the run is quiet and exits 3."""
        def close_stderr():
            os.close(2)
            if fd2 == "read-only":
                os.open(os.devnull, os.O_RDONLY)  # the lowest free fd, 2

        proc = cli_child(command, preexec_fn=close_stderr,
                         stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        stdout, _ = proc.communicate(b"x\n1;1\n", timeout=120)
        assert (proc.returncode, stdout.decode()) == (
            3, self.CLOSED_STDERR_OUT[command[0]])

    @pytest.mark.parametrize("command", COMMANDS)
    def test_input_not_utf8(self, tmp_path, command):
        """A line that is not UTF-8 is one malformed record: it is reported
        by number and exits 3, and the lines around it are still read."""
        corpus = tmp_path / "latin1.txt"
        corpus.write_bytes(b"1,1;1,1\n\xff\xfe;1\n")
        code, out, err = run_cli(command + [str(corpus)])
        assert code == 3
        assert err == "line 2: not UTF-8 text\n"
        assert out == {"check": "GRAPHIC thm3 Ma=1 Mb=1\n",
                       "realize": "10\n01\n",
                       "bench": ""}[command[0]]

    def test_stdin_not_utf8_past_the_first_chunk(self):
        # the bad byte sits well past the first 8 KiB the stream decodes
        data = b"1;1\n" * 5000 + b"2,\xe9;1,1\n1;1\n"
        stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        code = main(["check"], stdin=stdin, stdout=out, stderr=err)
        assert code == 3
        assert err.getvalue() == "line 5001: not UTF-8 text\n"
        assert out.getvalue() == "GRAPHIC thm3 Ma=1 Mb=1\n" * 5001

    def test_file_and_stdin_split_lines_alike(self, tmp_path):
        """A line ends at \\n in a file and on stdin alike: a \\r\\n ending
        is fine and a bare \\r stays inside its line.  Only a child process
        reads the real stdin's bytes."""
        data = b"1;1\r\n1;1\r2,0;1,1\n\xff;1\n3;1\n"
        path = tmp_path / "records.txt"
        path.write_bytes(data)
        from_file = run_cli(["check", str(path)])
        assert from_file == (
            3,
            "GRAPHIC thm3 Ma=1 Mb=1\n",
            "line 2: plain entries must be ASCII digits, got '\\r'\n"
            "line 3: not UTF-8 text\n"
            "line 4: in-degree entry 3 exceeds node count 1\n",
        )
        out, err = io.StringIO(), io.StringIO()
        stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
        code = main(["check"], stdin=stdin, stdout=out, stderr=err)
        assert (code, out.getvalue(), err.getvalue()) == from_file
        with open(path, "rb") as stdin:
            proc = cli_child(["check"], stdin=stdin,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            stdout, stderr = proc.communicate(timeout=120)
        assert (proc.returncode, stdout.decode(), stderr.decode()) == from_file

    @pytest.mark.parametrize("entry", ["1.5", "true", '"1"'])
    def test_json_entries_not_integers(self, entry):
        """A float, a bool or a string entry is one malformed record."""
        line = '{"in": [%s], "out": [1]}' % entry
        message = f"degree entries must be integers, got {json.loads(entry)!r}"
        with pytest.raises(bd.BidegreeError) as info:
            parse_record(line)
        assert str(info.value) == message
        code, out, err = run_cli(["check"], line + "\n1;1\n")
        assert (code, out) == (3, "GRAPHIC thm3 Ma=1 Mb=1\n")
        assert err == f"line 1: {message}\n"

    @pytest.mark.parametrize("line, message", [
        (";", "plain entries must not be empty"),
        ("1,;1,0", "plain entries must not be empty"),
        (",1;0,1", "plain entries must not be empty"),
        ("1;1,", "plain entries must not be empty"),
        ("1;1;1", "plain record needs exactly one ';'"),
        ("2,1", "plain record needs ';' between in- and out-degrees"),
        ("01;1", "plain entries must not have leading zeros, got '01'"),
        ("\u00b2;1", "plain entries must be ASCII digits, got '\u00b2'"),
        ("1;\u0661", "plain entries must be ASCII digits, got '\u0661'"),
        ("+1;1", "plain entries must be ASCII digits, got '+'"),
        ("1_0;1", "plain entries must be ASCII digits, got '_'"),
        ("1 1;1", "plain entries must be ASCII digits, got ' '"),
        ("3,0;1,2", "in-degree entry 3 exceeds node count 2"),
        ("1,1;1", "in-degree length 2 != out-degree length 1"),
    ], ids=["lone-semicolon", "empty-in-last", "empty-in-first", "empty-out-last",
            "two-semicolons", "no-semicolon", "leading-zero", "superscript",
            "arabic-indic", "sign", "underscore", "inner-space", "over-n",
            "lengths"])
    def test_plain_record_shape(self, line, message):
        """A malformed plain line is one malformed record, with a message
        of its own rather than int()'s."""
        with pytest.raises(bd.BidegreeError) as info:
            parse_record(line)
        assert str(info.value) == message
        code, out, err = run_cli(["check"], line + "\n1;1\n")
        assert (code, out) == (3, "GRAPHIC thm3 Ma=1 Mb=1\n")
        assert err == f"line 1: {message}\n"

    def test_plain_entry_past_the_int_digit_limit(self):
        """int() also refuses an entry longer than the interpreter's digit
        limit; the first bad entry in line order names the message, so
        such an entry before an empty one keeps int()'s own."""
        long_entry = "9" * 5000
        try:
            int(long_entry)
            message = "plain entries must not be empty"  # no limit set
        except ValueError as exc:
            message = str(exc)
        with pytest.raises(ValueError) as info:
            parse_record(f"{long_entry},;1,1")
        assert str(info.value) == message
        with pytest.raises(bd.BidegreeError, match="must not be empty"):
            parse_record(f"1,;{long_entry},1")
        code, out, err = run_cli(["check"], f"1;{long_entry},\n1;1\n")
        assert (code, out) == (3, "GRAPHIC thm3 Ma=1 Mb=1\n")
        assert err == f"line 1: {message}\n"

    @pytest.mark.parametrize("value", ["5", "null", '{"a": 1}', '"11"', "true"])
    @pytest.mark.parametrize("key", ["in", "out"])
    def test_json_entries_not_an_array(self, key, value):
        fields = {"in": "[1]", "out": "[1]", key: value}
        line = '{"in": %s, "out": %s}' % (fields["in"], fields["out"])
        with pytest.raises(bd.BidegreeError, match='"in" and "out" arrays'):
            parse_record(line)
        code, out, err = run_cli(["check"], line + "\n1;1\n")
        assert (code, out) == (3, "GRAPHIC thm3 Ma=1 Mb=1\n")
        assert err == 'line 1: JSON record needs "in" and "out" arrays\n'

    @pytest.mark.parametrize("command", COMMANDS)
    def test_json_nested_too_deeply(self, command):
        """Nesting deep enough to exhaust the JSON decoder's recursion is
        one malformed record, not a traceback.  10,000 levels exhaust it
        on every supported version; 2000 end before CPython 3.13's does."""
        line = '{"in": ' + "[" * 10000
        code, out, err = run_cli(command, line + "\n1,1;1,1\n")
        assert code == 3
        assert err == "line 1: JSON record nested too deeply\n"
        assert out == {"check": "GRAPHIC thm3 Ma=1 Mb=1\n",
                       "realize": "10\n01\n",
                       "bench": ""}[command[0]]

    def test_nan_exponent(self):
        code, out, err = run_cli(
            ["generate", "--kind", "powerlaw", "--n", "6", "--exponent", "nan"])
        assert (code, out) == (3, "")
        assert err == "error: exponent must exceed 2, got nan\n"


@cache
def dense_4mb_record():
    """A record whose dense 2000 x 2000 matrix is 4 MB of text."""
    return format_record(bd.gen_uniform(2000, 14_000, 1, 2000, seed=1))


class TestBrokenPipe:
    """A reader that stops early (``| head -1``) ends the run quietly."""

    @pytest.mark.parametrize("command", ["realize", "check"])
    def test_closed_stdout_is_quiet(self, tmp_path, command):
        if command == "realize":
            corpus = dense_4mb_record() + "\n"
        else:  # 50k verdict lines, 1 MB
            corpus = TEN_NODE_RECORD + "\n" + "1,1;1,1\n" * 50_000
        path = tmp_path / "corpus.txt"
        path.write_text(corpus)
        # a buffered stdout fails at a flush, an unbuffered one at a write
        for unbuffered in (True, False):
            proc = cli_child([command, str(path)], unbuffered=unbuffered,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            assert proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
            proc.stderr.close()
            assert proc.wait(timeout=120) == 141, unbuffered
            assert err == b"", unbuffered

    # `2>&1 | head -1` and `2>&1 >/dev/null | head -1`
    @pytest.mark.parametrize("stdout", [subprocess.STDOUT, subprocess.DEVNULL],
                             ids=["stdout-too", "stderr-only"])
    @pytest.mark.parametrize("prefix", [
        ["-m", "bidegree.cli"],
        # a tracer attached: the process exits through interpreter teardown
        ["-c", "import sys; from bidegree.cli import entry; "
               "sys.settrace(lambda *args: None); entry()"],
    ], ids=["cli", "traced"])
    def test_closed_stderr_exits_141(self, tmp_path, stdout, prefix):
        """50k malformed lines, each an error line on stderr, and then 50k
        good ones: the reader of stderr goes away while the errors are
        written.  A line-buffered stderr keeps the failed line, which
        must not fail again when the process ends."""
        path = tmp_path / "corpus.txt"
        path.write_text("1,x;1,1\n" * 50_000 + "1,1;1,1\n" * 50_000)
        if stdout == subprocess.STDOUT:
            streams = {"stdout": subprocess.PIPE, "stderr": stdout}
        else:
            streams = {"stdout": stdout, "stderr": subprocess.PIPE}
        for unbuffered in (True, False):
            proc = python_child([*prefix, "check", str(path)],
                                unbuffered=unbuffered, **streams)
            reader = proc.stdout or proc.stderr
            assert reader.readline() == (
                b"line 1: plain entries must be ASCII digits, got 'x'\n")
            reader.close()
            assert proc.wait(timeout=120) == 141, unbuffered


# a command line for each exit code, 0 to 3, and a 4 MB dense matrix
EXIT_CASES = {
    "graphic": (["check"], "\n".join([TEN_NODE_RECORD, "1,1;1,1"] * 50), 0),
    "not-graphic": (["check", "--method", "exact"],
                    "\n".join([TEN_NODE_RECORD, COUNTEREXAMPLE_RECORD] * 50), 1),
    "inconclusive": (["check", "--method", "thm3"], COUNTEREXAMPLE_RECORD, 2),
    "malformed": (["check"], "\n".join([TEN_NODE_RECORD, "1,x;1,1"] * 50), 3),
    "realize-4MB": (["realize", "--format", "dense"], None, 0),
}

# a child that keeps an object whose finalizer writes to stderr and
# registers an atexit callback that does, then runs the command line
TEARDOWN_PROBE = """
import atexit, sys
from bidegree.cli import entry

class Finalized:
    def __del__(self, write=sys.stderr.write):
        write("torn down\\n")

finalized = Finalized()
atexit.register(sys.stderr.write, "atexit ran\\n")
entry()
"""


class TestProcessExit:
    """A CLI process ends once its output is flushed, without interpreter
    teardown, and loses no byte of its output doing so."""

    @pytest.mark.parametrize("case", EXIT_CASES)
    def test_child_output_equals_main(self, tmp_path, case):
        """Buffered or not, to a file or a pipe, a child prints what
        ``main`` prints in process and exits with the code it returns."""
        argv, records, code = EXIT_CASES[case]
        path = tmp_path / "records.txt"
        path.write_text((records or dense_4mb_record()) + "\n")
        out, err = io.StringIO(), io.StringIO()
        assert main([*argv, str(path)], stdout=out, stderr=err) == code
        expected = (code, out.getvalue().encode(), err.getvalue().encode())
        assert expected[1]
        for unbuffered in (True, False):
            with open(tmp_path / "out.txt", "w+b") as out_file:
                for stdout in (subprocess.PIPE, out_file):
                    proc = cli_child([*argv, str(path)], unbuffered=unbuffered,
                                     stdin=subprocess.DEVNULL, stdout=stdout,
                                     stderr=subprocess.PIPE)
                    printed, printed_err = proc.communicate(timeout=120)
                    if stdout is out_file:
                        out_file.seek(0)
                        printed = out_file.read()
                    assert (proc.returncode, printed, printed_err) == expected, (
                        unbuffered, stdout)

    def test_teardown_is_skipped_and_atexit_runs_once(self):
        proc = python_child(["-c", TEARDOWN_PROBE, "check"],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
        out, err = proc.communicate(b"1,1;1,1\n", timeout=60)
        assert (proc.returncode, out, err) == (
            0, b"GRAPHIC thm3 Ma=1 Mb=1\n", b"atexit ran\n")

    def test_profiled_child_prints_its_profile(self, tmp_path):
        """cProfile prints its report as the interpreter exits, after the
        command's output."""
        path = tmp_path / "records.txt"
        path.write_text(f"{TEN_NODE_RECORD}\n{COUNTEREXAMPLE_RECORD}\n")
        proc = python_child(["-m", "cProfile", "-m", "bidegree.cli", "check",
                             "--method", "exact", str(path)],
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
        out, err = proc.communicate(timeout=60)
        assert out.startswith(b"GRAPHIC exact\nNOT_GRAPHIC exact j=3\n")
        assert b" function calls " in out and b"Ordered by:" in out
        assert err == b""


# (command line, exit code, the stream it prints to, SHA-256 of that
# stream) of ``python -m bidegree.cli`` at COLUMNS=80, taken while the
# parser still held every command's arguments; the other stream stays
# empty.  The same under CPython 3.10-3.12.
GOLDEN_PARSER_OUTPUT = [
    ("", 3, "stderr",
     "79977186ee7a0a26f6c19ca96c464a499a076d93bd876f5a45d26ea54bb30273"),
    ("--help", 0, "stdout",
     "16fa7634c8a5b09719dcf5f7529e5cb5150e3caeb7bde5da4f46485c490c2d4f"),
    ("check --help", 0, "stdout",
     "f0b6117ba736cce476e551a7d6b16e1ca2ea7abda220f56e8a96c422a377a68e"),
    ("bound --help", 0, "stdout",
     "954af95dcd5af62cc4eb6c68509dfc1ac3f2e7ca88c7ca2e73f6830211722716"),
    ("realize --help", 0, "stdout",
     "597790e6c39187cd6749ec71739145a9a7f68de05883e7957fa0e79754dab242"),
    ("generate --help", 0, "stdout",
     "4420863649578bf979e1e81c30e45ed0726ee55b511ccec6b05f9d7b8e007545"),
    ("bench --help", 0, "stdout",
     "9f9ef67164b7b4ac7e921f9a6dd1cfe07a345fd75dc1201bcfc7c25273f255b3"),
    ("check --method bogus", 3, "stderr",
     "d5a632d2045473e0bef7a820df9c2ddf6efca9470ba68e9b2e0d5bf13f464cf9"),
    ("generate --kind bogus", 3, "stderr",
     "f20dd124f9a13856084cc918be1efb0ab375fe374e74cb429479bab6a6b906d8"),
    # an option the command does not take is rejected by the top-level
    # parser, whose usage line lists every command
    ("realize --bogus", 3, "stderr",
     "5943f90a5646da47f676962782ff5a67ddf8e0e36e3d0c4086ff8b392c342cd6"),
    ("check --bogus", 3, "stderr",
     "5943f90a5646da47f676962782ff5a67ddf8e0e36e3d0c4086ff8b392c342cd6"),
]
# CPython 3.13 wraps the generate usage line after "[-h]", not after "--kind"
GOLDEN_PARSER_OUTPUT_3_13 = {
    "generate --help":
        "a385a238173b266e8c6dd4c837dd4465613cd2209d8703f7d62f2a93fdfcbd9a",
    "generate --kind bogus":
        "c85ef7a5483ae2ad8c23264f9747bd84209d9c8962ad3083a14c2db56e04806f",
}


@pytest.mark.parametrize("args,code,stream,digest", GOLDEN_PARSER_OUTPUT,
                         ids=[row[0] or "no-command" for row in GOLDEN_PARSER_OUTPUT])
def test_parser_output_is_byte_identical(args, code, stream, digest,
                                        monkeypatch):
    """The help and usage errors of a parser that holds one command's
    arguments are those of the parser that held them all."""
    if sys.version_info >= (3, 13):
        digest = GOLDEN_PARSER_OUTPUT_3_13.get(args, digest)
    monkeypatch.setenv("COLUMNS", "80")
    child = cli_child(args.split(), stdin=subprocess.DEVNULL,
                      stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out, err = child.communicate(timeout=60)
    printed = {"stdout": out, "stderr": err}
    assert child.returncode == code
    assert hashlib.sha256(printed.pop(stream)).hexdigest() == digest
    assert printed.popitem()[1] == b""


class CountedWrites(io.StringIO):
    """A stdout that records each ``write`` call."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


@pytest.mark.parametrize("argv", [
    ["check", "--method", "auto", "--fallback-exact"],
    ["check", "--method", "thm4", "--no-loops"],
    ["realize", "--format", "dense"],
    ["realize", "--format", "edges", "--no-loops"],
    ["generate", "--kind", "uniform", "--n", "6", "--total", "12", "--min", "1",
     "--max", "4", "--count", "100"],
    ["bound", "--n", "10", "--m", "1", "--total", "40"],
    ["bound", "--n", "10", "--m", "1", "--total", "40", "--format", "csv"],
    ["bench"],
    ["bench", "--format", "csv"],
])
def test_one_write_per_output_line(argv):
    """Every command hands stdout whole lines, their ends included: on an
    unbuffered stdout every write is a system call.  ``realize`` writes
    each of these records, the blank line before it included, at once,
    and every other line goes out on its own."""
    out = CountedWrites()
    stdin = "\n".join([TEN_NODE_RECORD, COUNTEREXAMPLE_RECORD, "2,1;1,1",
                       "1,1;1,1"]) + "\n"
    main(argv, stdin=io.StringIO(stdin), stdout=out, stderr=io.StringIO())

    lines = out.getvalue().splitlines()
    assert len(lines) >= 2
    if argv[0] == "realize":
        # no output line is blank but the one between two records
        first, *rest = out.getvalue()[:-1].split("\n\n")
        assert out.writes == [first + "\n"] + [f"\n{text}\n" for text in rest]
        assert len(out.writes) == 4
    else:
        assert out.writes == [line + "\n" for line in lines]
    if argv[0] == "generate":
        assert len(out.writes) == 100


@pytest.mark.parametrize("block", [None, 64, 5], ids=["64KiB", "64", "5"])
@pytest.mark.parametrize("fmt", ["dense", "edges"])
def test_realize_writes_records_in_blocks_of_whole_lines(fmt, block,
                                                         monkeypatch):
    """``realize`` writes each record, with the blank line before it, in
    blocks of whole lines of at most ``cli._BLOCK`` characters, a longer
    line alone, and so a record that fits in one block in one write.  The
    blocks join to the same bytes whatever their size.  The corpus has a
    record past 64 KiB in either format."""
    big = [bd.gen_uniform(n, 9 * n, 1, n, seed=n) for n in (300, 1000)]
    # the n = 300 matrix and the n = 1000 edge list are past 64 KiB
    assert 300 * 301 > 1 << 16
    assert sum(len(f"{i} {j}\n") for i, j in bd.realize(big[1]).edges()) > 1 << 16
    stdin = "\n".join([TEN_NODE_RECORD, COUNTEREXAMPLE_RECORD, "2,1;1,1",
                       *map(format_record, big), "1;1"]) + "\n"

    def writes():
        out = CountedWrites()
        main(["realize", "--format", fmt], stdin=io.StringIO(stdin), stdout=out,
             stderr=io.StringIO())
        return out

    expected = writes().getvalue()
    if block is not None:
        monkeypatch.setattr(cli, "_BLOCK", block)
    out = writes()
    assert out.getvalue() == expected
    # a record's first write starts with the blank line before it
    records = []
    for text in out.writes:
        assert text.endswith("\n") and "\n\n" not in text
        assert len(text) <= cli._BLOCK or text.count("\n") == 1
        if text.startswith("\n") or not records:
            records.append([])
        records[-1].append(text)
    assert len(records) == 6
    for texts in records:
        if len("".join(texts)) <= cli._BLOCK:
            assert len(texts) == 1
    if block is None:
        assert [len(texts) > 1 for texts in records] == [
            False, False, False, fmt == "dense", True, False]


@pytest.mark.parametrize("argv", [["check"], ["realize", "--format", "edges"],
                                  ["realize", "--format", "dense"]],
                         ids=["check", "realize-edges", "realize-dense"])
def test_stdout_bytes_do_not_depend_on_buffering(argv):
    """A child writes the same stdout bytes, and exits alike, whether its
    stdout is buffered or not."""
    corpus = generated("--kind", "powerlaw", "--n", "60", "--exponent", "2.5",
                       "--count", "40", "--seed", "4").encode()
    runs = []
    for unbuffered in (False, True):
        child = cli_child(argv, unbuffered=unbuffered, stdin=subprocess.PIPE,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        out, err = child.communicate(corpus, timeout=120)
        runs.append((child.returncode, out, err))
    assert runs[0][1]
    assert runs[0] == runs[1]


@pytest.mark.parametrize("argv,stdin,count", [
    (["check"], "1,x;1\n1,1;1,1\n1;\n", 2),
    (["check", os.path.join(os.devnull, "missing.txt")], "", 1),
    (["bound", "--n", "10", "--m", "5", "--total", "40"], "", 1),
    (["generate", "--kind", "uniform", "--count", "-1"], "", 1),
    (["generate", "--kind", "powerlaw", "--n", "6", "--exponent", "nan"], "", 1),
    (["bench", "--repeat", "0"], "", 1),
])
def test_one_write_per_error_line(argv, stdin, count):
    """Each stderr message goes out in one write, its line end included."""
    err = CountedWrites()
    main(argv, stdin=io.StringIO(stdin), stdout=io.StringIO(), stderr=err)
    assert len(err.writes) == count
    assert all(text.endswith("\n") and text.count("\n") == 1
               for text in err.writes)


def test_one_write_per_realize_error_line(monkeypatch):
    def failing(seq, allow_loops=True):
        raise RuntimeError("greedy wiring failed")

    monkeypatch.setattr(REALIZE_MODULE, "realize", failing)
    err = CountedWrites()
    main(["realize"], stdin=io.StringIO("1;1\n1;1\n"), stdout=io.StringIO(),
         stderr=err)
    assert err.writes == ["line 1: greedy wiring failed\n",
                          "line 2: greedy wiring failed\n"]
