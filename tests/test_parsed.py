"""A sequence parsed from a plain line against one built from its vectors.

``parse_record`` validates a plain line from the counts of its entry
strings and decodes the vectors only when they are first read; the exact
checks read those counts.  A sequence built by ``new_sequence`` counts
its vectors inside each check.  Every observable must agree between the
two, whichever is read first, and a line that fails validation must raise
the error, type and message, the vectors raise.
"""

import copy
import io
import pickle
import sys
import threading

import pytest

import bidegree as bd
from bidegree import cli, core
from bidegree.cli import format_record, parse_record
from conftest import equal_sum_vector_pairs, random_records


def _pickled(seq):
    twin = pickle.loads(pickle.dumps(seq))
    return twin, twin.stats


# each observable is read from a freshly parsed sequence, so it is the
# first thing read there: the checks run before any vector is decoded
OBSERVABLES = {
    "stats": bd.stats,
    "n": lambda seq: seq.n,
    "vectors": lambda seq: (seq.in_degrees, seq.out_degrees),
    "hash": hash,
    "repr": repr,
    "pickle": _pickled,
    "copy": lambda seq: (copy.copy(seq), copy.deepcopy(seq)),
    "format_record": format_record,
    "check_with_loops": bd.check_with_loops,
    "check_no_loops": bd.check_no_loops,
    "violated_loops": lambda seq: bd.violated_indices(seq, True),
    "violated_no_loops": lambda seq: bd.violated_indices(seq, False),
    **{
        f"certify_{'loops' if loops else 'no_loops'}_{fallback}": (
            lambda seq, loops=loops, fallback=fallback:
            bd.certify(seq, loops, fallback)
        )
        for loops in (True, False)
        for fallback in (True, False)
    },
    "realize_loops": lambda seq: bd.realize(seq, True),
    "realize_no_loops": lambda seq: bd.realize(seq, False),
}


def assert_agree(a, b, observables=OBSERVABLES):
    built = bd.new_sequence(a, b)
    line = format_record(built)
    for name, observe in observables.items():
        parsed = parse_record(line)
        assert observe(parsed) == observe(built), (name, line)
        assert parsed == built and built == parsed, (name, line)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_every_small_record(n):
    """Every record of ``n <= 4`` nodes with entries up to ``n``; at
    ``n = 4`` the checks, which most of the observables are, on all of
    them and the rest on every fourth."""
    cheap = {
        name: OBSERVABLES[name]
        for name in ("stats", "check_with_loops", "check_no_loops",
                     "certify_loops_True", "certify_no_loops_True")
    }
    for k, (a, b) in enumerate(equal_sum_vector_pairs(n, n)):
        assert_agree(a, b, OBSERVABLES if n < 4 or k % 4 == 0 else cheap)


def test_seeded_fuzz_records():
    for a, b in random_records(seed=2501, count=1500, n_lo=1, n_hi=30):
        assert_agree(a, b)


@pytest.mark.parametrize("loops", [True, False])
def test_power_law_records(loops):
    """Heavy tails reach thm5, thm6 and the exact fallback, and cor5
    without the fallback, which skips it."""
    fired = {False: set(), True: set()}
    for seed in range(40):
        seq = bd.gen_powerlaw(300, 2.3, seed=seed)
        assert_agree(seq.in_degrees, seq.out_degrees)
        for fallback in (False, True):
            outcome = bd.certify(parse_record(format_record(seq)), loops, fallback)
            fired[fallback].add(outcome.certificate.condition.value
                                if outcome.certificate else outcome.verdict.value)
    assert fired[True] >= ({"thm5", "GRAPHIC"} if loops else {"thm6", "GRAPHIC"})
    assert "cor5" not in fired[True]
    if loops:
        assert "cor5" in fired[False]


def test_counterexample_records_are_not_graphic_with_a_witness():
    """counterexample1 records fail the group-end test and are decided by
    the full scan, with loops and without."""
    witnesses = set()
    for max_in in range(2, 10):
        for max_out in range(3, 10):
            for extra in (0, 3):
                seq = bd.gen_counterexample1(
                    max_in, max_out, max(max_in, max_out) + extra)
                assert_agree(seq.in_degrees, seq.out_degrees)
                for check in (bd.check_with_loops, bd.check_no_loops):
                    outcome = check(parse_record(format_record(seq)))
                    assert outcome.verdict is bd.Verdict.NOT_GRAPHIC
                    witnesses.add(outcome.witness)
    assert len(witnesses) > 3


# lines whose every entry is canonical and within the table's limit once a
# record of 12 in-degrees has been read, but that fail validation: the
# error of the first check they fail, in validation's order (length, then
# range, in-degrees first, then sums)
COUNT_FAILURES = [
    ("5,0;1,4", bd.DegreeExceedsN, "in-degree entry 5 exceeds node count 2"),
    ("1,4;5,0", bd.DegreeExceedsN, "in-degree entry 4 exceeds node count 2"),
    ("0,1;3,0", bd.DegreeExceedsN, "out-degree entry 3 exceeds node count 2"),
    ("2,2;12,2", bd.DegreeExceedsN, "out-degree entry 12 exceeds node count 2"),
    ("1,1;2", bd.LengthMismatch, "in-degree length 2 != out-degree length 1"),
    ("1;1,0", bd.LengthMismatch, "in-degree length 1 != out-degree length 2"),
    ("2,0;1,0", bd.SumMismatch, "sum of in-degrees 2 != sum of out-degrees 1"),
    ("0,0,0;0,0,1", bd.SumMismatch,
     "sum of in-degrees 0 != sum of out-degrees 1"),
    # length before range and sums
    ("9,9;1", bd.LengthMismatch, "in-degree length 2 != out-degree length 1"),
    ("1;9,0,0", bd.LengthMismatch, "in-degree length 1 != out-degree length 3"),
    # range before sums, and in-degrees before out-degrees
    ("5,0;1,1", bd.DegreeExceedsN, "in-degree entry 5 exceeds node count 2"),
    ("0,0;7,0", bd.DegreeExceedsN, "out-degree entry 7 exceeds node count 2"),
    ("0,3;3,0", bd.DegreeExceedsN, "in-degree entry 3 exceeds node count 2"),
    ("2,0,4;3,9,0", bd.DegreeExceedsN, "in-degree entry 4 exceeds node count 3"),
    # the first entry out of range in line order, not the largest
    ("1,4,5;0,0,0", bd.DegreeExceedsN, "in-degree entry 4 exceeds node count 3"),
]


class TestCountFailures:
    @pytest.fixture(autouse=True)
    def long_record_read(self, monkeypatch):
        monkeypatch.setattr(cli, "_DECIMALS", cli._Decimals())
        parse_record(",".join(map(str, range(12))) + ";" + ",".join(["6"] * 11 + ["0"]))
        assert cli._DECIMALS.limit == 12

        def diagnosed(text):
            raise AssertionError(f"the table missed an entry of {text!r}")

        monkeypatch.setattr(cli, "_diagnose_plain", diagnosed)

    @pytest.mark.parametrize("line, error, message", COUNT_FAILURES,
                             ids=[line for line, _, _ in COUNT_FAILURES])
    def test_error_and_message(self, line, error, message):
        with pytest.raises(error) as raised:
            parse_record(line)
        assert type(raised.value) is error and str(raised.value) == message
        # the same error the vectors raise
        left, right = line.split(";")
        with pytest.raises(error, match=f"^{message}$"):
            bd.new_sequence(map(int, left.split(",")), map(int, right.split(",")))

    def test_check_reports_them_in_order(self):
        lines = [line for line, _, _ in COUNT_FAILURES] + ["1,0;0,1"]
        code, out, err = _run_check(lines)
        sums = [i for i, (_, error, _) in enumerate(COUNT_FAILURES, 1)
                if error is bd.SumMismatch]
        assert code == 3
        assert out == "NOT_GRAPHIC sum-mismatch\n" * len(sums) + "GRAPHIC thm3 Ma=1 Mb=1\n"
        assert err.splitlines() == [
            f"line {i}: {message}"
            for i, (_, error, message) in enumerate(COUNT_FAILURES, 1)
            if error is not bd.SumMismatch
        ]


def _run_check(lines, *argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.main(["check", *argv], stdin=io.StringIO("".join(
        line + "\n" for line in lines)), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


class TestVectorsOnDemand:
    def test_certificates_and_exact_loops_decode_no_vectors(self, monkeypatch):
        """A record thm3 or thm4 certifies, any record the with-loops
        exact check decides, and a record the loop-free group ends
        certify, is settled from its counts: the vectors are never
        decoded."""
        lines = [format_record(bd.gen_uniform(100, 700, 1, 100, seed=s))
                 for s in range(50)]
        lines += ["2,2,2,0;4,2,0,0", "6,6,6,6,6,4,2,2,1,1;6,6,6,6,6,4,2,2,1,1"]

        def decoded(*args):
            raise AssertionError("vectors decoded")

        monkeypatch.setattr(core, "_decoded", decoded)
        code, out, err = _run_check(lines[:50], "--loops")
        assert (code, err) == (0, "") and out.count("GRAPHIC thm3 ") == 50
        code, out, err = _run_check(lines[:50], "--no-loops")
        assert (code, err) == (0, "") and out.count("GRAPHIC thm4 ") == 50
        code, out, err = _run_check(lines[:50], "--method", "exact", "--no-loops")
        assert (code, err) == (0, "") and out == "GRAPHIC exact\n" * 50
        code, out, err = _run_check(lines, "--method", "exact")
        assert (code, err) == (1, "")
        assert out.splitlines()[-2:] == ["NOT_GRAPHIC exact j=3", "GRAPHIC exact"]

    def test_fallback_ladder_decodes_no_vectors(self, monkeypatch):
        """thm2 tests ``Ma == Mb`` before it compares the vectors, so on
        power-law records with ``Ma != Mb`` neither thm2 nor the ladder
        with the exact fallback decodes them, whichever rung decides."""
        seqs = [bd.gen_powerlaw(300, 2.3, seed=seed) for seed in range(40)]
        seqs = [seq for seq in seqs if seq.stats.max_in != seq.stats.max_out]
        want = [bd.check_with_loops(seq).verdict for seq in seqs]
        lines = [format_record(seq) for seq in seqs]
        # without the fallback cor5 certifies some, decoding them
        certificates = [bd.certify(seq).certificate for seq in seqs]
        assert any(c and c.condition is bd.Condition.HEAVY_TAIL for c in certificates)

        def decoded(*args):
            raise AssertionError("vectors decoded")

        monkeypatch.setattr(core, "_decoded", decoded)
        for line, verdict in zip(lines, want):
            assert bd.check_thm2(parse_record(line)).verdict is bd.Verdict.INCONCLUSIVE
            assert bd.certify(parse_record(line), True, True).verdict is verdict

    def test_entry_strings_are_dropped_once_decoded(self):
        seq = parse_record("2,1,0;1,1,1")
        assert seq._entries is not None
        assert seq.in_degrees == (2, 1, 0)
        assert seq._entries is None
        assert (seq.in_degrees, seq.out_degrees) == ((2, 1, 0), (1, 1, 1))
        assert bd.check_no_loops(seq) == bd.check_no_loops(bd.new_sequence(
            (2, 1, 0), (1, 1, 1)))

    def test_threads_decode_equal_vectors(self):
        """Threads that race to decode one parsed sequence all read its
        vectors, and its exact checks agree with the built sequence's."""
        line = format_record(bd.gen_powerlaw(2000, 2.5, seed=3))
        expected = bd.new_sequence(*(map(int, side.split(","))
                                     for side in line.split(";")))
        want = (expected.out_degrees, expected.in_degrees,
                bd.check_no_loops(expected), hash(expected))
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                seq = parse_record(line)
                seen = []
                barrier = threading.Barrier(6)

                def read():
                    barrier.wait()
                    seen.append((seq.out_degrees, seq.in_degrees,
                                 bd.check_no_loops(seq), hash(seq)))

                threads = [threading.Thread(target=read) for _ in range(6)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert seen == [want] * 6
        finally:
            sys.setswitchinterval(switch)
