"""Tests of the benchmark itself: oracle, output checkers, smoke runs.

Run from the repository root with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import io
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import oracle  # noqa: E402
import run  # noqa: E402
from bidegree import brute_force_exists, new_sequence  # noqa: E402
from bidegree.cli import main as cli_main  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
# not graphic either way: the first three in-degrees need 6 > 5 units
NOT_GRAPHIC = ((2, 2, 2, 0), (4, 2, 0, 0))
GRAPHIC = ((1, 1, 1), (1, 1, 1))  # the 3-cycle, graphic either way


def small_records(max_n=3):
    for n in range(1, max_n + 1):
        for a in itertools.product(range(n + 1), repeat=n):
            for b in itertools.product(range(n + 1), repeat=n):
                if sum(a) == sum(b):
                    yield a, b


@pytest.mark.parametrize("loops", [True, False])
def test_oracle_matches_brute_force(loops):
    for a, b in small_records():
        bad = oracle.violated(a, b, loops)
        assert (not bad) == brute_force_exists(new_sequence(a, b), allow_loops=loops), (a, b)
        direct = [j for j in range(1, len(a) + 1) if not oracle.inequality_holds(a, b, loops, j)]
        assert bad == direct, (a, b)


def cli_output(argv, records):
    text = "".join(
        ",".join(map(str, a)) + ";" + ",".join(map(str, b)) + "\n" for a, b in records
    )
    out = io.StringIO()
    code = cli_main(argv, stdin=io.StringIO(text), stdout=out, stderr=io.StringIO())
    return out.getvalue(), code


def check_failed(loops, text, code, records=(GRAPHIC, NOT_GRAPHIC)):
    return oracle.check_errors(oracle.Oracle(list(records)), [0, 1], loops, text, code)


@pytest.mark.parametrize("loops", [True, False])
@pytest.mark.parametrize("method", [["auto", "--fallback-exact"], ["exact"]])
def test_check_output_passes(loops, method):
    argv = ["check", "--method", *method, "--loops" if loops else "--no-loops"]
    text, code = cli_output(argv, [GRAPHIC, NOT_GRAPHIC])
    assert check_failed(loops, text, code) == 0


def test_check_corruptions_are_caught():
    text, code = cli_output(["check", "--method", "exact", "--loops"], [GRAPHIC, NOT_GRAPHIC])
    good, bad = text.splitlines()
    assert bad == "NOT_GRAPHIC exact j=3"
    corrupt = {
        "flipped verdict": f"NOT_GRAPHIC exact j=1\n{bad}\n",
        "flipped to graphic": f"{good}\nGRAPHIC thm3 Ma=2 Mb=4\n",
        "wrong witness": f"{good}\nNOT_GRAPHIC exact j=1\n",
        "witness out of range": f"{good}\nNOT_GRAPHIC exact j=9\n",
        "inconclusive": f"{good}\nINCONCLUSIVE auto\n",
        "sum-mismatch on equal sums": f"{good}\nNOT_GRAPHIC sum-mismatch\n",
        "missing line": f"{good}\n",
    }
    for name, output in corrupt.items():
        assert check_failed(True, output, code) > 0, name
    assert check_failed(True, text, 0) == 2  # wrong exit code fails the run


def test_sum_mismatch_line_needs_unequal_sums():
    records = [GRAPHIC, ((1, 1), (2, 1))]
    text, code = cli_output(["check", "--method", "exact", "--loops"], records)
    assert text.splitlines()[1] == "NOT_GRAPHIC sum-mismatch"
    assert check_failed(True, text, code, records) == 0


@pytest.mark.parametrize("fmt,loops", [("dense", True), ("edges", False), ("dense", False), ("edges", True)])
def test_realize_output_passes(fmt, loops):
    argv = ["realize", "--format", fmt, "--loops" if loops else "--no-loops"]
    text, code = cli_output(argv, [GRAPHIC, NOT_GRAPHIC, GRAPHIC])
    assert oracle.realize_errors(oracle.Oracle([GRAPHIC, NOT_GRAPHIC]), [0, 1, 0], loops, fmt, text, code) == 0


def test_realize_bad_margins_are_caught():
    orc = oracle.Oracle([GRAPHIC])
    dense, code = cli_output(["realize", "--format", "dense", "--no-loops"], [GRAPHIC])
    rows = dense.splitlines()
    flipped = rows[0][:1] + ("0" if rows[0][1] == "1" else "1") + rows[0][2:]
    loop_rows = ["100", "010", "001"]  # right margins, but loops on the diagonal
    edges, _ = cli_output(["realize", "--format", "edges", "--no-loops"], [GRAPHIC])
    first = edges.splitlines()[0]
    cases = {
        "dense bit flipped": ("dense", "\n".join([flipped, *rows[1:]])),
        "dense loops": ("dense", "\n".join(loop_rows)),
        "dense short row": ("dense", "\n".join([rows[0][:-1], *rows[1:]])),
        "edge duplicated": ("edges", "\n".join([first, *edges.splitlines()[:-1]])),
        "edge self-loop": ("edges", "0 0\n1 1\n2 2"),
    }
    for name, (fmt, text) in cases.items():
        assert oracle.realize_errors(orc, [0], False, fmt, text + "\n", code) == 1, name
    assert oracle.realize_errors(orc, [0], True, "dense", "\n".join(loop_rows) + "\n", code) == 0


def metric_names(kind):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def tiny(workload):
    spec = dict(run.load_workloads()[workload])
    spec.update(records=3, check_copies=2, realize_records=1)
    return spec


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run(workload, trace):
    out = io.StringIO()
    result = run.run(workload, seed=7, seconds=0, trace=trace, spec=tiny(workload), out=out)
    expected = metric_names("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["failed"] == 0 and result["correct"] and result["attempted"] > 0
    printed = out.getvalue()
    for name, unit in expected.items():
        assert any(line.split()[:1] == [name] and f" {unit}" in line for line in printed.splitlines()), name
    if not trace:
        assert any(line.split()[:2] == ["error_rate", "0.0000"] for line in printed.splitlines())


def test_digest_drift_stops_the_run(monkeypatch):
    workloads = run.load_workloads()
    workloads["uniform-n100"]["sha256"] = "0" * 64
    monkeypatch.setattr(run, "load_workloads", lambda: workloads)
    with pytest.raises(SystemExit, match="drifted"):
        run.run("uniform-n100", seed=7, seconds=0, trace=0, spec=tiny("uniform-n100"))


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    argv = [*BENCHMARK["command"], "--workload", "uniform-n100", "--seed", "1", "--seconds", "1", "--trace", "0"]
    argv[0] = sys.executable
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
