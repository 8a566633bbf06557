"""tools/bench_record.py reads a captured ``perfbench/run.py`` stdout;
no child is started."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "bench_record", ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

# the benchmark of this checkout, whose children startup() mimics
BENCH = bench_record.load_benchmark(ROOT)

# stdout of: python3 perfbench/run.py --workload uniform-n100 --seed 1 --seconds 0
CAPTURED = (Path(__file__).parent / "fixtures" / "run_stdout.txt").read_text()


def test_parse_run_reads_result_raw_figures_and_gates():
    run = bench_record.parse_run(CAPTURED)
    assert (run["correct"], run["attempted"], run["failed"]) == (True, 36240, 0)
    assert run["metrics"]["check_auto_loops.records_per_s"] == 15912.843157070829
    assert run["metrics"]["peak_rss_mb"] == 28.234375
    # every metric but peak_rss_mb prints a raw figure
    assert set(run["raw"]) == set(run["metrics"]) - {"peak_rss_mb"}
    assert run["raw"]["check_auto_loops.records_per_s"] == 16285.0587
    assert run["raw"]["setup_s"] == 0.4270
    assert run["gate"] == {"loops": 1.211, "noloops": 1.005}


def test_summary_of_runs_round_trips_through_json():
    first = bench_record.parse_run(CAPTURED)
    second = json.loads(json.dumps(first))
    second["metrics"]["setup_s"] = 0.5
    second["gate"]["loops"] = 1.0
    summary = bench_record.summarize([first, second, first])
    assert summary["metrics"]["setup_s"] == {
        "median": first["metrics"]["setup_s"], "q1": first["metrics"]["setup_s"],
        "q3": (first["metrics"]["setup_s"] + 0.5) / 2, "runs": 3}
    assert summary["gate_medians"] == {"loops": 1.211, "noloops": 1.005}
    assert json.loads(json.dumps(summary)) == summary


@pytest.mark.parametrize("text, seeds", [
    ("1-3", [1, 2, 3]), ("7", [7]), ("1-2,9", [1, 2, 9])])
def test_seed_list(text, seeds):
    assert bench_record.seed_list(text) == seeds


def test_main_writes_a_record_from_each_run(tmp_path, monkeypatch):
    """main with the children replaced by the captured stdout and a clean
    git checkout."""
    calls = []

    def run(argv, cwd=None, **kwargs):
        calls.append(argv)
        out = CAPTURED if "perfbench/run.py" in argv else ""
        if argv[-2:] == ["rev-parse", "HEAD"]:
            out = "0123abcd\n"
        return subprocess.CompletedProcess(argv, 0, out, "")

    monkeypatch.setattr(bench_record.subprocess, "run", run)
    out = tmp_path / "BENCH_7.json"
    assert bench_record.main(["--pr", "7", "--seeds", "uniform-n100=1-2",
                              "--root", str(ROOT),
                              "--out", str(out)]) == 0
    assert [argv[1:] for argv in calls if "perfbench/run.py" in argv] == [
        ["perfbench/run.py", "--workload", "uniform-n100", "--seed", str(seed),
         "--seconds", "30"] for seed in (1, 2)]
    record = json.loads(out.read_text())
    assert (record["pr"], record["commit"], record["dirty"]) == (7, "0123abcd", False)
    assert record["python"] == sys.version
    # BENCHMARK.json's run_seconds
    assert record["seconds"] == 30
    assert record["corpora"]["uniform-n100"]["records"] == 1000
    workload = record["workloads"]["uniform-n100"]
    assert [run["seed"] for run in workload["runs"]] == [1, 2]
    assert workload["metrics"]["peak_rss_mb"] == {
        "median": 28.234375, "q1": 28.234375, "q3": 28.234375, "runs": 2}
    kinds = [*(cmd.name for cmd in BENCH.COMMANDS),
             "python -c pass", "python -S -c pass"]
    assert list(record["startup"]) == kinds
    assert all(figures["runs"] == bench_record.STARTUP_RUNS == 20
               and 0 <= figures["min"] <= figures["median"]
               for figures in record["startup"].values())
    assert len([argv for argv in calls if "perfbench/run.py" not in argv
                and argv[0] == sys.executable]) == 20 * len(kinds)


def test_startup_times_each_kind_of_child_per_round(monkeypatch):
    """startup with a stubbed runner and clock: one child of every kind per
    round, started as the benchmark starts its own children, and each
    kind's min and median over its rounds."""
    calls = []
    now = [0.0]

    def run(argv, **kwargs):
        calls.append((argv, kwargs))
        now[0] += len(calls)  # the i-th child of the run takes i seconds
        return subprocess.CompletedProcess(argv, 0, "", "")

    monkeypatch.setattr(bench_record.subprocess, "run", run)
    monkeypatch.setattr(bench_record.time, "perf_counter", lambda: now[0])
    started = bench_record.startup(BENCH, runs=3)
    kinds = len(BENCH.COMMANDS) + 2
    assert len(calls) == 3 * kinds
    for argv, kwargs in calls:
        assert argv[0] == sys.executable
        assert kwargs["cwd"] == BENCH.ROOT and kwargs["env"] == BENCH.child_env()
        assert kwargs["stdin"] is subprocess.DEVNULL and kwargs["check"]
    assert [argv[1:] for argv, _ in calls[:kinds]] == [
        *(["-m", "bidegree.cli", *cmd.argv, os.devnull] for cmd in BENCH.COMMANDS),
        ["-c", "pass"], ["-S", "-c", "pass"]]
    assert calls[:kinds] == calls[kinds:2 * kinds]
    # kind k's children are the (k+1)-th, (k+1+kinds)-th, ... of the run
    for k, figures in enumerate(started.values()):
        assert figures == {"min": k + 1, "median": k + 1 + kinds, "runs": 3}
