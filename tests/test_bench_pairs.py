"""tools/bench_pairs.py compares runs of two checkouts; the runner is
stubbed with a captured ``perfbench/run.py`` stdout, so no child starts."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

import test_bench_record

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

# stdout of: python3 perfbench/run.py --workload uniform-n100 --seed 1 --seconds 0
CAPTURED = (Path(__file__).parent / "fixtures" / "run_stdout.txt").read_text()
CLAIM = "check_exact_loops.records_per_s"


def stdout_with(scale: dict, gate: float = 1.0) -> str:
    """The captured stdout with each metric of ``scale`` multiplied by its
    factor and the loops gate set to ``gate``."""
    *lines, last = CAPTURED.strip().splitlines()
    result = json.loads(last)
    for name, factor in scale.items():
        result["metrics"][name]["value"] *= factor
    text = "\n".join(lines) + "\n" + json.dumps(result) + "\n"
    return text.replace("loops: 1.211 ", f"loops: {gate:.3f} ")


def stub(monkeypatch, tmp_path, change_scale):
    """Two checkouts under ``tmp_path`` whose runs read the captured
    stdout: the parent's claimed metric scaled by 1 + seed/1000 (a spread),
    the change's by ``change_scale(seed)``.  Returns the list of calls."""
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(
        (ROOT / "BENCHMARK.json").read_text())
    calls = []

    def run(argv, cwd=None, **kwargs):
        side, seed = Path(cwd).name, int(argv[argv.index("--seed") + 1])
        calls.append((side, argv[1:]))
        if side == "parent":
            out = stdout_with({CLAIM: 1 + seed / 1000})
        else:
            out = stdout_with(change_scale(seed), gate=0.99)
        return subprocess.CompletedProcess(argv, 0, out, "")

    monkeypatch.setattr(bench_pairs.bench_record.subprocess, "run", run)
    return calls


def main(tmp_path, *argv):
    return bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change",
                             str(tmp_path / "change"), "--workload",
                             "uniform-n100", "--seeds", "1-10", *argv])


def test_alternates_sides_and_meets_a_claim(monkeypatch, tmp_path, capsys):
    calls = stub(monkeypatch, tmp_path, lambda seed: {CLAIM: 1.05})
    test_bench_record.stub_host(monkeypatch)
    assert main(tmp_path, "--claim", CLAIM) == 0
    # seed 1 runs the parent first, seed 2 the change first, and so on
    assert [side for side, _ in calls[:4]] == ["parent", "change", "change",
                                               "parent"]
    assert calls[0][1] == ["perfbench/run.py", "--workload", "uniform-n100",
                           "--seed", "1", "--seconds", "30"]
    assert len(calls) == 20
    out = capsys.readouterr().out.splitlines()
    # the CPUs the runs had, first
    assert out[0] == "host " + json.dumps(test_bench_record.HOST)
    line = next(line for line in out if line.startswith(CLAIM))
    assert "won 10 of 10" in line and "FLAG" not in line
    assert any(line.startswith(f"claim {CLAIM}: met (won 10 of 10")
               for line in out)
    # an unchanged metric: every pair a tie, won by neither side
    assert "won 0 of 10" in next(line for line in out
                                 if line.startswith("peak_rss_mb"))
    assert "gate loops: parent 1.000  change 0.990" in out


def test_claim_not_met_within_the_spread(monkeypatch, tmp_path, capsys):
    # the change wins 9 of 10 pairs but by less than the parent's spread
    calls = stub(monkeypatch, tmp_path,
                 lambda seed: {CLAIM: 1 + (seed + (seed < 10)) / 1000})
    assert main(tmp_path, "--claim", CLAIM) == 1
    assert len(calls) == 20
    out = capsys.readouterr().out
    assert f"claim {CLAIM}: NOT met (won 9 of 10;" in out


def test_flags_a_metric_worse_than_its_bound(monkeypatch, tmp_path, capsys):
    # records/s is higher-better and bound 0.25; peak_rss_mb lower-better
    stub(monkeypatch, tmp_path, lambda seed: {
        "realize_dense_loops.records_per_s": 0.7, "peak_rss_mb": 1.1})
    assert main(tmp_path) == 1
    out = capsys.readouterr().out.splitlines()
    flagged = [line.split()[0] for line in out if "FLAG" in line]
    assert flagged == ["realize_dense_loops.records_per_s"]


def test_flags_an_incorrect_run(monkeypatch, tmp_path, capsys):
    stub(monkeypatch, tmp_path, lambda seed: {})
    real = bench_pairs.bench_record.parse_run

    def parse_run(stdout):
        run = real(stdout)
        run["failed"] = 1
        return run

    monkeypatch.setattr(bench_pairs.bench_record, "parse_run", parse_run)
    assert main(tmp_path) == 1
    assert "FLAG parent seed 1: correct=True, failed 1 of 36240" in (
        capsys.readouterr().out)


def test_rejects_a_claim_that_is_no_end_to_end_metric(monkeypatch, tmp_path):
    calls = stub(monkeypatch, tmp_path, lambda seed: {})
    with pytest.raises(SystemExit):
        main(tmp_path, "--claim", "exact.check_with_loops.p50_ns")
    assert calls == []
