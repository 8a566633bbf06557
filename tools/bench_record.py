"""Record benchmark runs in a ``BENCH_<PR>.json`` file.

Runs ``perfbench/run.py`` of a checkout as a child, once per workload and
seed, one run at a time, each for the ``run_seconds`` that the checkout's
``BENCHMARK.json`` fixes, so files of different trees compare.  Its
stdout ends in the JSON result; the lines above carry the raw figures and
the two exact/auto ``gate:`` ratios.  The file holds the commit, the Python version, the
corpus pins, each run's scaled and raw metrics and gate ratios, and per
workload the median, quartiles and run count of each metric and the
median of each gate ratio.  It also holds a ``startup`` object: the min
and median wall time of ``STARTUP_RUNS`` children of each benchmark
command on an empty input (``/dev/null``), and of ``python -c pass`` and
``python -S -c pass``, each started with the environment and working
directory ``perfbench/run.py`` gives its own children.  From the
repository root:

    python3 tools/bench_record.py --pr 26 --seeds powerlaw-n2000=1-10 \\
        --seeds uniform-n100=1-3 --seeds realize-n1000=1-3

``--root`` points it at another checkout, whose ``perfbench/run.py`` and
sources it then runs; the file is written to ``--out``, by default
``BENCH_<PR>.json`` in the current directory.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

STARTUP_RUNS = 20
RAW = re.compile(r"^(\S+)\s+\S+ \S+\s+\(raw (\S+)\)$", re.M)
GATE = re.compile(r"^gate: check exact/auto time, (\w+): (\S+) ", re.M)


def parse_run(stdout: str) -> dict:
    """One run's result object, with its raw metrics and gate ratios added."""
    result = json.loads(stdout.strip().splitlines()[-1])
    result["metrics"] = {k: v["value"] for k, v in result["metrics"].items()}
    result["raw"] = {name: float(value) for name, value in RAW.findall(stdout)}
    result["gate"] = {pol: float(ratio) for pol, ratio in GATE.findall(stdout)}
    return result


def run_once(root: Path, workload: str, seed: int, seconds) -> dict:
    """One ``perfbench/run.py`` run of checkout ``root``, parsed."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds)]
    child = subprocess.run(argv, cwd=root, capture_output=True, text=True,
                           check=True)
    return parse_run(child.stdout)


def summary(values: list) -> dict:
    """Median, quartiles (inclusive method) and the number of runs."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "runs": len(values)}


def summarize(runs: list) -> dict:
    """Per-metric and per-gate summaries of one workload's runs."""
    return {
        "metrics": {name: summary([run["metrics"][name] for run in runs])
                    for name in runs[0]["metrics"]},
        "gate_medians": {pol: statistics.median(run["gate"][pol] for run in runs)
                         for pol in runs[0]["gate"]},
        "runs": runs,
    }


def seed_list(text: str) -> list:
    """``1-10`` or ``3,5,8`` (or both, comma-separated) as a list of ints."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def load_benchmark(root: Path):
    """The ``perfbench/run.py`` of checkout ``root`` as a module; it
    imports ``oracle`` from its own directory."""
    bench = root / "perfbench"
    sys.path.insert(0, str(bench))
    try:
        spec = importlib.util.spec_from_file_location("run", bench / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(bench))
    return module


def startup(bench, runs: int = STARTUP_RUNS) -> dict:
    """Min and median wall seconds of ``runs`` children per kind: each
    command of ``bench.COMMANDS`` on an empty input, then a bare
    interpreter with and without ``site``.  Each round starts one child of
    every kind, so a drift in host speed reaches them all alike."""
    argvs = {cmd.name: ["-m", "bidegree.cli", *cmd.argv, os.devnull]
             for cmd in bench.COMMANDS}
    argvs["python -c pass"] = ["-c", "pass"]
    argvs["python -S -c pass"] = ["-S", "-c", "pass"]
    env = bench.child_env()
    times = {name: [] for name in argvs}
    for _ in range(runs):
        for name, argv in argvs.items():
            start = time.perf_counter()
            subprocess.run([sys.executable, *argv], cwd=bench.ROOT, env=env,
                           stdin=subprocess.DEVNULL, capture_output=True,
                           check=True)
            times[name].append(time.perf_counter() - start)
    return {name: {"min": min(values), "median": statistics.median(values),
                   "runs": len(values)} for name, values in times.items()}


def _git(root: Path, *argv) -> str:
    return subprocess.run(["git", "-C", str(root), *argv], capture_output=True,
                          text=True, check=True).stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--seeds", action="append", required=True,
                        metavar="WORKLOAD=SEEDS", help="e.g. powerlaw-n2000=1-10")
    parser.add_argument("--root", type=Path, default=Path("."))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    root = args.root.resolve()
    seconds = json.loads((root / "BENCHMARK.json").read_text())["run_seconds"]
    workloads = {}
    for spec in args.seeds:
        workload, _, seeds = spec.partition("=")
        runs = []
        for seed in seed_list(seeds):
            runs.append({"seed": seed,
                         **run_once(root, workload, seed, seconds)})
            print(f"{workload} seed {seed}: gate {runs[-1]['gate']}", file=sys.stderr)
        workloads[workload] = summarize(runs)
    started = startup(load_benchmark(root))
    for name, figures in started.items():
        print(f"startup {name}: median {figures['median']:.4f} s", file=sys.stderr)
    # dirty: the sources or the benchmark differ from the commit
    dirty = _git(root, "status", "--porcelain", "--", "src", "perfbench")
    record = {"pr": args.pr, "commit": _git(root, "rev-parse", "HEAD"),
              "dirty": bool(dirty), "python": sys.version,
              "seconds": seconds, "workloads": workloads, "startup": started,
              "corpora": json.loads((root / "perfbench" / "corpora.json").read_text())}
    out = args.out or Path(f"BENCH_{args.pr}.json")
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
