"""Benchmark of the bidegree CLI: records/s per command on pinned corpora.

Run from the repository root:

    python3 perfbench/run.py --workload uniform-n100 --seed 1 --seconds 30 --trace 0

Set-up generates the workload's corpus from ``--seed`` with the library's
own seeded generators and writes the input files.  With ``--trace 0`` the
benchmark then runs ``python -m bidegree.cli`` on those files, one child
process at a time (a closed loop with a single client), in rounds of the
six commands of ``COMMANDS``, for at least three rounds and as many more
as fit in ``--seconds``.  Set-up is repeated after each of the first two
rounds, and ``setup_s`` is the median of the three.  Every output line of
every child is checked against the independent oracle in ``oracle.py``.
With ``--trace 1`` it replays the same commands in-process instead and
reports the per-layer metrics (see ``tracing.py``).

Every workload runs all six commands, so every workload reports every
metric; the workloads differ in the corpus shape, which decides the
layer that dominates (see ``corpora.json``).  The generator stream is
pinned: before timing, a short corpus at the pinned seed is generated and
its SHA-256 compared with ``corpora.json``; on drift the run fails.

On a shared host the CPU speed can drift by a third over tens of
seconds, longer than a run.  So every timed step is bracketed by probes
(see ``ScaledTimer``), and each reported time is scaled by
``REFERENCE_PROBE_S / probe``: figures read as on a host where the probe
takes ``REFERENCE_PROBE_S``.  The probe runs no repository code, so a
change to the program cannot move it; the raw figures are printed beside
the scaled ones.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

import oracle as oracle_mod

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
SEED_STRIDE = 1_000_000  # record i of seed s uses generator seed s*STRIDE + i
SETUP_REPEATS = 3
MIN_ROUNDS = 3
PROBE_CODE = """
from itertools import accumulate
text = ",".join(str(i * 7919 % 2003) for i in range(2000))
for _ in range(48):
    values = [int(x) for x in text.split(",")]
    values.sort(reverse=True)
    sum(accumulate(values))
"""
REFERENCE_PROBE_S = 0.08


class Command(NamedTuple):
    name: str
    argv: tuple
    loops: bool
    fmt: str  # "check" for check commands, else the realize --format


COMMANDS = (
    Command("check_auto_loops", ("check", "--method", "auto", "--fallback-exact", "--loops"), True, "check"),
    Command("check_exact_loops", ("check", "--method", "exact", "--loops"), True, "check"),
    Command("check_auto_noloops", ("check", "--method", "auto", "--fallback-exact", "--no-loops"), False, "check"),
    Command("check_exact_noloops", ("check", "--method", "exact", "--no-loops"), False, "check"),
    Command("realize_dense_loops", ("realize", "--loops", "--format", "dense"), True, "dense"),
    Command("realize_edges_noloops", ("realize", "--no-loops", "--format", "edges"), False, "edges"),
)


class ScaledTimer:
    """Times steps and scales each to the reference host speed.

    Between steps it runs a probe: a child interpreter doing a fixed
    piece of work of the kind the CLI does, so the probe pays what a CLI
    child pays (process start, interpreter start, compute).  A step is
    scaled by ``REFERENCE_PROBE_S`` over the mean of the probes just
    before and just after it.
    """

    def __init__(self, env):
        self.env = env
        self.last = self.probe()

    def probe(self):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", PROBE_CODE], env=self.env, stdin=subprocess.DEVNULL, check=True)
        return time.perf_counter() - t0

    def time(self, step):
        """Run ``step()``; return (its result, raw seconds, scaled seconds)."""
        t0 = time.perf_counter()
        result = step()
        raw = time.perf_counter() - t0
        after = self.probe()
        scaled = raw * REFERENCE_PROBE_S / ((self.last + after) / 2)
        self.last = after
        return result, raw, scaled


def load_workloads():
    with open(HERE / "corpora.json", encoding="utf-8") as fh:
        return json.load(fh)


def corpus_lines(spec, seed, count):
    """Plain-form records of a workload's corpus, via the public generator."""
    from bidegree.cli import format_record
    from bidegree.generate import GeneratorSpec, generate_sequence

    return [
        format_record(
            generate_sequence(
                GeneratorSpec(kind=spec["generator"], seed=seed * SEED_STRIDE + i, **spec["params"])
            )
        )
        for i in range(count)
    ]


def corpus_digest(spec):
    text = "".join(line + "\n" for line in corpus_lines(spec, spec["pinned_seed"], spec["pinned_records"]))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def parse_plain(line):
    left, right = line.split(";")
    return tuple(map(int, left.split(","))), tuple(map(int, right.split(",")))


class Inputs(NamedTuple):
    corpus: list  # the distinct records, in plain form
    check_lines: list
    realize_lines: list
    check_indices: list  # corpus index of each check input line
    realize_indices: list


def input_lines(spec, lines):
    """The check input is the corpus ``check_copies`` times over; realize
    takes its first ``realize_records`` records.  Copies let a child run
    long enough that interpreter start-up is a small share, without
    paying for generation again."""
    n_real = spec["realize_records"]
    check_lines = lines * spec["check_copies"]
    return Inputs(
        corpus=lines,
        check_lines=check_lines,
        realize_lines=lines[:n_real],
        check_indices=[k % len(lines) for k in range(len(check_lines))],
        realize_indices=list(range(n_real)),
    )


def write_inputs(spec, seed, workdir):
    lines = corpus_lines(spec, seed, spec["records"])
    (workdir / "corpus.txt").write_text("".join(x + "\n" for x in lines), encoding="ascii")
    inputs = input_lines(spec, lines)
    for name, body in (("check.txt", inputs.check_lines), ("realize.txt", inputs.realize_lines)):
        (workdir / name).write_text("".join(x + "\n" for x in body), encoding="ascii")
    return inputs


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env.pop("BIDEGREE_SEED", None)
    return env


def run_child(cmd, in_path, out_path, env):
    """Run one CLI child to completion; return (exit code, max RSS in MB)."""
    argv = [sys.executable, "-m", "bidegree.cli", *cmd.argv, str(in_path)]
    with open(out_path, "wb") as out, open(out_path.with_suffix(".err"), "wb") as err:
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=env, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def output_errors(oracle, cmd, indices, text, code):
    if cmd.fmt == "check":
        return oracle_mod.check_errors(oracle, indices, cmd.loops, text, code)
    return oracle_mod.realize_errors(oracle, indices, cmd.loops, cmd.fmt, text, code)


def end_to_end(spec, seed, seconds, workdir, out):
    env = child_env()
    timer = ScaledTimer(env)
    inputs, raw, scaled = timer.time(lambda: write_inputs(spec, seed, workdir))
    setup_raw, setup_scaled = [raw], [scaled]
    oracle = oracle_mod.Oracle([parse_plain(line) for line in inputs.corpus])
    raw_rates = {cmd.name: [] for cmd in COMMANDS}
    rates = {cmd.name: [] for cmd in COMMANDS}
    rss = {cmd.name: [] for cmd in COMMANDS}
    verified = {}  # command -> (output, exit code, failed records)
    attempted = failed = rounds = 0
    elapsed = last_round = 0.0  # seconds spent in rounds, set-up repeats excluded
    while rounds < MIN_ROUNDS or elapsed + last_round <= seconds:  # another round fits
        round_start = time.perf_counter()
        for cmd in COMMANDS:
            is_check = cmd.fmt == "check"
            in_path = workdir / ("check.txt" if is_check else "realize.txt")
            indices = inputs.check_indices if is_check else inputs.realize_indices
            out_path = workdir / f"{cmd.name}.out"
            (code, peak), raw, scaled = timer.time(lambda: run_child(cmd, in_path, out_path, env))
            raw_rates[cmd.name].append(len(indices) / raw)
            rates[cmd.name].append(len(indices) / scaled)
            rss[cmd.name].append(peak)
            text = out_path.read_text(encoding="ascii", errors="replace")
            seen = verified.get(cmd.name)
            if seen is None or seen[:2] != (text, code):
                seen = (text, code, output_errors(oracle, cmd, indices, text, code))
                verified[cmd.name] = seen
            attempted += len(indices)
            failed += seen[2]
        rounds += 1
        last_round = time.perf_counter() - round_start
        elapsed += last_round
        if len(setup_scaled) < SETUP_REPEATS:
            # set up again between rounds, so that the median samples the
            # host's speed at several moments of the run
            again, raw, scaled = timer.time(lambda: write_inputs(spec, seed, workdir))
            if again != inputs:
                raise RuntimeError("the same seed generated a different corpus")
            setup_raw.append(raw)
            setup_scaled.append(scaled)

    metrics = {"setup_s": (statistics.median(setup_scaled), "s")}
    raw_medians = {"setup_s": statistics.median(setup_raw)}
    for cmd in COMMANDS:
        name = f"{cmd.name}.records_per_s"
        metrics[name] = (statistics.median(rates[cmd.name]), "records/s")
        raw_medians[name] = statistics.median(raw_rates[cmd.name])
    metrics["peak_rss_mb"] = (max(statistics.median(v) for v in rss.values()), "MB")

    print(
        f"{len(inputs.corpus)} distinct records; per round: check {len(inputs.check_lines)} "
        f"records, realize {len(inputs.realize_lines)}; {rounds} rounds, one child at a time",
        file=out,
    )
    for name, (value, unit) in metrics.items():
        note = f"  (raw {raw_medians[name]:.4f})" if name in raw_medians else ""
        print(f"{name:36s} {value:14.4f} {unit}{note}", file=out)
    print(f"{'error_rate':36s} {failed / attempted:14.4f} ratio ({failed} of {attempted} records)", file=out)
    for pol in ("loops", "noloops"):
        ratio = statistics.median(rates[f"check_auto_{pol}"]) / statistics.median(rates[f"check_exact_{pol}"])
        flag = "ok" if ratio >= 1.0 else "RED"
        print(f"gate: check exact/auto time, {pol}: {ratio:.3f} {flag} (red below 1.0; not a metric)", file=out)
    return metrics, attempted, failed


def run(workload, seed, seconds, trace, spec=None, out=sys.stdout):
    """One benchmark run; return the result object.  ``spec`` overrides the
    workload's entry in corpora.json (the tests shrink it)."""
    pinned = load_workloads()[workload]
    spec = spec or pinned
    digest = corpus_digest(pinned)
    if digest != pinned["sha256"]:
        raise SystemExit(
            f"perfbench: corpus digest for {workload} drifted: {digest} != {pinned['sha256']}; "
            "the generator stream changed"
        )
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        if trace:
            import tracing

            metrics, attempted, failed = tracing.traced_run(
                spec, seed, seconds, WORK / f"trace-{workload}.csv", out
            )
        else:
            metrics, attempted, failed = end_to_end(spec, seed, seconds, workdir, out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bidegree" / "__init__.py").is_file():
        print(f"perfbench: {SRC / 'bidegree'} not found; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload not in load_workloads():
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
