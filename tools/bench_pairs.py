"""Compare two checkouts on one workload in alternated pairs of runs.

For each seed it runs ``perfbench/run.py`` of the parent checkout and of
the change, one child at a time, each for the ``run_seconds`` that
``BENCHMARK.json`` fixes; the side that runs first alternates from seed to
seed, so a drift in host speed reaches both alike.  For each end-to-end
metric of ``BENCHMARK.json`` it prints the parent's median and quartiles,
the change's median and the pairs the change won (ties count for neither),
in the metric's own direction, and flags a metric whose change median is
worse than the parent's by more than the metric's bound.  It also prints
each side's median exact/auto gate ratios and flags any run that was not
``correct`` or failed a record.  With ``--claim METRIC`` it says whether
the change meets a claimed gain on it: it won at least nine tenths of the
pairs, and the medians differ, in the better direction, by more than the
distance between the parent's quartiles.  The report's first line is the
``host`` object of ``bench_record.py``: a check child decides its input in
a process per CPU it may use, so a gain may show only where a CPU sat
idle.  From the repository root:

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload uniform-n100 --seeds 4101-4110 \\
        --claim check_exact_loops.records_per_s

It exits 1 when a metric is flagged, a run is not correct or the claim is
not met, else 0.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import statistics
import sys
from pathlib import Path


def _sibling(name: str):
    """The module ``name`` from this file's directory."""
    spec = importlib.util.spec_from_file_location(
        name, Path(__file__).with_name(f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_record = _sibling("bench_record")


def better(metric: dict, change: float, parent: float) -> bool:
    """Whether ``change`` reads better than ``parent`` for ``metric``."""
    return change > parent if metric["better"] == "higher" else change < parent


def compare(parent: list, change: list, end_to_end: list, claim=None):
    """Report lines for the paired runs ``parent[i]``, ``change[i]``, and
    whether nothing was flagged (and the claim, if any, is met)."""
    lines, ok = [], True
    for side, runs in (("parent", parent), ("change", change)):
        for run in runs:
            if not run["correct"] or run["failed"]:
                ok = False
                lines.append(f"FLAG {side} seed {run['seed']}: correct="
                             f"{run['correct']}, failed {run['failed']} of "
                             f"{run['attempted']}")
    pairs = len(parent)
    for metric in end_to_end:
        name = metric["name"]
        before = [run["metrics"][name] for run in parent]
        after = [run["metrics"][name] for run in change]
        base, now = bench_record.summary(before), statistics.median(after)
        wins = sum(better(metric, a, b) for a, b in zip(after, before))
        # a change may read worse than the parent by at most the bound
        if metric["better"] == "higher":
            worse = now < base["median"] * (1 - metric["bound"])
        else:
            worse = now > base["median"] * (1 + metric["bound"])
        ok = ok and not worse
        lines.append(
            f"{name:36s} parent {base['median']:.4f} [{base['q1']:.4f}, "
            f"{base['q3']:.4f}]  change {now:.4f}  "
            f"({metric['better']} is better) won {wins} of {pairs}"
            + (f"  FLAG worse than its bound {metric['bound']}" if worse else ""))
        if name == claim:
            spread = base["q3"] - base["q1"]
            gain = now - base["median"]
            if metric["better"] == "lower":
                gain = -gain
            met = 10 * wins >= 9 * pairs and gain > spread
            ok = ok and met
            lines.append(f"claim {name}: {'met' if met else 'NOT met'} (won "
                         f"{wins} of {pairs}; median gain {gain:.4f}, parent "
                         f"quartile spread {spread:.4f})")
    for pol in parent[0]["gate"]:
        lines.append(
            f"gate {pol}: parent {statistics.median(r['gate'][pol] for r in parent):.3f}"
            f"  change {statistics.median(r['gate'][pol] for r in change):.3f}")
    return lines, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=bench_record.seed_list,
                        help="e.g. 4101-4110")
    parser.add_argument("--claim", metavar="METRIC")
    args = parser.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    benchmark = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    names = [metric["name"] for metric in benchmark["end_to_end"]]
    if args.claim is not None and args.claim not in names:
        parser.error(f"--claim: {args.claim!r} is not one of {names}")
    runs = {"parent": [], "change": []}
    load = os.getloadavg()
    for i, seed in enumerate(args.seeds):
        for side in ("parent", "change")[::1 if i % 2 == 0 else -1]:
            run = bench_record.run_once(sides[side], args.workload, seed,
                                        benchmark["run_seconds"])
            runs[side].append({"seed": seed, **run})
            print(f"{args.workload} seed {seed} {side}: gate {run['gate']}",
                  file=sys.stderr)
    lines, ok = compare(runs["parent"], runs["change"],
                        benchmark["end_to_end"], args.claim)
    print("host " + json.dumps(bench_record.host(load)))
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
