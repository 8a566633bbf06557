"""Traced run: per-layer metrics from spans around public-function calls.

Each command of ``run.COMMANDS`` is replayed in-process by calling the
public functions the CLI calls (``cli.parse_record``,
``sufficient.certify``, ``exact.check_*``, ``realize.realize`` and the
realization's ``row_string``/``edges``).  Every call is timed from here,
in the benchmark's own files, as a span: name, parent pass, record id,
start and end in ``perf_counter_ns``.  ``certify`` is called without
fallback and the exact check after it, which is what ``certify(...,
fallback_exact=True)`` does, so the two layers get separate spans.

Each round runs every command once untraced and once traced; the ratio
of their wall times is ``trace.overhead_ratio.<command>``.  Layers
outside the command loop (validation, statistics, ``Prepared``, each
certificate, ``verify_realization``, generation and record formatting)
are timed per record in their own passes.  Spans are kept in memory and
written out as CSV when the run ends.
"""

from __future__ import annotations

import math
import statistics
import time
from array import array
from collections import Counter

from bidegree import sufficient
from bidegree.cli import format_record, parse_record
from bidegree.core import new_sequence, stats
from bidegree.exact import CheckOutcome, Verdict, check_no_loops, check_with_loops
from bidegree.generate import GeneratorSpec, generate_sequence
from bidegree.realize import realize, verify_realization

import oracle as oracle_mod
from run import COMMANDS, MIN_ROUNDS, SEED_STRIDE, input_lines, parse_plain

CODES = ("thm2", "thm3", "thm4", "thm5", "thm6", "cor2", "cor3", "cor5")
# rungs that can fire first, per loop policy, in the order certify tries them
FIRED = {
    "loops": ("thm3", "thm4", "cor2", "cor3", "thm5", "thm6", "cor5", "thm2"),
    "noloops": ("thm4", "cor3", "thm6"),
}
# fields of Prepared that are lazy; forced inside the prepare span
PREPARED_FIELDS = ("pairs_equal", "prefix_in", "prefix_out", "suffix_pair_max")
MICRO_SAMPLES = 200  # per-record layers: at least this many calls
GRAPHIC = Verdict.GRAPHIC
clock = time.perf_counter_ns


class Spans:
    """Spans in memory: (name id, parent pass, record id, start, end)."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.data = array("q")
        self.passes = 0

    def name(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, nid, parent, rid, t0, t1):
        self.data.extend((nid, parent, rid, t0, t1))

    def new_pass(self):
        self.passes += 1
        return self.passes

    def rows(self):
        d = self.data
        for k in range(0, len(d), 5):
            yield self.names[d[k]], d[k + 1], d[k + 2], d[k + 3], d[k + 4]

    def write_csv(self, path):
        with open(path, "w", encoding="ascii") as fh:
            fh.write("name,parent,record,start_ns,end_ns\n")
            for row in self.rows():
                fh.write("%s,%d,%d,%d,%d\n" % row)


def _exact(loops):
    return check_with_loops if loops else check_no_loops


def _pol(loops):
    return "loops" if loops else "noloops"


def _check_plain(cmd, lines):
    exact = _exact(cmd.loops)
    auto = "auto" in cmd.argv
    outcomes = []
    for line in lines:
        seq = parse_record(line)
        if auto:
            outcome = sufficient.certify(seq, allow_loops=cmd.loops)
            if outcome.verdict is not GRAPHIC:
                outcome = exact(seq)
        else:
            outcome = exact(seq)
        outcomes.append(outcome)
    return outcomes


def _check_traced(cmd, lines, spans, pid):
    exact = _exact(cmd.loops)
    auto = "auto" in cmd.argv
    add = spans.add
    p_id = spans.name("cli.parse_record")
    c_id = spans.name(f"sufficient.certify.{_pol(cmd.loops)}")
    e_id = spans.name(f"exact.{exact.__name__}")
    outcomes = []
    for rid, line in enumerate(lines):
        t0 = clock()
        seq = parse_record(line)
        t1 = clock()
        add(p_id, pid, rid, t0, t1)
        if auto:
            outcome = sufficient.certify(seq, allow_loops=cmd.loops)
            t0 = clock()
            add(c_id, pid, rid, t1, t0)
            if outcome.verdict is not GRAPHIC:
                outcome = exact(seq)
                add(e_id, pid, rid, t0, clock())
        else:
            outcome = exact(seq)
            add(e_id, pid, rid, t1, clock())
        outcomes.append(outcome)
    return outcomes


def _realize_plain(cmd, lines):
    results = []
    for line in lines:
        result = realize(parse_record(line), allow_loops=cmd.loops)
        if isinstance(result, CheckOutcome):
            results.append((result, None))
        elif cmd.fmt == "dense":
            results.append((result, [result.row_string(i) for i in range(result.n)]))
        else:
            results.append((result, list(result.edges())))
    return results


def _realize_traced(cmd, lines, spans, pid):
    add = spans.add
    p_id = spans.name("cli.parse_record")
    r_id = spans.name(f"realize.realize.{_pol(cmd.loops)}")
    row_id = spans.name("realize.row_string")
    edges_id = spans.name("realize.edges")
    results = []
    for rid, line in enumerate(lines):
        t0 = clock()
        seq = parse_record(line)
        t1 = clock()
        add(p_id, pid, rid, t0, t1)
        result = realize(seq, allow_loops=cmd.loops)
        add(r_id, pid, rid, t1, clock())
        if isinstance(result, CheckOutcome):
            results.append((result, None))
        elif cmd.fmt == "dense":
            rows = []
            for i in range(result.n):
                t0 = clock()
                rows.append(result.row_string(i))
                add(row_id, pid, rid, t0, clock())
            results.append((result, rows))
        else:
            t0 = clock()
            edges = list(result.edges())
            add(edges_id, pid, rid, t0, clock())
            results.append((result, edges))
    return results


def _check_text(outcomes):
    lines = []
    for o in outcomes:
        if o.verdict is GRAPHIC:
            lines.append("GRAPHIC replay")
        elif o.verdict is Verdict.NOT_GRAPHIC:
            lines.append(f"NOT_GRAPHIC exact j={o.witness}")
        else:
            lines.append("INCONCLUSIVE replay")
    return "\n".join(lines)


def _realize_text(results, fmt):
    blocks = []
    for outcome, body in results:
        if body is None:
            blocks.append(f"NOT_GRAPHIC j={outcome.witness}")
        elif fmt == "edges":
            blocks.append("\n".join(f"{s} {d}" for s, d in body))
        else:
            blocks.append("\n".join(body))
    return "\n\n".join(blocks)


def _traced_setup(spec, seed, spans):
    g_id = spans.name("generate.generate_sequence")
    f_id = spans.name("cli.format_record")
    lines = []
    for rid in range(spec["records"]):
        gspec = GeneratorSpec(kind=spec["generator"], seed=seed * SEED_STRIDE + rid, **spec["params"])
        t0 = clock()
        seq = generate_sequence(gspec)
        t1 = clock()
        lines.append(format_record(seq))
        spans.add(g_id, -1, rid, t0, t1)
        spans.add(f_id, -1, rid, t1, clock())
    return lines


def _micro(seqs, spans):
    """Per-record layers outside the command loop, each call its own span."""
    add = spans.add
    ids = {
        name: spans.name(name)
        for name in ("core.new_sequence", "core.stats", "sufficient.prepare")
    }
    checks = [(spans.name(f"sufficient.{c}"), getattr(sufficient, f"check_{c}")) for c in CODES]
    reps = math.ceil(MICRO_SAMPLES / len(seqs))
    for _ in range(reps):
        for rid, seq in enumerate(seqs):
            a, b = list(seq.in_degrees), list(seq.out_degrees)
            t0 = clock()
            new_sequence(a, b)
            t1 = clock()
            stats(seq)
            t2 = clock()
            prep = sufficient.prepare(seq)
            for field in PREPARED_FIELDS:
                getattr(prep, field, None)
            t3 = clock()
            add(ids["core.new_sequence"], -1, rid, t0, t1)
            add(ids["core.stats"], -1, rid, t1, t2)
            add(ids["sufficient.prepare"], -1, rid, t2, t3)
            for cid, check in checks:
                t0 = clock()
                check(seq, prep)
                add(cid, -1, rid, t0, clock())


def _micro_verify(realized, spans):
    v_id = spans.name("realize.verify_realization")
    reps = math.ceil(MICRO_SAMPLES / max(1, len(realized)))
    for _ in range(reps):
        for rid, (real, seq) in enumerate(realized):
            t0 = clock()
            verify_realization(real, seq)
            spans.add(v_id, -1, rid, t0, clock())


def p50(xs):
    return float(statistics.median(xs)) if xs else 0.0


def p99(xs):
    """Nearest-rank 99th percentile; 0 when the layer made no call."""
    if not xs:
        return 0.0
    ordered = sorted(xs)
    return float(ordered[max(0, math.ceil(0.99 * len(ordered)) - 1)])


def traced_run(spec, seed, seconds, csv_path, out):
    spans = Spans()
    lines = _traced_setup(spec, seed, spans)
    inputs = input_lines(spec, lines)
    oracle = oracle_mod.Oracle([parse_plain(line) for line in lines])
    seqs = [parse_record(line) for line in lines]
    _micro(seqs, spans)

    pass_cmd = {}  # pass id -> command name
    untraced = {cmd.name: [] for cmd in COMMANDS}
    traced = {cmd.name: [] for cmd in COMMANDS}
    first = {}  # command -> results of its first traced pass
    rounds = 0
    start = time.perf_counter()
    elapsed = last_round = 0.0
    while rounds < MIN_ROUNDS or elapsed + last_round <= seconds:  # another round fits
        round_start = time.perf_counter()
        for cmd in COMMANDS:
            is_check = cmd.fmt == "check"
            body = inputs.check_lines if is_check else inputs.realize_lines
            t0 = clock()
            (_check_plain if is_check else _realize_plain)(cmd, body)
            untraced[cmd.name].append(clock() - t0)
            pid = spans.new_pass()
            pass_cmd[pid] = cmd.name
            t0 = clock()
            results = (_check_traced if is_check else _realize_traced)(cmd, body, spans, pid)
            t1 = clock()
            spans.add(spans.name(f"cmd.{cmd.name}"), -1, pid, t0, t1)
            traced[cmd.name].append(t1 - t0)
            first.setdefault(cmd.name, results)
        rounds += 1
        last_round = time.perf_counter() - round_start
        elapsed = time.perf_counter() - start

    # correctness of the first traced pass of every command
    attempted = failed = 0
    realized = []
    for cmd in COMMANDS:
        results = first[cmd.name]
        if cmd.fmt == "check":
            idx = inputs.check_indices
            text = _check_text(results)
            failed += oracle_mod.check_errors(oracle, idx, cmd.loops, text, oracle.expected_exit(idx, cmd.loops))
        else:
            idx = inputs.realize_indices
            text = _realize_text(results, cmd.fmt)
            failed += oracle_mod.realize_errors(
                oracle, idx, cmd.loops, cmd.fmt, text, oracle.expected_exit(idx, cmd.loops)
            )
            realized += [(r, seqs[i]) for i, (r, body) in zip(idx, results) if body is not None]
        attempted += len(idx)
    _micro_verify(realized, spans)

    metrics, report = _metrics(spans, pass_cmd, untraced, traced, first, len(lines))
    print(f"{len(lines)} distinct records; {rounds} rounds of traced and untraced passes", file=out)
    for line in report:
        print(line, file=out)
    for name, (value, unit) in metrics.items():
        print(f"{name:52s} {value:16.4f} {unit}", file=out)
    spans.write_csv(csv_path)
    print(f"spans: {len(spans.data) // 5} written to {csv_path.name}", file=out)
    return metrics, attempted, failed


# layers whose busy share of each command's traced wall time is reported
SHARES = {
    "check_auto_loops": ("cli.parse_record", "sufficient.certify.loops", "exact.check_with_loops"),
    "check_exact_loops": ("cli.parse_record", "exact.check_with_loops"),
    "check_auto_noloops": ("cli.parse_record", "sufficient.certify.noloops", "exact.check_no_loops"),
    "check_exact_noloops": ("cli.parse_record", "exact.check_no_loops"),
    "realize_dense_loops": ("cli.parse_record", "realize.realize.loops", "realize.row_string"),
    "realize_edges_noloops": ("cli.parse_record", "realize.realize.noloops", "realize.edges"),
}


def _metrics(spans, pass_cmd, untraced, traced, first, distinct):
    by_name = {}  # span name -> durations, micro and setup spans
    by_cmd = {}  # (span name, command) -> durations inside that command's passes
    for name, parent, _, t0, t1 in spans.rows():
        if parent < 0:
            by_name.setdefault(name, []).append(t1 - t0)
        else:
            by_cmd.setdefault((name, pass_cmd[parent]), []).append(t1 - t0)

    def inside(name, *cmds):
        return [d for c in cmds for d in by_cmd.get((name, c), [])]

    m = {}
    parse = inside("cli.parse_record", *SHARES)
    m["cli.parse_record.p50_ns"] = p50(parse)
    m["cli.parse_record.p99_ns"] = p99(parse)
    m["cli.format_record.p50_ns"] = p50(by_name.get("cli.format_record"))
    m["core.new_sequence.p50_ns"] = p50(by_name.get("core.new_sequence"))
    m["core.stats.p50_ns"] = p50(by_name.get("core.stats"))
    prep = by_name.get("sufficient.prepare")
    m["sufficient.prepare.p50_ns"] = p50(prep)
    m["sufficient.prepare.p99_ns"] = p99(prep)
    for pol in ("loops", "noloops"):
        cert = inside(f"sufficient.certify.{pol}", f"check_auto_{pol}")
        m[f"sufficient.certify.{pol}.p50_ns"] = p50(cert)
        m[f"sufficient.certify.{pol}.p99_ns"] = p99(cert)
    for code in CODES:
        m[f"sufficient.{code}.p50_ns"] = p50(by_name.get(f"sufficient.{code}"))
    for fn, cmd in (("check_with_loops", "check_exact_loops"), ("check_no_loops", "check_exact_noloops")):
        ex = inside(f"exact.{fn}", cmd)
        m[f"exact.{fn}.p50_ns"] = p50(ex)
        m[f"exact.{fn}.p99_ns"] = p99(ex)
    for pol, cmd in (("loops", "realize_dense_loops"), ("noloops", "realize_edges_noloops")):
        rz = inside(f"realize.realize.{pol}", cmd)
        m[f"realize.realize.{pol}.p50_ns"] = p50(rz)
        m[f"realize.realize.{pol}.p99_ns"] = p99(rz)
    m["realize.verify_realization.p50_ns"] = p50(by_name.get("realize.verify_realization"))
    m["realize.row_string.p50_ns"] = p50(inside("realize.row_string", "realize_dense_loops"))
    m["realize.edges.p50_ns"] = p50(inside("realize.edges", "realize_edges_noloops"))
    m["generate.generate_sequence.p50_ns"] = p50(by_name.get("generate.generate_sequence"))
    metrics = {k: (v, "ns") for k, v in m.items()}

    # first-fire counts over the distinct records of the first traced pass
    for pol in ("loops", "noloops"):
        outcomes = first[f"check_auto_{pol}"][:distinct]
        fired = Counter(o.certificate.condition.value for o in outcomes if o.certificate)
        for code in FIRED[pol]:
            metrics[f"sufficient.fired.{pol}.{code}"] = (fired[code], "count")
        metrics[f"sufficient.hit_ratio.{pol}"] = (sum(fired.values()) / len(outcomes), "ratio")
    exact_outcomes = first["check_exact_loops"][:distinct] + first["check_exact_noloops"][:distinct]
    not_graphic = sum(o.verdict is Verdict.NOT_GRAPHIC for o in exact_outcomes)
    metrics["exact.not_graphic_ratio"] = (not_graphic / len(exact_outcomes), "ratio")

    report = [f"{'command':24s} {'untraced_ms':>12s} {'traced_ms':>10s} {'busy_ms':>10s} {'unaccounted_ms':>15s}"]
    for cmd, layers in SHARES.items():
        wall = sum(traced[cmd])
        busy = {layer: sum(inside(layer, cmd)) for layer in layers}
        for layer in layers:
            metrics[f"{layer}.share.{cmd}"] = (busy[layer] / wall, "ratio")
        ratios = [t / u for t, u in zip(traced[cmd], untraced[cmd])]
        metrics[f"trace.overhead_ratio.{cmd}"] = (statistics.median(ratios), "ratio")
        total_busy = sum(busy.values())
        report.append(
            f"{cmd:24s} {sum(untraced[cmd]) / 1e6:12.1f} {wall / 1e6:10.1f} "
            f"{total_busy / 1e6:10.1f} {(wall - total_busy) / 1e6:15.1f}"
        )
        report.append(
            "    shares: " + ", ".join(f"{layer} {busy[layer] / wall:.3f}" for layer in layers)
        )
    return metrics, report
