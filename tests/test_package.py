"""The package surface: what ``bidegree`` exports, and the README examples."""

import ast
import copy
import importlib
import io
import os
import pickle
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import bidegree as bd
from bidegree.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = [
    importlib.import_module(f"bidegree.{name}")
    for name in ("core", "errors", "exact", "generate", "realize", "sufficient")
]

# bidegree.__all__ before each module's own list became the one source,
# less ConjugateProfile, conjugate_profile, EntryOutOfRange,
# kstar_with_loops, kstar_no_loops, thm3_special_max, thm4_special_max and
# sort_canonical, which were removed as unused, Prepared, now the plain
# list prepare returns, and InstanceTooLarge, which went with the
# brute-force oracle's size cap
EARLIER_EXPORTS = """
    AdjacencyRealization BadExponent BidegreeError BidegreeSequence BoundTable
    Certificate CheckOutcome Condition DegreeExceedsN DimensionMismatch
    GeneratorSpec Infeasible InvalidParameters InvalidStats
    LengthMismatch NegativeDegree SequenceStats SplitMix64
    SumMismatch Verdict bound_table brute_force_exists certify check_cor2
    check_cor3 check_cor5 check_no_loops check_thm2 check_thm3 check_thm4
    check_thm5 check_thm6 check_with_loops gen_counterexample1 gen_extremal
    gen_powerlaw gen_uniform generate_sequence minimizer_b_star new_sequence
    pad_bipartite prepare realize stats verify_realization violated_indices
""".split()


class TestExports:
    @pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
    def test_module_exports_resolve_on_the_package(self, module):
        for name in module.__all__:
            assert getattr(bd, name) is getattr(module, name), name

    def test_package_all_is_the_union_of_the_module_lists(self):
        joined = [name for module in MODULES for name in module.__all__]
        assert len(set(joined)) == len(joined)
        assert sorted(bd.__all__) == sorted(joined)

    def test_earlier_exports_are_kept(self):
        assert len(EARLIER_EXPORTS) == 46
        assert set(EARLIER_EXPORTS) <= set(bd.__all__)

    def test_realize_is_the_function(self):
        # the star import rebinds the submodule's name to its function
        module = importlib.import_module("bidegree.realize")
        assert bd.realize is module.realize and callable(bd.realize)


def shell_examples():
    """``(command, expected stdout lines)`` for each ``$ ...`` line in the
    README; a command ending in ``\\`` continues on the next line."""
    examples = []
    current = None
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("$ "):
            current = [line[2:], []]
            examples.append(current)
        elif current is not None and current[0].endswith("\\"):
            current[0] = current[0][:-1] + line.strip()
        elif current is not None and line and not line.startswith("```"):
            current[1].append(line)
        else:
            current = None
    return examples


# the generate | bench example prints wall times, which no run repeats
RUNNABLE = [ex for ex in shell_examples() if " bench " not in ex[0]]


class TestReadme:
    def test_examples_found(self):
        assert len(RUNNABLE) == 5 and len(shell_examples()) == 6

    @pytest.mark.parametrize("command, expected", RUNNABLE,
                             ids=[ex[0] for ex in RUNNABLE])
    def test_shell_example(self, command, expected):
        stdin = ""
        if " | " in command:
            feed, command = command.split(" | ", 1)
            echo, text = shlex.split(feed)
            assert echo == "echo"
            stdin = text + "\n"
        program, *argv = shlex.split(command)
        assert program == "bidegree"
        out, err = io.StringIO(), io.StringIO()
        main(argv, stdin=io.StringIO(stdin), stdout=out, stderr=err)
        assert out.getvalue() == "".join(line + "\n" for line in expected)
        assert err.getvalue() == ""

    def test_quick_start_values(self):
        text = README.read_text(encoding="utf-8")
        (block,) = re.findall(r"```python\n(.*?)```", text, re.S)
        namespace: dict = {}
        exec(block, namespace)
        notes = {
            code.strip(): note.strip()
            for code, note in (
                line.split("#", 1) for line in block.splitlines() if "#" in line
            )
        }

        def value(code):
            return eval(code, namespace), notes[code]

        outcome, note = value("bd.check_with_loops(seq)")
        assert note == f"NOT_GRAPHIC, witness j={outcome.witness}"
        assert outcome.verdict is bd.Verdict.NOT_GRAPHIC and outcome.witness == 3
        same, _ = value("bd.certify(seq, allow_loops=True, fallback_exact=True)")
        assert same == outcome
        verified, note = value("bd.verify_realization(real, good)")
        assert verified is True and note == "True"
        targets, note = value("real.targets")
        assert targets == ast.literal_eval(note)
        bounds, note = value("bd.bound_table(10, 1, 40).h")
        assert bounds == ast.literal_eval(note)


def _seq():
    return bd.new_sequence((2, 1, 0), (1, 1, 1))


def _spec(seed=0):
    return bd.GeneratorSpec("uniform", n=5, total=10, min_degree=1,
                            max_degree=5, seed=seed)


# name -> (a fresh value, an unequal value of the same type, its fields,
# its repr or None); a value holding a dict is unhashable
VALUES = {
    "BidegreeSequence": (
        _seq, lambda: bd.new_sequence((1, 1, 1), (2, 1, 0)),
        ("in_degrees", "out_degrees", "stats"),
        "BidegreeSequence(in_degrees=(2, 1, 0), out_degrees=(1, 1, 1))",
    ),
    "SequenceStats": (
        lambda: bd.stats(_seq()), lambda: bd.stats(bd.new_sequence((1,), (1,))),
        ("n", "total", "min_degree", "max_in", "max_out", "max_degree"),
        "SequenceStats(n=3, total=3, min_degree=0, max_in=2, max_out=1, "
        "max_degree=2)",
    ),
    "CheckOutcome": (
        lambda: bd.check_with_loops(bd.new_sequence((2, 2, 2, 0), (4, 2, 0, 0))),
        lambda: bd.check_with_loops(_seq()),
        ("verdict", "witness", "certificate"),
        "CheckOutcome(verdict=<Verdict.NOT_GRAPHIC: 'NOT_GRAPHIC'>, "
        "witness=3, certificate=None)",
    ),
    "Certificate": (
        lambda: bd.check_thm3(_seq()).certificate,
        lambda: bd.check_thm3(bd.new_sequence((1,), (1,))).certificate,
        ("condition", "parameters"),
        "Certificate(condition=<Condition.MAX_PRODUCT_LOOPS: 'thm3'>, "
        "parameters={'Ma': 2, 'Mb': 1, 'S': 3})",
    ),
    "BoundTable": (
        lambda: bd.bound_table(10, 1, 40), lambda: bd.bound_table(10, 2, 40),
        ("n", "m", "total", "h"),
        "BoundTable(n=10, m=1, total=40, h={2: 5, 3: 6, 4: 5, 5: 6, 6: 5})",
    ),
    "AdjacencyRealization": (
        lambda: bd.realize(_seq()), lambda: bd.realize(_seq(), allow_loops=False),
        ("n", "targets", "loops_allowed"),
        None,
    ),
    "GeneratorSpec": (
        _spec, lambda: _spec(seed=1),
        ("kind", "n", "seed", "total", "min_degree", "max_degree", "exponent",
         "max_in", "max_out"),
        "GeneratorSpec(kind='uniform', n=5, seed=0, total=10, min_degree=1, "
        "max_degree=5, exponent=None, max_in=None, max_out=None)",
    ),
}
UNHASHABLE = {"Certificate", "BoundTable"}


@pytest.mark.parametrize("name", VALUES)
class TestValueTypes:
    """Each public value type: equal by value, hashable unless it holds a
    dict, a stable repr, and immutable."""

    def test_type_is_exported(self, name):
        make, _, _, _ = VALUES[name]
        assert type(make()) is getattr(bd, name)

    def test_equality(self, name):
        make, other, _, _ = VALUES[name]
        assert make() == make() and not make() != make()
        assert make() != other() and not make() == other()

    def test_hash(self, name):
        make, _, _, _ = VALUES[name]
        if name in UNHASHABLE:
            with pytest.raises(TypeError):
                hash(make())
        else:
            assert hash(make()) == hash(make())
            assert len({make(), make()}) == 1

    def test_repr(self, name):
        make, _, _, expected = VALUES[name]
        if expected is not None:
            assert repr(make()) == expected

    def test_immutable(self, name):
        make, _, fields, _ = VALUES[name]
        value = make()
        for field in fields:
            before = getattr(value, field)
            with pytest.raises(AttributeError):
                setattr(value, field, None)
            with pytest.raises(AttributeError):
                delattr(value, field)
            assert getattr(value, field) is before
        with pytest.raises(AttributeError):
            value.extra = 1
        assert value == make()

    def test_copy_and_pickle(self, name):
        make, _, _, _ = VALUES[name]
        value = make()
        for twin in (copy.copy(value), copy.deepcopy(value),
                     pickle.loads(pickle.dumps(value))):
            assert type(twin) is type(value) and twin == value


def test_sequence_copies_keep_their_stats():
    # equality reads only the vectors, so compare the stats on their own
    seq = _seq()
    for twin in (copy.deepcopy(seq), pickle.loads(pickle.dumps(seq))):
        assert twin.stats == seq.stats


def test_realization_copies_keep_their_targets():
    # a value the constructor built, with targets realize would not emit
    # (unsorted, repeated), copies as it is; copies do not re-sort them
    built = bd.AdjacencyRealization(3, [[2, 0], [], [1, 1]], False)
    for real in (built, bd.realize(_seq())):
        for twin in (copy.copy(real), copy.deepcopy(real),
                     pickle.loads(pickle.dumps(real))):
            assert type(twin) is type(real) and twin == real
            assert twin.targets == real.targets
            assert twin.loops_allowed == real.loops_allowed
    assert built.targets == ((2, 0), (), (1, 1))


def test_generator_spec_defaults():
    fields = VALUES["GeneratorSpec"][2]
    spec = bd.GeneratorSpec("powerlaw")
    assert {name: getattr(spec, name) for name in fields} == {
        **dict.fromkeys(fields), "kind": "powerlaw", "seed": 0}


def test_cli_import_leaves_out_dataclasses():
    """The value types are plain classes, so importing the CLI, as every
    command does, loads no ``dataclasses``."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(bd.__file__)))
    probe = "import sys, bidegree.cli; print('dataclasses' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True,
    ).stdout
    assert out == "False\n"
