"""The package surface: what ``bidegree`` exports, and the README examples."""

import ast
import importlib
import io
import re
import shlex
from pathlib import Path

import pytest

import bidegree as bd
from bidegree.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = [
    importlib.import_module(f"bidegree.{name}")
    for name in ("core", "errors", "exact", "generate", "realize", "sufficient")
]

# bidegree.__all__ before each module's own list became the one source
EARLIER_EXPORTS = """
    AdjacencyRealization BadExponent BidegreeError BidegreeSequence BoundTable
    Certificate CheckOutcome Condition ConjugateProfile DegreeExceedsN
    DimensionMismatch EntryOutOfRange GeneratorSpec Infeasible
    InstanceTooLarge InvalidParameters InvalidStats LengthMismatch
    NegativeDegree Prepared SequenceStats SplitMix64 SumMismatch Verdict
    bound_table brute_force_exists certify check_cor2 check_cor3 check_cor5
    check_no_loops check_thm2 check_thm3 check_thm4 check_thm5 check_thm6
    check_with_loops conjugate_profile gen_counterexample1 gen_extremal
    gen_powerlaw gen_uniform generate_sequence kstar_no_loops
    kstar_with_loops minimizer_b_star new_sequence pad_bipartite prepare
    realize sort_canonical stats thm3_special_max thm4_special_max
    verify_realization violated_indices
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
        assert len(EARLIER_EXPORTS) == 56
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
        bounds, note = value("bd.bound_table(10, 1, 40).h")
        assert bounds == ast.literal_eval(note)
