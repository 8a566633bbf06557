"""What a fresh process loads: each CLI command imports only the modules
it runs, and the package's exports resolve whatever was imported first."""

import json
import os
import subprocess
import sys

import pytest

import bidegree as bd

SRC = os.path.dirname(os.path.dirname(os.path.abspath(bd.__file__)))

# the modules the package imports at once; every command runs them
EAGER = {"core", "errors", "exact"}

# command line -> the submodules a child running it imports.  The child
# runs ``-m bidegree.cli``, so the cli module itself runs as __main__, and
# cli_extra, which imports cli by name, must not load it a second time.
# ``check --method exact`` runs only the exact check; --method's choices
# read sufficient's conditions only to list them or to meet another code.
# Only bound, generate and bench load cli_extra, the module they run from,
# and only realize loads realize.
COMMAND_MODULES = {
    "realize": EAGER | {"realize"},
    "check --method exact": EAGER,
    "check --method auto": EAGER | {"sufficient"},
    "bound --n 4 --m 1 --total 4": EAGER | {"cli_extra", "sufficient"},
    "generate --kind uniform --n 4 --total 4 --min 1 --max 1 --count 0":
        EAGER | {"cli_extra", "generate"},
    # the kind that builds the conjugate minimizer
    "generate --kind extremal --n 4 --total 4 --max 2":
        EAGER | {"cli_extra", "generate"},
    # an empty corpus: bench times nothing
    "bench": EAGER | {"cli_extra"},
}


def child(argv):
    return subprocess.run(
        [sys.executable, *argv], env=dict(os.environ, PYTHONPATH=SRC),
        stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=60)


def imported_modules(argv, code=0):
    """The modules a child ``python -X importtime argv`` imports; it must
    exit with ``code``."""
    run = child(["-X", "importtime", *argv])
    assert run.returncode == code, run.stderr
    # each "import time:" line ends with the name of a module it imported
    return {
        line.rsplit("|", 1)[1].strip()
        for line in run.stderr.splitlines() if line.startswith("import time:")
    }


@pytest.mark.parametrize("command", COMMAND_MODULES)
def test_command_imports_only_its_modules(command):
    imported = imported_modules(["-m", "bidegree.cli", *command.split()])
    assert {name for name in imported if name.split(".")[0] == "bidegree"} == (
        {"bidegree"} | {f"bidegree.{name}" for name in COMMAND_MODULES[command]})
    # json is imported for a JSON record only
    assert "json" not in imported - imported_modules(["-c", "pass"])


# cli reads a command line spelled exactly itself, so its child never
# imports argparse, which loads gettext and locale; any other command line
# (help, an abbreviation, an unknown option or choice, a value its type
# rejects) goes to argparse
@pytest.mark.parametrize("command, code, parsed", [
    ("check --method exact", 0, False),
    ("check --method auto --fallback-exact", 0, False),
    ("realize --format dense", 0, False),
    ("realize --no-loops --format edges -", 0, False),
    ("bound --n 10 --m 1 --total 40 --format csv", 0, False),
    ("generate --kind extremal --n 4 --total 4 --max 2 --count 2 --seed 3",
     0, False),
    ("bench --no-loops --repeat 2 --format csv -", 0, False),
    ("check -h", 0, True),
    ("check --meth auto", 0, True),
    ("realize --bogus", 3, True),
    ("generate --kind bogus", 3, True),
    ("bound --n x --m 1 --total 4", 3, True),
])
def test_argparse_loads_only_for_what_cli_does_not_read(command, code, parsed):
    imported = imported_modules(["-m", "bidegree.cli", *command.split()], code)
    assert ("argparse" in imported) is parsed
    if not parsed:
        assert "gettext" not in imported


# top-level help and usage never print a command's arguments, so the
# parser adds none and no command's modules load, cli_extra among them
@pytest.mark.parametrize("argv, code", [
    ([], 3), (["--help"], 0), (["-h"], 0), (["bogus"], 3)],
    ids=["no-command", "help", "h", "bogus"])
def test_top_level_imports_no_command_module(argv, code):
    imported = imported_modules(["-m", "bidegree.cli", *argv], code)
    assert {name for name in imported if name.split(".")[0] == "bidegree"} == (
        {"bidegree"} | {f"bidegree.{name}" for name in EAGER})


# ``import bidegree.cli`` first, as the console script does: neither
# import loads the submodule ``realize``
SURFACE_PROBE = """
import importlib, json, sys
import bidegree.cli
import bidegree

loaded = sorted(name for name in sys.modules if name.startswith("bidegree"))
star = {}
exec("from bidegree import *", star)
modules = [importlib.import_module(f"bidegree.{name}") for name in
           ("core", "errors", "exact", "generate", "realize", "sufficient")]
print(json.dumps({
    "loaded": loaded,
    "realize_is_function": bidegree.realize is modules[4].realize,
    "module_lists": [name for module in modules for name in module.__all__],
    "all": bidegree.__all__,
    "star_unbound": [name for module in modules for name in module.__all__
                     if star.get(name) is not getattr(module, name)],
    "dir": dir(bidegree),
}))
"""


def test_package_surface_after_cli_import():
    run = child(["-c", SURFACE_PROBE])
    assert run.returncode == 0, run.stderr
    facts = json.loads(run.stdout)
    # neither import loads a lazy module
    assert facts["loaded"] == [
        "bidegree", "bidegree.cli", "bidegree.core", "bidegree.errors",
        "bidegree.exact"]
    assert facts["realize_is_function"]
    # each module's own list, in the package's order of modules
    assert facts["all"] == facts["module_lists"]
    assert facts["star_unbound"] == []
    assert set(facts["all"]) <= set(facts["dir"])


# each way of importing the submodule ``realize`` in a fresh process, after
# ``import bidegree.cli; import bidegree``; the import system then binds the
# loaded submodule onto the package, and the name must stay the function
REALIZE_IMPORTS = {
    "import_module after access":
        'bidegree.realize; importlib.import_module("bidegree.realize")',
    "import_module before access":
        'importlib.import_module("bidegree.realize"); bidegree.realize',
    "import": "import bidegree.realize",
    "from import": "from bidegree.realize import verify_realization",
    "star": "from bidegree import *",
}
REALIZE_PROBE = """
import importlib, sys
import bidegree.cli
import bidegree
assert "bidegree.realize" not in sys.modules
{statement}
module = sys.modules["bidegree.realize"]
assert type(module).__name__ == "module", module
assert bidegree.realize is module.realize, bidegree.realize
import bidegree.realize as bound
assert bound is module.realize, bound
"""


@pytest.mark.parametrize("statement", REALIZE_IMPORTS.values(),
                         ids=REALIZE_IMPORTS)
def test_realize_stays_the_function_whatever_imports_the_module(statement):
    run = child(["-c", REALIZE_PROBE.format(statement=statement)])
    assert run.returncode == 0, run.stderr
