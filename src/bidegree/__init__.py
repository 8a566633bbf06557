"""Graphicality of directed bidegree sequences.

Decide whether paired in/out-degree vectors are realizable as a 0-1
adjacency matrix (with or without self-loops), either exactly or through
constant-time sufficient certificates; realize certified sequences as
explicit matrices; and generate random or adversarial sequences at the
sharpness frontier of the bounds.

Each public name is listed once, in its own module's ``__all__``; the
package re-exports them all.  It imports ``core``, ``errors`` and
``exact`` at once, and ``generate``, ``realize`` and ``sufficient`` on
first access to a name it has not bound (PEP 562), so a command that runs
none of them does not load them: ``check`` loads neither ``realize`` nor
``generate``.  The name ``realize`` is the function, whatever imports the
submodule first: the import system binds a loaded submodule onto its
package, and the package's module type binds the submodule's function in
its place.
"""

import sys
from types import ModuleType

from . import core, errors, exact


class _Package(ModuleType):
    def __setattr__(self, name, value):
        # the submodule realize leaves its name to its function
        if name == "realize" and isinstance(value, ModuleType):
            value = value.realize
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package


def _export(*modules):
    for module in modules:
        globals().update((name, getattr(module, name)) for name in module.__all__)


_export(core, errors, exact)


def __getattr__(name):
    # absolute imports: ``from . import generate`` would first ask this hook
    # for the name ``generate``; the submodules come from sys.modules, as
    # ``import bidegree.realize as m`` would give the function
    import bidegree.generate
    import bidegree.realize
    import bidegree.sufficient

    generate, realize, sufficient = (
        sys.modules[f"{__name__}.{key}"] for key in ("generate", "realize", "sufficient"))
    _export(generate, realize, sufficient)
    modules = (core, errors, exact, generate, realize, sufficient)
    globals()["__all__"] = [key for module in modules for key in module.__all__]
    try:
        return globals()[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None


def __dir__():
    __getattr__("__all__")
    return sorted(globals())


__version__ = "0.1.0"
