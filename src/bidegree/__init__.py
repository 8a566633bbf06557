"""Graphicality of directed bidegree sequences.

Decide whether paired in/out-degree vectors are realizable as a 0-1
adjacency matrix (with or without self-loops), either exactly or through
constant-time sufficient certificates; realize certified sequences as
explicit matrices; and generate random or adversarial sequences at the
sharpness frontier of the bounds.

Each public name is listed once, in its own module's ``__all__``; the
package re-exports them all.  It imports ``core``, ``errors``, ``exact``
and ``realize`` at once, so that the function ``realize`` holds that name
before any import of the submodule could bind it; ``check``, ``bound``,
``generate`` and ``bench`` load ``realize`` for that alone.  It imports
``sufficient`` and ``generate`` on first access to a name it has not bound
(PEP 562), so a command that runs neither does not load them.
"""

from . import core, errors, exact, realize as _realize


def _export(*modules):
    for module in modules:
        globals().update((name, getattr(module, name)) for name in module.__all__)


# importing the submodule ``realize`` bound its name; its function, bound
# after it, takes the name
_export(core, errors, exact, _realize)


def __getattr__(name):
    # absolute imports: ``from . import generate`` would first ask this hook
    # for the name ``generate``
    import bidegree.generate
    import bidegree.sufficient

    generate, sufficient = bidegree.generate, bidegree.sufficient
    _export(generate, sufficient)
    modules = (core, errors, exact, generate, _realize, sufficient)
    globals()["__all__"] = [key for module in modules for key in module.__all__]
    try:
        return globals()[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None


def __dir__():
    __getattr__("__all__")
    return sorted(globals())


__version__ = "0.1.0"
