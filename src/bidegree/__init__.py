"""Graphicality of directed bidegree sequences.

Decide whether paired in/out-degree vectors are realizable as a 0-1
adjacency matrix (with or without self-loops), either exactly or through
constant-time sufficient certificates; realize certified sequences as
explicit matrices; and generate random or adversarial sequences at the
sharpness frontier of the bounds.

Each public name is listed once, in its own module's ``__all__``; the
package re-exports them all.
"""

from . import core, errors, exact, generate, realize, sufficient

# joined before the star imports, after which ``realize`` is the function
__all__ = (
    core.__all__
    + errors.__all__
    + exact.__all__
    + generate.__all__
    + realize.__all__
    + sufficient.__all__
)

from .core import *  # noqa: E402,F403
from .errors import *  # noqa: E402,F403
from .exact import *  # noqa: E402,F403
from .generate import *  # noqa: E402,F403
from .realize import *  # noqa: E402,F403
from .sufficient import *  # noqa: E402,F403

__version__ = "0.1.0"
