"""Generalized trigonometric and hyperbolic functions with a verification engine.

The one-parameter family sin_p, cos_p, tan_p, sinh_p, cosh_p, tanh_p (p > 1)
is evaluated from the defining integrals, the circular one through
hypergeometric series with rigorous tail bounds and the hyperbolic one by
tanh-sinh quadrature, with safeguarded inversion and cancellation-safe series
near zero.  On top of the
evaluators sits a grid-based engine that certifies monotonicity claims and
inequality chains with explicit error budgets, plus the ``ptrig`` command line
front end.  The public names are those each module declares in its __all__.
"""

from . import core, inequalities, numerics
from .core import *  # noqa: F401,F403
from .inequalities import *  # noqa: F401,F403
from .numerics import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [*core.__all__, *inequalities.__all__, *numerics.__all__, "__version__"]
