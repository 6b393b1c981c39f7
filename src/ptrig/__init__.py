"""Generalized trigonometric and hyperbolic functions with a verification engine.

The one-parameter family sin_p, cos_p, tan_p, sinh_p, cosh_p, tanh_p (p > 1)
is evaluated from the defining integrals, the circular one through
hypergeometric series with rigorous tail bounds and the hyperbolic one by
tanh-sinh quadrature, with safeguarded inversion and cancellation-safe series
near zero.  On top of the
evaluators sits a grid-based engine that certifies monotonicity claims and
inequality chains with explicit error budgets, plus the ``ptrig`` command line
front end.
"""

from .core import (
    DomainError,
    PoleError,
    arcsin_p,
    arsinh_p,
    cos_p,
    cosh_p,
    d_cos_p,
    d_cosh_p,
    d_sin_p,
    d_sinh_p,
    d_tanh_p,
    pi_p,
    sin_p,
    sinh_p,
    tan_p,
    tanh_p,
)
from .inequalities import (
    EvaluationFailed,
    FunctionId,
    GridSpec,
    SharpConstants,
    VerificationReport,
    grid_points,
    is_exploratory,
    lem22_f,
    lem23_g,
    lem24_gap,
    sharp_constants,
    thm1_f,
    thm2_g,
    verify_claim,
)
from .numerics import (
    Evaluation,
    NonConvergence,
    NumericsError,
)

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "Evaluation",
    "EvaluationFailed",
    "FunctionId",
    "GridSpec",
    "NonConvergence",
    "NumericsError",
    "PoleError",
    "SharpConstants",
    "VerificationReport",
    "arcsin_p",
    "arsinh_p",
    "cos_p",
    "cosh_p",
    "d_cos_p",
    "d_cosh_p",
    "d_sin_p",
    "d_sinh_p",
    "d_tanh_p",
    "grid_points",
    "is_exploratory",
    "lem22_f",
    "lem23_g",
    "lem24_gap",
    "pi_p",
    "sharp_constants",
    "sin_p",
    "sinh_p",
    "tan_p",
    "tanh_p",
    "thm1_f",
    "thm2_g",
    "verify_claim",
    "__version__",
]
