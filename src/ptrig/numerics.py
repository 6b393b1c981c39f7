"""Error-carrying values, tolerances and tanh-sinh quadrature.

Everything downstream of this module consumes :class:`Evaluation`, a value
paired with a claimed absolute-error bound, and asks for accuracy with a
:class:`Tolerance`.  :func:`integrate` is adaptive tanh-sinh
(double-exponential) quadrature, which handles integrable algebraic endpoint
singularities without any per-integrand substitution; core takes the
hyperbolic defining integral with it.  The quadrature is internal to the
package: ``ptrig`` does not re-export :func:`integrate`, its
:class:`InvalidInterval` or ``DEFAULT_TOLERANCE``.

Its error bounds are heuristic (refinement differences), not
directed-rounding interval arithmetic; they are validated against closed
forms in the test suite.

numpy is imported only inside the quadrature (:func:`integrate` and its node
helpers), so a program that never integrates never loads it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

__all__ = [
    "Evaluation",
    "Tolerance",
    "DEFAULT_TOLERANCE",
    "InvalidInterval",
    "NonConvergence",
    "NumericsError",
    "integrate",
]

_EPS = sys.float_info.epsilon


class NumericsError(Exception):
    """Base class for numerical-routine failures."""


class InvalidInterval(NumericsError):
    """Integration interval is empty or reversed (a >= b)."""


class NonConvergence(NumericsError):
    """Refinement or iteration budget exhausted before tolerance was met."""


@dataclass(frozen=True)
class Evaluation:
    """A computed value with a claimed absolute-error bound."""

    value: float
    abs_err: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", float(self.value))
        object.__setattr__(self, "abs_err", float(self.abs_err))
        if not math.isfinite(self.value):
            raise ValueError(f"Evaluation value must be finite, got {self.value}")
        if not (math.isfinite(self.abs_err) and self.abs_err >= 0.0):
            raise ValueError(f"Evaluation abs_err must be finite and >= 0, got {self.abs_err}")


@dataclass(frozen=True)
class Tolerance:
    """Accuracy request: absolute and relative targets."""

    abs_tol: float = 1e-12
    rel_tol: float = 1e-12

    def __post_init__(self) -> None:
        if not (0.0 < self.abs_tol < 1.0):
            raise ValueError(f"abs_tol must lie in (0, 1), got {self.abs_tol}")
        if not (0.0 < self.rel_tol < 1.0):
            raise ValueError(f"rel_tol must lie in (0, 1), got {self.rel_tol}")


DEFAULT_TOLERANCE = Tolerance()

# tanh-sinh truncation point.  y(t) = (pi/2)*sinh(t) reaches ~316.8 at t = 6,
# which keeps cosh(y)^2 below float64 overflow while pushing the innermost
# node offset to ~5e-276 of the interval length: deep enough that any
# integrable algebraic singularity has converged long before.
_T_MAX = 6.0
_LEVEL_MAX = 12
# Minimum refinement level before a convergence claim is accepted; guards
# against coincidental agreement of the two coarsest trapezoids.
_LEVEL_MIN = 3


@lru_cache(maxsize=None)
def _node_table(level: int) -> tuple[np.ndarray, np.ndarray]:
    """Offsets and weight densities for the positive-t nodes of one level.

    Level 1 holds all multiples of h=0.5 in (0, T_MAX]; level L >= 2 holds the
    odd multiples of h = 2**-L, i.e. exactly the nodes new to that level.
    Returns (delta, wdens) where delta is the node's distance to the nearer
    interval endpoint as a fraction of the interval length, computed in
    offset space so it never collapses to 0 while y(t) is representable, and
    wdens = (pi/2)*cosh(t)/cosh(y)^2 is the weight density (the caller
    multiplies by h).  Arrays are treated as immutable once cached.
    """
    import numpy as np

    h = 2.0 ** (-level)
    if level == 1:
        k = np.arange(1, int(_T_MAX / h) + 1)
    else:
        k = np.arange(1, int(_T_MAX / h) + 1, 2)
    t = k * h
    y = 0.5 * math.pi * np.sinh(t)
    e = np.exp(-2.0 * y)  # underflow to 0 at the deepest nodes is benign
    delta = e / (1.0 + e)
    wdens = 0.5 * math.pi * np.cosh(t) / np.cosh(y) ** 2
    return delta, wdens


def _eval_nodes(f: Callable, vectorized: bool, x: np.ndarray) -> np.ndarray:
    import numpy as np

    with np.errstate(all="ignore"):
        if vectorized:
            return np.asarray(f(x), dtype=float)
        return np.array([float(f(xi)) for xi in x], dtype=float)


def integrate(
    f: Callable,
    a: float,
    b: float,
    tol: Tolerance = DEFAULT_TOLERANCE,
    *,
    vectorized: bool = False,
) -> Evaluation:
    """Integrate f over (a, b) by adaptive tanh-sinh quadrature.

    The integrand may diverge at either endpoint with an integrable algebraic
    singularity.  With a = 0 the nodes near a are the node offsets
    themselves and keep full resolution, so a singularity placed at 0
    (reflect the variable if need be) integrates to full double precision.
    Nodes near a nonzero endpoint round onto it once the offset drops below
    half an ulp; samples that come back non-finite there are treated as
    singular overflow and dropped, with their estimated mass added to the
    error bound, which caps the attainable accuracy near 1e-8 for such a
    singularity.  In this package only the hyperbolic integral arsinh_p,
    which has no singularity, is taken this way.

    Refinement halves the node spacing per level (budget: 12 levels) and the
    returned abs_err is twice the last two-level difference plus a summation
    noise floor.  Set ``vectorized=True`` if f accepts numpy arrays.

    Raises InvalidInterval if a >= b, NonConvergence if the estimate never
    falls below max(tol.abs_tol, tol.rel_tol * |value|).
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise InvalidInterval(f"integration endpoints must be finite, got [{a}, {b}]")
    if a >= b:
        raise InvalidInterval(f"integration interval is empty or reversed: [{a}, {b}]")
    import numpy as np

    length = b - a
    half = 0.5 * length
    mid = a + half

    # Midpoint node (t = 0): delta = 1/2, weight density pi/2.
    fm = _eval_nodes(f, vectorized, np.array([mid]))[0]
    clip = 0.0
    if not math.isfinite(fm):
        fm = 0.0
        clip = math.inf  # a non-finite midpoint cannot be attributed to an endpoint

    total = 0.5 * math.pi * fm  # running trapezoid sum in t-space, h factored out
    abs_total = abs(total)
    prev_value = math.nan
    value = half * 0.5 * total  # placeholder; real values start at level 1

    for level in range(1, _LEVEL_MAX + 1):
        h = 2.0 ** (-level)
        delta, wdens = _node_table(level)
        off = length * delta
        x_lo = a + off
        x_hi = b - off
        f_lo = _eval_nodes(f, vectorized, x_lo)
        f_hi = _eval_nodes(f, vectorized, x_hi)

        level_clip = 0.0
        bad_lo = ~np.isfinite(f_lo)
        bad_hi = ~np.isfinite(f_hi)
        for fv, bad in ((f_lo, bad_lo), (f_hi, bad_hi)):
            if bad.any():
                good = np.nonzero(~bad)[0]
                if good.size == 0:
                    level_clip = math.inf
                    break
                # Nodes are ordered by depth; the transformed integrand of an
                # integrable singularity decays toward the tail, so the last
                # finite sample bounds each dropped one.
                bound = abs(fv[good[-1]] * wdens[good[-1]])
                level_clip += bound * np.count_nonzero(bad)
                fv[bad] = 0.0

        # The running sums are in h-free units (plain sums over the node
        # set, which only ever grows); the current h scales them below.
        contrib = wdens * (f_lo + f_hi)
        total += float(np.sum(contrib))
        abs_total += float(np.sum(np.abs(contrib)))
        clip += level_clip

        prev_value = value
        value = half * h * total
        noise = 8.0 * _EPS * half * h * abs_total
        est = 2.0 * abs(value - prev_value) + noise + 2.0 * half * h * clip

        if level >= _LEVEL_MIN and est <= max(tol.abs_tol, tol.rel_tol * abs(value)):
            if not math.isfinite(value):
                raise NonConvergence("integrand produced a non-finite sum")
            return Evaluation(float(value), float(est))

    raise NonConvergence(
        f"tanh-sinh estimate {est:.3e} above tolerance after {_LEVEL_MAX} levels"
    )
