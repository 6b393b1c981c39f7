"""Error-carrying values, the error classes and the hyperbolic quadrature.

Everything downstream consumes :class:`Evaluation`, a value paired with a
claimed absolute-error bound: a midpoint-radius ball, whose operations are the
one rule by which errors propagate and the one judge of poles (they raise
:class:`PoleError` before math sees one).  It is, like the report types of
:mod:`.inequalities`, an immutable :class:`_Record` type over ``__slots__``,
which behaves as a frozen dataclass without importing :mod:`dataclasses` and
:mod:`inspect`.  :func:`integrate` is tanh-sinh (double-exponential)
quadrature over (0, b), internal to the package: core's arsinh_p is its one
caller, and passes it core's fixed targets.  Its error bound is heuristic
(refinement differences), validated against closed forms in the test suite.
It is the one place that sets numpy's error state: it integrates with every
floating-point exception ignored, whatever the caller's state, and judges
only its sums, so a non-finite sample or sum raises :class:`NonConvergence`.

numpy is imported only inside the quadrature (:func:`integrate` and its node
table), so a program that never integrates never loads it.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from typing import Callable

__all__ = [
    "Evaluation",
    "NonConvergence",
    "NumericsError",
]

_EPS = sys.float_info.epsilon


class NumericsError(Exception):
    """Base class for numerical-routine failures."""


class NonConvergence(NumericsError):
    """Refinement or iteration budget exhausted before the target was met."""


class DomainError(ValueError):
    """Argument outside the function's domain."""


class PoleError(DomainError):
    """Argument too close to a pole to evaluate meaningfully."""


_fill = object.__setattr__


class _Record:
    """Immutable record over ``__slots__``.  A subclass names its fields in
    ``__slots__``, in constructor order, and its ``__init__`` checks its
    arguments and stores them with ``_set``."""

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            _fill(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields()


class Evaluation(_Record):
    """A value with a claimed absolute-error bound: the ball of radius abs_err
    about value (Rump, Acta Numerica 2010; Johansson, IEEE TC 2017).

    Balls and floats (exact) combine by + - * / and unary -; ``b.exp()``,
    ``b.log()``, ``b.log1p()``, ``b.expm1()`` and ``b ** y``, a real power of
    a ball about a value >= 0 (clipped at 0), map them.  A result's value is
    the float expression's; its radius covers the operands' errors through
    the exact ends of their enclosures (exp and expm1 are convex, log and
    log1p concave), and the value's rounding: half an ulp for + - * /,
    _LIBM_ULP ulps for the functions (assumed of the platform libm, and
    checked by the tests), an ulp of 0 at least.  A pole in reach (0 for /,
    log and ** y < 0, -1 for log1p) raises PoleError, ** of a ball about a
    value < 0 DomainError, and a result past the range OverflowError.
    """

    __slots__ = ("value", "abs_err")

    def __init__(self, value: float, abs_err: float) -> None:
        value = float(value)
        abs_err = float(abs_err)
        if not math.isfinite(value):
            raise ValueError(f"Evaluation value must be finite, got {value}")
        if not (math.isfinite(abs_err) and abs_err >= 0.0):
            raise ValueError(f"Evaluation abs_err must be finite and >= 0, got {abs_err}")
        _fill(self, "value", value)
        _fill(self, "abs_err", abs_err)

    def __add__(self, other):
        n, s = (other.value, other.abs_err) if type(other) is Evaluation else (other, 0.0)
        v = self.value + n
        return _ball(v, self.abs_err + s + _HALF_ULP * abs(v) + _ULP0)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return _ball(other, 0.0) - self

    def __neg__(self):
        return _ball(-self.value, self.abs_err)

    def __mul__(self, other):
        m, r = self.value, self.abs_err
        n, s = (other.value, other.abs_err) if type(other) is Evaluation else (other, 0.0)
        v = m * n
        return _ball(v, abs(m) * s + abs(n) * r + r * s + _HALF_ULP * abs(v) + _ULP0)

    __rmul__ = __mul__

    def __truediv__(self, other):
        n, s = (other.value, other.abs_err) if type(other) is Evaluation else (other, 0.0)
        if not abs(n) > s:
            raise PoleError(f"division by a ball about {n} that reaches 0")
        v = self.value / n
        return _ball(v, (self.abs_err + abs(v) * s) / (abs(n) - s) + _HALF_ULP * abs(v) + _ULP0)

    def __rtruediv__(self, other):
        return _ball(other, 0.0) / self

    def exp(self):
        v = math.exp(self.value)
        return _ball(v, _rise(v, self.value, self.abs_err) + _libm(v))

    def expm1(self):
        v = math.expm1(self.value)
        return _ball(v, _rise(math.exp(self.value), self.value, self.abs_err) + _libm(v))

    def log(self):
        if not self.value > self.abs_err:
            raise PoleError(f"log of a ball about {self.value} that reaches 0")
        v = math.log(self.value)
        return _ball(v, -math.log1p(-self.abs_err / self.value) + _libm(v))

    def log1p(self):
        if not 1.0 + self.value > self.abs_err:
            raise PoleError(f"log1p of a ball about {self.value} that reaches -1")
        v = math.log1p(self.value)
        return _ball(v, -math.log1p(-self.abs_err / (1.0 + self.value)) + _libm(v))

    def __pow__(self, y: float):
        m, r = self.value, self.abs_err
        if m < 0.0:
            raise DomainError(f"power of a ball about {m} < 0")
        if y < 0.0 and not r < m:
            raise PoleError(f"power {y} of a ball about {m} that reaches 0")
        v = m ** y
        if y == 0.0:
            prop = 0.0
        elif r < m:
            # The far end lies above v for y >= 1, below it otherwise.
            side = math.log1p((r if y >= 1.0 else -r) / m)
            prop = (v + _LIBM_ULP0) * abs(math.expm1(y * side * _UP))  # _UP: the rounding of y side
        else:  # y > 0: the enclosure [0, (m + r)^y]
            prop = max(((m + r) * _UP) ** y - v, v + _LIBM_ULP0)
        return _ball(v, prop + _libm(v))


# The rounding of a result; _UP widens a radius over its own few roundings.
_ULP0 = math.ulp(0.0)
_HALF_ULP = 0.5 * _EPS
_LIBM_ULP = 2.0
_LIBM_ULP0 = _LIBM_ULP * _ULP0
_UP = 1.0 + 8.0 * _EPS
_BIG = sys.float_info.max
_new = object.__new__
_put_value = Evaluation.value.__set__
_put_err = Evaluation.abs_err.__set__


def _libm(v: float) -> float:
    return _LIBM_ULP * _EPS * abs(v) + _LIBM_ULP0


def _rise(e: float, m: float, r: float) -> float:
    """A bound on e^(m + r) - e^m, e = exp(m), that overflows only with it."""
    if r < 700.0:
        return (e + _LIBM_ULP0) * math.expm1(r)
    return math.exp(m + r + 1e-9 * (1.0 + abs(m + r)))


def _ball(v: float, err: float) -> Evaluation:
    """The ball about v of radius err widened by _UP, without the checks of
    Evaluation(): a non-finite v makes err non-finite, one test for both."""
    r = err * _UP
    if not r <= _BIG:
        raise OverflowError(f"ball about {v} has radius {r}")
    ev = _new(Evaluation)
    _put_value(ev, v)
    _put_err(ev, r)
    return ev


def _centred(b: Evaluation, v: float) -> Evaluation:
    """A ball about v that encloses b: v is a value's own float expression."""
    return _ball(v, b.abs_err + abs(v - b.value))


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
    k = np.arange(1, int(_T_MAX / h) + 1, 1 if level == 1 else 2)
    t = k * h
    y = 0.5 * math.pi * np.sinh(t)
    e = np.exp(-2.0 * y)  # underflow to 0 at the deepest nodes is benign
    delta = e / (1.0 + e)
    wdens = 0.5 * math.pi * np.cosh(t) / np.cosh(y) ** 2
    return delta, wdens


def integrate(f: Callable, b: float, abs_tol: float, rel_tol: float) -> Evaluation:
    """Integrate f over (0, b) by adaptive tanh-sinh quadrature.

    Internal: core's arsinh_p is the one caller.  f maps an array of nodes to
    the array of its values; b is finite and positive.  Nodes near 0 are the
    node offsets themselves and keep full resolution, so an integrable
    algebraic singularity at 0 integrates to full double precision.  Nodes
    near b round onto it once the offset drops below half an ulp, and those
    near 0 onto 0 once b times it underflows.  The node table, the calls of
    f and the sums run under np.errstate(all="ignore"), and the caller's
    state is restored on return: a non-finite sample, or a sum past the
    double range, raises NonConvergence at the level that meets it.

    Refinement halves the node spacing per level (budget: 12 levels) and the
    returned abs_err is twice the last two-level difference plus a summation
    noise floor.  Raises NonConvergence if that never falls below
    max(abs_tol, rel_tol * |value|).
    """
    import numpy as np

    with np.errstate(all="ignore"):
        half = 0.5 * b

        # Midpoint node (t = 0): delta = 1/2, weight density pi/2.  total is
        # the running trapezoid sum in t-space, h factored out.
        total = 0.5 * math.pi * f(np.array([half]))[0]
        abs_total = abs(total)
        value = half * 0.5 * total  # placeholder; real values start at level 1

        for level in range(1, _LEVEL_MAX + 1):
            h = 2.0 ** (-level)
            delta, wdens = _node_table(level)
            x_lo = b * delta

            # The running sums are in h-free units (plain sums over the node
            # set, which only ever grows); the current h scales them below.
            contrib = wdens * (f(x_lo) + f(b - x_lo))
            total += float(np.sum(contrib))
            abs_total += float(np.sum(np.abs(contrib)))

            prev_value = value
            # h * total is exact; scaled last, a subnormal half is rounded
            # once (half * h first would drop the level's bits of it).
            value = half * (h * total)
            if not math.isfinite(value):
                raise NonConvergence("integrand produced a non-finite sum")
            noise = 8.0 * _EPS * half * h * abs_total
            est = 2.0 * abs(value - prev_value) + noise

            if level >= _LEVEL_MIN and est <= max(abs_tol, rel_tol * abs(value)):
                # An ulp of 0 for each rounding among the subnormals.
                return Evaluation(float(value), float(est) + 2.0 * _ULP0)

        raise NonConvergence(
            f"tanh-sinh estimate {est:.3e} above its target after {_LEVEL_MAX} levels"
        )
