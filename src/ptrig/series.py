"""Small-argument series in z = x^p, computed exactly and rounded once.

Near zero every quantity of interest here is an analytic function of
z = x^p after factoring out a power of x, e.g.

    sin_p(x)    = x * (1 + A1 z + A2 z^2 + ... + A6 z^6 + O(z^7)),
    arcsin_p(s) = s * f(w),  f(w) = sum_k (1/p)_k/k! w^k/(kp + 1),  w = s^p.

Quantities like log(x/sin_p(x)) lose all significant digits to cancellation
when evaluated from double-precision function values at small x, so this
module builds their truncated z-series directly.  Every double p is a
rational and every coefficient is a rational function of p, so each series
is computed in fractions.Fraction from the exact p, on first use, and each
coefficient is rounded once, to the nearest float.  A coefficient that
cancels analytically comes out exactly 0.

* With z = w f(w)^p, one Lagrange inversion (Flajolet & Sedgewick, *Analytic
  Combinatorics*, Thm A.2), [z^n] H(w(z)) = [w^(n-1)] H'(w) f(w)^(-pn) / n,
  gives log(x/sin_p) (H = log f) and -log cos_p (H = -log(1 - w)/p), and
  sin_p/x = exp(-log(x/sin_p)).
* The hyperbolic side is the circular side at -z: arsinh_p/x, sinh_p/x,
  log(sinh_p/x), log cosh_p are f, sin_p/x, -log(x/sin_p), log cos_p there.
* The rest follows by the first-order recurrences of log and exp, which
  also give the powers, and by division of series.

The rounded polynomials are tuples of _DEG floats, lowest order first, and
carry no arithmetic: a sum, difference or quotient of series is formed
exactly and rounded once (SmallZSeries.quotient and .combination).  They
serve z below one switch (small_z) for arsinh_p and the states of sin_p and
sinh_p in core and for the functionals and chains in inequalities.  This
module loads fractions with the first series it builds, and never numpy.
"""

from __future__ import annotations

from .numerics import _EPS, _ULP0, Evaluation

__all__ = ["small_z", "zp_ball", "zp_eval", "zp_trunc_err", "SmallZSeries"]

# Coefficients kept per polynomial: the fewest whose tail bound at the
# switch, 25 (4e-3)^7 ~ 4e-16 relative, is down at the rounding level.
_DEG = 7

# Below z = x^p of this size, and x < 1, the series serve; above it the
# states solve and the functionals take the evaluators' log primitives,
# which lose ~eps/z, under 1e-13, to cancellation there.
_Z_SWITCH = 4e-3

# Assumed bound on |c_DEG| relative to the largest retained coefficient, used
# in the truncation model below; sampled against high-precision references
# in the tests for every polynomial this package evaluates, not proved.
_TRUNC_FACTOR = 25.0


def small_z(p: float, x: float) -> float | None:
    """z = x^p where the series serve (p, x), else None."""
    if x < 1.0:
        z = x ** p
        if z < _Z_SWITCH:
            return z
    return None


def zp_eval(a: tuple, z: float) -> float:
    """The polynomial a at z, by Horner's rule."""
    v = 0.0
    for c in reversed(a):
        v = c + z * v
    return v


def zp_trunc_err(a: tuple, z: float) -> float:
    """Error bound for zp_eval: the tail, charged _TRUNC_FACTOR max|c_k|
    z^_DEG, plus _DEG eps per term for rounding, which grows with the order
    as Horner's bound gamma_2n sum |c_k| z^k does (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, §5.1): Horner's rule rounds term
    k at most 2k + 1 times, k + 1/2 eps, and the coefficient's own rounding
    adds eps/2.  What is left, (_DEG - 1 - k) eps on term k below the top,
    covers an ulp or two of error in z and zp_ball's product by x.
    """
    magnitude = 0.0  # sum |c_k| z^k
    for c in reversed(a):
        magnitude = abs(c) + z * magnitude
    tail = _TRUNC_FACTOR * max(map(abs, a)) * z ** _DEG
    # An ulp of 0 for each product that rounds among the subnormals.
    return tail + _DEG * _EPS * magnitude + (_DEG - 1) * _ULP0


def zp_ball(a: tuple, z: float, x: float = 1.0) -> Evaluation:
    """The ball of x a(z), x > 0, from zp_eval and zp_trunc_err.  For a
    ratio (c0 = 1) at a subnormal x, a(z) is 1 and the product exact; its
    bound, 0, is short by far less than an ulp of 0, which keeps the ball
    of sin_p, sinh_p or arsinh_p there clear of 0."""
    return Evaluation(x * zp_eval(a, z), x * zp_trunc_err(a, z))


# ---------------------------------------------------------------------------
# Exact series: lists of _DEG + 1 rationals, one order more than is rounded,
# so that a quotient of two series that vanish at 0 keeps _DEG coefficients.

def _log(a: list) -> list:
    """log a for a[0] = 1, by a (log a)' = a'."""
    out, dout = [0], [0]  # dout[j] = j out[j]
    for k in range(1, len(a)):
        dout.append(k * a[k] - sum(dout[j] * a[k - j] for j in range(1, k)))
        out.append(dout[k] / k)
    return out


def _exp(h: list) -> list:
    """exp h for h[0] = 0, by exp(h)' = h' exp(h)."""
    dh = [j * c for j, c in enumerate(h)]
    out = [1]
    for k in range(1, len(h)):
        out.append(sum(dh[j] * out[k - j] for j in range(1, k + 1)) / k)
    return out


def _div(a: list, b: list) -> list:
    """a/b for b[0] != 0."""
    out = []
    for k in range(len(a)):
        out.append((a[k] - sum(b[j] * out[k - j] for j in range(1, k + 1))) / b[0])
    return out


def _at_minus_z(a: list) -> list:
    return [c if k % 2 == 0 else -c for k, c in enumerate(a)]


def _arcsin_ratio(P) -> list:
    """f(w) = arcsin_p(s)/s = sum_k (1/p)_k/k! w^k/(kp + 1), w = s^p."""
    f, b = [1], 1  # b = (1/p)_k / k!
    for k in range(1, _DEG + 1):
        b = b * (1 / P + k - 1) / k
        f.append(b / (k * P + 1))
    return f


def _inverted(e: dict, h: list) -> list:
    """[z^m] H(w(z)) = [w^(m-1)] H'(w) f(w)^(-pm) / m for m = 1 .. _DEG."""
    dh = [(j + 1) * h[j + 1] for j in range(_DEG)]
    return [0] + [sum(dh[j] * g[m - 1 - j] for j in range(m)) / m
                  for m, g in enumerate(e["powers"], 1)]


# Each exact series by name, from the exact p and the series it rests on.
_RECIPES = {
    "f": lambda e, P: _arcsin_ratio(P),
    "log_f": lambda e, P: _log(e["f"]),
    # f^(-pm) = exp(-pm log f) to the order the inversion takes.
    "powers": lambda e, P: [_exp([-P * m * c for c in e["log_f"][:m]])
                            for m in range(1, _DEG + 1)],
    "l1": lambda e, P: _inverted(e, e["log_f"]),
    "l4": lambda e, P: _inverted(e, [0] + [1 / (k * P) for k in range(1, _DEG + 1)]),
    "sin_ratio": lambda e, P: _exp([-c for c in e["l1"]]),
    "d": lambda e, P: [0] + [-c for c in _exp([a - b for a, b in zip(e["l1"], e["l4"])])[1:]],
    "arsinh_ratio": lambda e, P: _at_minus_z(e["f"]),
    "sinh_ratio": lambda e, P: _at_minus_z(e["sin_ratio"]),
    "l2": lambda e, P: [-c for c in _at_minus_z(e["l1"])],
    "l3": lambda e, P: [-c for c in _at_minus_z(e["l4"])],
    "e": lambda e, P: [-c for c in _at_minus_z(e["d"])],
    # (x/p) tanh_p^(p-1) = (z/p) exp((p - 1)(l2 - l3)), whose gap against l3
    # loses the z^1 term exactly.
    "growth": lambda e, P: _exp([(P - 1) * (a - b) for a, b in zip(e["l2"], e["l3"])]),
    "lem24": lambda e, P: [0] + [c - g / P for c, g in zip(e["l3"][1:], e["growth"])],
}


class _Exact(dict):
    """The exact series of one p, P, by name, each built on first use."""

    def __missing__(self, name: str) -> list:
        got = self[name] = _RECIPES[name](self, self["P"])
        return got


def _rounded(a: list) -> tuple:
    return tuple(map(float, a[:_DEG]))


_ATTRIBUTES = ("arsinh_ratio", "sin_ratio", "sinh_ratio", "l1", "l2", "l3", "l4", "d", "e", "lem24")


class SmallZSeries:
    """The z-series primitives for one parameter p.

    Nothing here is cached across p: callers keep one per parameter with
    the rest of what depends on p (see core._Family), so the count stays
    bounded.  Each attribute is built, exactly, on first use.

    Attributes are _DEG-coefficient polynomials in z = x^p, each coefficient
    the float nearest the exact one:

    * ``arsinh_ratio`` : arsinh_p(x)/x
    * ``sin_ratio``  : sin_p(x)/x
    * ``sinh_ratio`` : sinh_p(x)/x
    * ``l1`` : log(x / sin_p(x))
    * ``l2`` : log(sinh_p(x) / x)
    * ``l3`` : log(cosh_p(x))
    * ``l4`` : -log(cos_p(x))
    * ``d``  : (sin_p(x) - x cos_p(x)) / sin_p(x)
    * ``e``  : (x cosh_p(x) - sinh_p(x)) / sinh_p(x)
    * ``lem24`` : log(cosh_p(x)) - (x/p) tanh_p(x)^{p-1}

    quotient and combination form a quotient and a weighted sum of these
    exactly, and round it once.
    """

    __slots__ = ("_exact",) + _ATTRIBUTES

    def __init__(self, p: float) -> None:
        from fractions import Fraction

        self._exact = _Exact(P=Fraction(p))

    def __getattr__(self, name: str) -> tuple:
        """An attribute not rounded yet: built, rounded once and kept."""
        if name not in _ATTRIBUTES:
            raise AttributeError(name)
        got = _rounded(self._exact[name])
        setattr(self, name, got)
        return got

    def quotient(self, num: str, den: str) -> tuple:
        """The series of num/den, exact until rounded once, for two of the
        attributes above that vanish like z."""
        return _rounded(_div(self._exact[num][1:], self._exact[den][1:]))

    def combination(self, terms) -> tuple:
        """The series of the sum of sign * w(p) * a over the terms (sign, w, a),
        exact until rounded once, for w a function from the exact p to a
        rational and a one of the attributes above."""
        P = self._exact["P"]
        return _rounded([sum(sign * w(P) * self._exact[a][k] for sign, w, a in terms)
                         for k in range(_DEG)])
