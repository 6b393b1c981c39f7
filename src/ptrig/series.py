"""Small-argument series in z = x^p, computed exactly and rounded once.

Near zero every quantity of interest here is an analytic function of
z = x^p after factoring out a power of x, e.g.

    sin_p(x)    = x * (1 + A1 z + A2 z^2 + A3 z^3 + O(z^4)),
    arcsin_p(s) = s * f(w),  f(w) = sum_k (1/p)_k/k! w^k/(kp + 1),  w = s^p.

Quantities like log(x/sin_p(x)) lose all significant digits to cancellation
when evaluated from double-precision function values at small x, so this
module builds their truncated z-series directly.  Every double p is a
rational and every coefficient is a rational function of p, so the series
are computed in fractions.Fraction from the exact p, and each coefficient is
rounded once, to the nearest float.  A coefficient that cancels analytically
comes out exactly 0.

* With z = w f(w)^p, one Lagrange inversion (Flajolet & Sedgewick, *Analytic
  Combinatorics*, Thm A.2), [z^n] H(w(z)) = [w^(n-1)] H'(w) f(w)^(-pn) / n,
  gives sin_p/x - 1 (H = 1/f - 1), log(x/sin_p) (H = log f) and -log cos_p
  (H = -log(1 - w)/p).
* The hyperbolic side is the circular side at -z: sinh_p/x - 1, log(sinh_p/x)
  and log cosh_p are sin_p/x - 1, -log(x/sin_p) and log cos_p there.
* The rest follows by the first-order recurrences of log, exp, powers and
  division of series with unit constant term.

The rounded polynomials are 4-tuples of floats (c0, c1, c2, c3) meaning
c0 + c1 z + c2 z^2 + c3 z^3, truncated at O(z^4).  They carry no
arithmetic: a sum, difference or quotient of series is formed exactly and
rounded once (SmallZSeries.quotient and .combination), so a coefficient
that cancels analytically comes out exactly 0 there too.  This module loads
fractions with the first series it builds, and never numpy.
"""

from __future__ import annotations

from .numerics import _EPS, _ULP0

__all__ = ["zp_eval", "zp_trunc_err", "SmallZSeries"]

_DEG = 4  # coefficients kept per polynomial

# Assumed bound on |c4| relative to the largest retained coefficient, used in
# the truncation model below; validated against high-precision references in
# the tests for every polynomial this package evaluates.
_TRUNC_FACTOR = 25.0


class _ZPoly(tuple):
    """A truncated z-polynomial: four float coefficients, lowest order first."""

    __slots__ = ()

    def replace(self, k: int, c: float) -> "_ZPoly":
        """A copy with coefficient k set to c."""
        return _ZPoly(c if i == k else v for i, v in enumerate(self))


def zp_eval(a: _ZPoly, z: float) -> float:
    return a[0] + z * (a[1] + z * (a[2] + z * a[3]))


def zp_trunc_err(a: _ZPoly, z: float) -> float:
    """Error bound for zp_eval: dropped-tail estimate plus rounding.

    The rounding allows 4 eps per term: half an ulp for the rounding of the
    exact coefficient to its float, the rest for Horner's products and sums.
    """
    scale = max(map(abs, a))
    tail = _TRUNC_FACTOR * scale * z ** 4
    rounding = 4.0 * _EPS * (
        abs(a[0]) + abs(a[1]) * z + abs(a[2]) * z * z + abs(a[3]) * z ** 3
    )
    # An ulp of 0 for each product that rounds among the subnormals.
    return tail + rounding + 3.0 * _ULP0


# ---------------------------------------------------------------------------
# Exact series: lists of _DEG + 1 rationals, one order more than is rounded,
# so that a quotient of two series that vanish at 0 keeps _DEG coefficients.

def _pow(a: list, r) -> list:
    """a^r for a[0] = 1, by a (a^r)' = r a' a^r."""
    out = [1]
    for k in range(1, len(a)):
        out.append(sum(((r + 1) * j - k) * a[j] * out[k - j] for j in range(1, k + 1)) / k)
    return out


def _log(a: list) -> list:
    """log a for a[0] = 1, by a (log a)' = a'."""
    out = [0]
    for k in range(1, len(a)):
        out.append((k * a[k] - sum(j * out[j] * a[k - j] for j in range(1, k))) / k)
    return out


def _expm1(h: list) -> list:
    """exp(h) - 1 for h[0] = 0, by exp(h)' = h' exp(h)."""
    out = [1]
    for k in range(1, len(h)):
        out.append(sum(j * h[j] * out[k - j] for j in range(1, k + 1)) / k)
    return [0] + out[1:]


def _div(a: list, b: list) -> list:
    """a/b for b[0] != 0."""
    out = []
    for k in range(len(a)):
        out.append((a[k] - sum(b[j] * out[k - j] for j in range(1, k + 1))) / b[0])
    return out


def _at_minus_z(a: list) -> list:
    return [c if k % 2 == 0 else -c for k, c in enumerate(a)]


def _exact(p: float) -> dict:
    """Every series SmallZSeries rounds, exactly, by name."""
    from fractions import Fraction

    P = Fraction(p)
    n = _DEG + 1
    f, b = [Fraction(1)], Fraction(1)  # b = (1/p)_k / k!
    for k in range(1, n):
        b = b * (1 / P + k - 1) / k
        f.append(b / (k * P + 1))

    # H(w) for each circular series, then [z^m] H(w(z)) for m = 1 .. n-1.
    out = {
        "sin_ratio": [0] + _pow(f, -1)[1:],
        "l1": _log(f),
        "l4": [0] + [1 / (k * P) for k in range(1, n)],
    }
    powers = [_pow(f[:m], -P * m) for m in range(1, n)]
    for name, h in out.items():
        dh = [(j + 1) * h[j + 1] for j in range(n - 1)]  # H'
        out[name] = [0] + [
            sum(dh[j] * g[m - 1 - j] for j in range(m)) / m for m, g in enumerate(powers, 1)
        ]
    out["sinh_ratio"] = _at_minus_z(out["sin_ratio"])
    out["l2"] = [-c for c in _at_minus_z(out["l1"])]
    out["l3"] = [-c for c in _at_minus_z(out["l4"])]
    out["d"] = [-c for c in _expm1([a - b for a, b in zip(out["l1"], out["l4"])])]
    out["e"] = [-c for c in _at_minus_z(out["d"])]
    # (x/p) tanh_p^(p-1) = (z/p) exp((p - 1)(l2 - l3)); its gap against l3
    # loses the z^1 term exactly.
    growth = _expm1([(P - 1) * (a - b) for a, b in zip(out["l2"], out["l3"])])
    growth[0] = 1
    out["lem24"] = [0] + [c - g / P for c, g in zip(out["l3"][1:], growth)]
    if out["lem24"][1] != 0:
        raise AssertionError(f"lem24's z^1 coefficient is {out['lem24'][1]}, not 0")
    return out


def _rounded(a: list) -> _ZPoly:
    return _ZPoly(map(float, a[:_DEG]))


class SmallZSeries:
    """The z-series primitives for one parameter p.

    Nothing here is cached: callers keep one per parameter with the rest of
    what depends on p (see core._Family), so the count stays bounded.

    Attributes are 4-coefficient polynomials in z = x^p, each coefficient
    the float nearest the exact one:

    * ``sin_ratio``  : sin_p(x)/x - 1
    * ``sinh_ratio`` : sinh_p(x)/x - 1
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

    __slots__ = ("p", "_exact", "sin_ratio", "sinh_ratio", "l1", "l2", "l3", "l4", "d", "e",
                 "lem24")

    def __init__(self, p: float) -> None:
        self.p = p
        self._exact = _exact(p)
        for name, a in self._exact.items():
            setattr(self, name, _rounded(a))

    def quotient(self, num: str, den: str) -> _ZPoly:
        """The series of num/den, exact until rounded once, for two of the
        attributes above that vanish like z."""
        return _rounded(_div(self._exact[num][1:], self._exact[den][1:]))

    def combination(self, terms) -> _ZPoly:
        """The series of the sum of sign * w(p) * a over the terms (sign, w, a),
        exact until rounded once, for w a function from the exact p to a
        rational and a one of the attributes above."""
        from fractions import Fraction

        P = Fraction(self.p)
        return _rounded([sum(sign * w(P) * self._exact[a][k] for sign, w, a in terms)
                         for k in range(_DEG)])
