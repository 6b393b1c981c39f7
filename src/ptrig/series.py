"""Small-argument series in z = x^p, with runtime polynomial composition.

Near zero every quantity of interest here is an analytic function of
z = x^p after factoring out a power of x, e.g.

    sin_p(x)  = x * (1 + A1 z + A2 z^2 + A3 z^3 + O(z^4)),
    arcsin_p(s) = s * (1 + a1 w + a2 w^2 + a3 w^3 + O(w^4)),  w = s^p.

Quantities like log(x/sin_p(x)) lose all significant digits to cancellation
when evaluated from double-precision function values at small x, so this
module builds their truncated z-series directly: polynomials are composed
through log1p/expm1/power expansions, and differences whose leading
coefficients cancel analytically have those coefficients removed exactly
rather than left as rounding residue.

Polynomials are 4-tuples of floats (c0, c1, c2, c3) meaning
c0 + c1 z + c2 z^2 + c3 z^3, truncated at O(z^4), with coefficientwise
+ and - and scalar * and /.  They are pure Python: this module does not
load numpy.  All coefficient formulas are validated against high-precision
quadrature inversion in the test suite before anything downstream relies
on them.
"""

from __future__ import annotations

import operator

from .numerics import _EPS

__all__ = [
    "direct_coeffs",
    "inverse_coeffs",
    "hyper_inverse_coeffs",
    "zp",
    "zp_mul",
    "zp_scale",
    "zp_log1p",
    "zp_expm1",
    "zp_pow1p",
    "zp_shift_z",
    "zp_eval",
    "zp_trunc_err",
    "zero_coeff",
    "SmallZSeries",
]

_DEG = 4  # coefficients kept per polynomial

# Assumed bound on |c4| relative to the largest retained coefficient, used in
# the truncation model below; validated against high-precision references in
# the tests for every polynomial this package evaluates.
_TRUNC_FACTOR = 25.0


def direct_coeffs(p: float) -> tuple[float, float, float]:
    """a1, a2, a3 of arcsin_p(s)/s in w = s^p.

    From the binomial expansion (1-u)^{-1/p} = 1 + b1 u + b2 u^2 + b3 u^3 +
    O(u^4) integrated term by term: a_k = b_k / (k p + 1).  The hyperbolic
    integrand (1+u)^{-1/p} gives the same magnitudes with alternating signs.
    """
    b1 = 1.0 / p
    b2 = b1 * (b1 + 1.0) / 2.0
    b3 = b2 * (b1 + 2.0) / 3.0
    return b1 / (p + 1.0), b2 / (2.0 * p + 1.0), b3 / (3.0 * p + 1.0)


def inverse_coeffs(p: float) -> tuple[float, float, float]:
    """A1, A2, A3 of sin_p(x)/x in z = x^p (series reversion of arcsin_p)."""
    a1, a2, a3 = direct_coeffs(p)
    A1 = -a1
    A2 = a1 * a1 * (p + 1.0) - a2
    A3 = (
        -0.5 * a1 ** 3 * (p + 1.0) * (3.0 * p + 2.0)
        + a1 * a2 * (3.0 * p + 2.0)
        - a3
    )
    return A1, A2, A3


def hyper_inverse_coeffs(p: float) -> tuple[float, float, float]:
    """Coefficients of sinh_p(x)/x in z = x^p; signs flip against sin_p."""
    a1, _, _ = direct_coeffs(p)
    _, A2, A3 = inverse_coeffs(p)
    return a1, A2, -A3


class _ZPoly(tuple):
    """A truncated z-polynomial: four float coefficients, lowest order first.

    +, -, unary - and abs act coefficientwise between polynomials and
    * and / scale by a float, so the composition formulas read as written.
    """

    __slots__ = ()

    def __add__(self, other):
        return _ZPoly(map(operator.add, self, other))

    def __sub__(self, other):
        return _ZPoly(map(operator.sub, self, other))

    def __neg__(self):
        return _ZPoly(-c for c in self)

    def __abs__(self):
        return _ZPoly(abs(c) for c in self)

    def __mul__(self, s: float):
        return _ZPoly(s * c for c in self)

    __rmul__ = __mul__

    def __truediv__(self, s: float):
        return _ZPoly(c / s for c in self)

    def replace(self, k: int, c: float) -> "_ZPoly":
        """A copy with coefficient k set to c."""
        return _ZPoly(c if i == k else v for i, v in enumerate(self))


def zp(*coeffs: float) -> _ZPoly:
    return _ZPoly(tuple(map(float, coeffs)) + (0.0,) * (_DEG - len(coeffs)))


def zp_mul(a: _ZPoly, b: _ZPoly) -> _ZPoly:
    # Summed from 0.0 in increasing i; bit for bit np.convolve when a(0) = b(0) = 0.
    out = []
    for n in range(_DEG):
        c = 0.0
        for i in range(n + 1):
            c += a[i] * b[n - i]
        out.append(c)
    return _ZPoly(out)


def zp_scale(a: _ZPoly, c: float) -> _ZPoly:
    return c * a


def zp_shift_z(a: _ZPoly) -> _ZPoly:
    """z * a(z), truncated."""
    return _ZPoly((0.0, *a[:-1]))


def _require_no_constant(a: _ZPoly, what: str) -> None:
    if a[0] != 0.0:
        raise ValueError(f"{what} needs a series with zero constant term, got {a[0]}")


def zp_log1p(a: _ZPoly) -> _ZPoly:
    """log(1 + a(z)) for a with a(0) = 0."""
    _require_no_constant(a, "zp_log1p")
    a2 = zp_mul(a, a)
    return a - 0.5 * a2 + zp_mul(a2, a) / 3.0


def zp_expm1(a: _ZPoly) -> _ZPoly:
    """exp(a(z)) - 1 for a with a(0) = 0."""
    _require_no_constant(a, "zp_expm1")
    a2 = zp_mul(a, a)
    return a + 0.5 * a2 + zp_mul(a2, a) / 6.0


def zp_pow1p(a: _ZPoly, r: float) -> _ZPoly:
    """(1 + a(z))^r as a full polynomial (constant term 1)."""
    return zp_expm1(zp_scale(zp_log1p(a), r)).replace(0, 1.0)


def zp_eval(a: _ZPoly, z: float) -> float:
    return a[0] + z * (a[1] + z * (a[2] + z * a[3]))


def zp_trunc_err(a: _ZPoly, z: float) -> float:
    """Error bound for zp_eval: dropped-tail estimate plus rounding."""
    scale = max(map(abs, a))
    tail = _TRUNC_FACTOR * scale * z ** 4
    rounding = 4.0 * _EPS * (
        abs(a[0]) + abs(a[1]) * z + abs(a[2]) * z * z + abs(a[3]) * z ** 3
    )
    return tail + rounding


def zero_coeff(a: _ZPoly, k: int) -> _ZPoly:
    """Remove a coefficient that cancels analytically.

    The residue must be rounding-level relative to the polynomial's scale;
    anything larger means the claimed cancellation is false.
    """
    scale = max(*map(abs, a), 1e-300)
    if abs(a[k]) > 1e-10 * scale:
        raise AssertionError(
            f"coefficient z^{k} = {a[k]:.3e} is not negligible against scale {scale:.3e}"
        )
    return a.replace(k, 0.0)


class SmallZSeries:
    """The z-series primitives for one parameter p.

    Nothing here is cached: callers keep one per parameter with the rest of
    what depends on p (see core._Family), so the count stays bounded.

    Attributes are 4-coefficient polynomials in z = x^p:

    * ``sin_ratio``  : sin_p(x)/x - 1
    * ``sinh_ratio`` : sinh_p(x)/x - 1
    * ``l1`` : log(x / sin_p(x))
    * ``l2`` : log(sinh_p(x) / x)
    * ``l3`` : log(cosh_p(x))
    * ``l4`` : -log(cos_p(x))
    * ``d``  : (sin_p(x) - x cos_p(x)) / sin_p(x)
    * ``e``  : (x cosh_p(x) - sinh_p(x)) / sinh_p(x)
    * ``lem24`` : log(cosh_p(x)) - (x/p) tanh_p(x)^{p-1}
    """

    __slots__ = (
        "p",
        "sin_ratio",
        "sinh_ratio",
        "l1",
        "l2",
        "l3",
        "l4",
        "d",
        "e",
        "lem24",
    )

    def __init__(self, p: float) -> None:
        self.p = p
        self.sin_ratio = zp(0.0, *inverse_coeffs(p))
        self.sinh_ratio = zp(0.0, *hyper_inverse_coeffs(p))

        self.l1 = -zp_log1p(self.sin_ratio)
        self.l2 = zp_log1p(self.sinh_ratio)

        # sin_p^p = z * (sin_p/x)^p and cosh_p^p = 1 + z * (sinh_p/x)^p.
        sin_pow = zp_shift_z(zp_pow1p(self.sin_ratio, p))
        sinh_pow = zp_shift_z(zp_pow1p(self.sinh_ratio, p))
        self.l3 = zp_log1p(sinh_pow) / p
        self.l4 = -zp_log1p(-sin_pow) / p

        self.d = -zp_expm1(self.l1 - self.l4)
        self.e = zp_expm1(self.l3 - self.l2)

        # (x/p) tanh_p^{p-1} = (z/p) exp((p-1)(l2 - l3)); the gap against l3
        # loses its z^1 term exactly.
        growth = zp_expm1(zp_scale(self.l2 - self.l3, p - 1.0)).replace(0, 1.0)
        self.lem24 = zero_coeff(self.l3 - zp_shift_z(growth) / p, 1)
