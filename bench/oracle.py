"""mpmath oracle: does a reported (value, abs_err) enclose the true value?

The defining integrals have closed forms (DLMF 15.4):

    arcsin_p(s) = s 2F1(1/p, 1/p; 1 + 1/p;  s^p),   0 <= s <= 1,
    arsinh_p(s) = s 2F1(1/p, 1/p; 1 + 1/p; -s^p),   s >= 0.

Every function checked here is a monotone map of sin_p or sinh_p, so the
enclosure ``f(x) in [value - abs_err, value + abs_err]`` holds exactly when x
lies between the inverse integral taken at the two interval ends.
"""

from __future__ import annotations

import mpmath

mpmath.mp.dps = 40

_INF = mpmath.inf


def arcsin_p(s, p):
    a = 1 / p
    return s * mpmath.hyp2f1(a, a, 1 + a, s ** p)


def arsinh_p(s, p):
    a = 1 / p
    return s * mpmath.hyp2f1(a, a, 1 + a, -(s ** p))


def _sin_of_cos(c, p):
    return (1 - c ** p) ** (1 / p)


def _sin_of_tan(t, p):
    return t / (1 + t ** p) ** (1 / p)


def _sinh_of_cosh(c, p):
    return (c ** p - 1) ** (1 / p)


def _sinh_of_tanh(t, p):
    return t / (1 - t ** p) ** (1 / p)


def _same(s, p):
    return s


# fn: (inverse integral, map from the value v to the sin_p or sinh_p value s,
#      whether s rises with v, (lowest v, its s), (highest v, its s)).
# Interval ends beyond the admissible value range clamp to the range ends.
_FAMILY = {
    "sin_p": (arcsin_p, _same, True, (0, 0), (1, 1)),
    "cos_p": (arcsin_p, _sin_of_cos, False, (0, 1), (1, 0)),
    "tan_p": (arcsin_p, _sin_of_tan, True, (0, 0), (_INF, 1)),
    "sinh_p": (arsinh_p, _same, True, (0, 0), (_INF, _INF)),
    "cosh_p": (arsinh_p, _sinh_of_cosh, True, (1, 0), (_INF, _INF)),
    "tanh_p": (arsinh_p, _sinh_of_tanh, True, (0, 0), (1, _INF)),
}


def encloses(fn: str, p: float, x: float, value: float, abs_err: float) -> bool:
    """True when the true fn(x) at parameter p lies in value -+ abs_err."""
    P, X, V, E = mpmath.mpf(p), mpmath.mpf(x), mpmath.mpf(value), mpmath.mpf(abs_err)
    if fn == "arcsin_p":
        return abs(arcsin_p(X, P) - V) <= E
    inverse, to_s, rising, (v_lo, s_lo), (v_hi, s_hi) = _FAMILY[fn]
    ends = []
    for v in (V - E, V + E):
        if v <= v_lo:
            s = mpmath.mpf(s_lo)
        elif v >= v_hi:
            s = mpmath.mpf(s_hi)
        else:
            s = to_s(v, P)
        ends.append(_INF if s == _INF else inverse(s, P))
    lo, hi = ends if rising else ends[::-1]
    return lo <= X <= hi
