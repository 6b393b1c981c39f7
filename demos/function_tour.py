"""A quick tour of the p-trigonometric family.

Evaluates the six functions across several p, shows the defining identities
holding at machine precision, and the classical reduction at p=2.

Run:  python3 demos/function_tour.py
"""

import math

import ptrig

P_VALUES = [2.0, 2.5, 3.0, 5.0]


def banner(text):
    print()
    print(text)
    print("-" * len(text))


banner("Half-periods: pi_p/2 shrinks toward 1 as p grows")
for p in P_VALUES + [10.0, 50.0]:
    half = ptrig.pi_p(p).value / 2
    print(f"  p = {p:5.1f}   pi_p/2 = {half:.12f}")

banner("Classical reduction at p = 2 (x = 0.75)")
x = 0.75
rows = [
    ("sin_p", ptrig.sin_p(x, 2.0).value, math.sin(x)),
    ("cos_p", ptrig.cos_p(x, 2.0).value, math.cos(x)),
    ("tan_p", ptrig.tan_p(x, 2.0).value, math.tan(x)),
    ("sinh_p", ptrig.sinh_p(x, 2.0).value, math.sinh(x)),
    ("cosh_p", ptrig.cosh_p(x, 2.0).value, math.cosh(x)),
    ("tanh_p", ptrig.tanh_p(x, 2.0).value, math.tanh(x)),
]
for name, ours, classical in rows:
    print(f"  {name:7s} {ours:+.15f}   classical {classical:+.15f}   diff {ours - classical:+.2e}")

banner("Defining identities |cos_p|^p + |sin_p|^p = 1 and cosh_p^p - sinh_p^p = 1")
for p in P_VALUES:
    x = 0.6 * ptrig.pi_p(p).value / 2
    s = ptrig.sin_p(x, p).value
    c = ptrig.cos_p(x, p).value
    sh = ptrig.sinh_p(1.2, p).value
    ch = ptrig.cosh_p(1.2, p).value
    print(
        f"  p = {p:4.1f}   circular residual {c ** p + s ** p - 1.0:+.2e}"
        f"   hyperbolic residual {ch ** p - sh ** p - 1.0:+.2e}"
    )

banner("Round trips through the inverses")
for p in P_VALUES:
    x = 0.5
    back_s = ptrig.arcsin_p(ptrig.sin_p(x, p).value, p).value
    back_h = ptrig.arsinh_p(ptrig.sinh_p(x, p).value, p).value
    print(f"  p = {p:4.1f}   arcsin_p(sin_p(0.5)) = {back_s:.15f}   arsinh_p(sinh_p(0.5)) = {back_h:.15f}")

banner("Every value carries its own error bound")
ev = ptrig.sin_p(1.0, 3.0)
print(f"  sin_p(1, 3)  = {ev.value!r}  ±  {ev.abs_err:.3e}")
ev = ptrig.tan_p(1.2, 3.0)
print(f"  tan_p(1.2, 3) = {ev.value!r}  ±  {ev.abs_err:.3e}   (pole sits at {ptrig.pi_p(3.0).value / 2:.6f})")
