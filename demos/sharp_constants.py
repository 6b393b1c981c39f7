"""How sharp are the sharp constants?

For each p the ratio g(x) = log(x / sin_p(x)) / log(cosh_p(x)) runs from
alpha = 1/(1+p) at the origin to beta = log(pi_p/2) / log(cosh_p(pi_p/2)) at
the half-period, so cosh_p^(-beta) < sin_p(x)/x < cosh_p^(-alpha) with both
exponents unimprovable.  This sweep shows g pressing against each endpoint.

Run:  python3 demos/sharp_constants.py
"""

import ptrig
from ptrig import GridSpec, grid_points

print(f"{'p':>6} {'alpha':>12} {'beta':>12} {'g near 0':>14} {'g near end':>14}")
for p in (2.0, 2.5, 3.0, 4.0, 6.0, 10.0):
    sc = ptrig.sharp_constants(p)
    half = ptrig.pi_p(p).value / 2
    xs = grid_points(GridSpec(n=400, spacing="cosine"), 0.0, half)
    g_lo = ptrig.thm2_g(xs[0], p).value
    g_hi = ptrig.thm2_g(xs[-1], p).value
    print(f"{p:6.1f} {sc.alpha:12.8f} {sc.beta:12.8f} {g_lo:14.8f} {g_hi:14.8f}")

print()
print("Distances to the endpoints (400-point cosine grid):")
for p in (2.0, 10.0):
    sc = ptrig.sharp_constants(p)
    half = ptrig.pi_p(p).value / 2
    xs = grid_points(GridSpec(n=400, spacing="cosine"), 0.0, half)
    d_lo = ptrig.thm2_g(xs[0], p).value - sc.alpha
    d_hi = sc.beta - ptrig.thm2_g(xs[-1], p).value
    print(f"  p = {p:4.1f}   g - alpha = {d_lo:.3e} at the left, beta - g = {d_hi:.3e} at the right")

print()
print("The companion bound 1 < f(x) = log(x/sin_p) / log(sinh_p/x) < p:")
for p in (2.0, 3.0, 10.0):
    half = ptrig.pi_p(p).value / 2
    xs = grid_points(GridSpec(n=400, spacing="cosine"), 0.0, half)
    f_lo = ptrig.thm1_f(xs[0], p).value
    f_hi = ptrig.thm1_f(xs[-1], p).value
    print(f"  p = {p:4.1f}   f ranges over [{f_lo:.8f}, {f_hi:.8f}] on the grid (sup < p = {p:g})")
