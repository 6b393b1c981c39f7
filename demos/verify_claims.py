"""Running the inequality verifier and reading its reports.

Walks through one monotonicity check, one inequality chain, and the
positivity gap, then shows what an honest failure looks like when a claim
is pushed outside its certified parameter range.

Run:  python3 demos/verify_claims.py
"""

import ptrig
from ptrig import FunctionId, GridSpec


def show(rep):
    status = "PASS" if rep.passed else "FAIL"
    print(
        f"  {rep.claim:16s} p={rep.p:<4g} {status}"
        f"   min_margin={rep.min_margin:+.3e}"
        f"   verdict={rep.monotone_verdict}"
        f"   points={len(rep.points)}"
    )


print("Monotonicity of the four ratio functionals at p = 3")
print("----------------------------------------------------")
for tag in (FunctionId.THM1_F, FunctionId.THM2_G, FunctionId.LEM22_F, FunctionId.LEM23_G):
    show(ptrig.verify_claim(tag, 3.0, GridSpec(n=100)))

print()
print("Inequality chains: every adjacent pair must clear its error budget")
print("-------------------------------------------------------------------")
for tag in (
    FunctionId.THM1_CHAIN,
    FunctionId.THM2_CHAIN,
    FunctionId.LEM22_CHAIN,
    FunctionId.LEM23_CHAIN,
    FunctionId.COROLLARY_CHAIN,
):
    show(ptrig.verify_claim(tag, 3.0, GridSpec(n=100)))

print()
print("The positivity gap holds all the way down to p -> 1")
print("----------------------------------------------------")
for p in (1.2, 1.5, 2.0, 3.0, 10.0):
    show(ptrig.verify_claim(FunctionId.LEM24_GAP, p, GridSpec(n=100)))

print()
print("Chain terms at one grid point (COROLLARY_CHAIN, p = 2, mid-interval)")
print("---------------------------------------------------------------------")
rep = ptrig.verify_claim(FunctionId.COROLLARY_CHAIN, 2.0, GridSpec(n=9))
pt = rep.points[4]
print(f"  x = {pt.x:.6f}")
for k, v in enumerate(pt.values):
    print(f"    term[{k}] = {v:.15f}")
print(f"  smallest adjacent gap (value space): {pt.margin:.3e}")

print()
print("Outside the certified range the verifier reports, it does not assert")
print("---------------------------------------------------------------------")
rep = ptrig.verify_claim(FunctionId.THM1_CHAIN, 1.5, GridSpec(n=100))
tag = " [exploratory]" if ptrig.is_exploratory(FunctionId.THM1_CHAIN, 1.5) else ""
show(rep)
print(f"  the chain genuinely reverses below p = 2{tag}: min_margin < 0 is the finding.")
