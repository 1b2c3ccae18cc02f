"""The admissible exponent spectrum and the algebraic-plus-one experiment.

The pair (uniform, ordinary) of approximation exponents is constrained by
mm_lhs(uniform, ordinary, n) <= 1.  The boundary curve and its corner
lambda_n (where the ordinary exponent escapes to infinity) are computed
exactly; a target built from an algebraic number of degree n plus one
independent coordinate should stay below the corner, and its scaled error
floor stays away from zero.
"""

from fractions import Fraction

from simra import spectra, transference

print("spectrum corners (uniform exponent forcing lambda = infinity):")
for n, root in spectra.lambda_rows(8):
    print(f"  n={n}:  lambda_n = {float(root):.12f}")
print("  (n=2 is the inverse golden ratio)")

print()
print("boundary curve for n=3 (uniform -> least admissible ordinary):")
for lh, lam in spectra.frontier_rows(3, 9):
    lam_txt = "inf" if lam == float("inf") else f"{float(lam):.6f}"
    print(f"  {float(lh):.4f} -> {lam_txt}")
print("each row satisfies mm_lhs(lh, lam, 3) = 1 to within the 1e-14 "
      "bisection width")

print()
print("degree-2 preset (1, sqrt2, sqrt3-as-decimal), X <= 10^4:")
rep = spectra.liouville_preset(
    {"type": "algebraic", "minpoly": [-2, 0, 1], "interval": ["1", "2"]},
    {"type": "decimal",
     "value": "1.73205080756887729352744634150587236694280525381038062805581"},
    Fraction(10 ** 4))
print(f"  {rep['entries']} minimal points; "
      f"inf X^(1/(n-1)) L = {rep['scaledInf']:.4f} at i={rep['scaledInfAt']}")
print(f"  uniform estimate {rep['lambdaHatEst']:.4f} vs corner "
      f"{rep['lambdaN']:.4f}: margin {rep['marginBelowCorner']:.4f} (>= 0 expected)")
