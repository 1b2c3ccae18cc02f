"""Sandwich profiles, transfer products, and the extremal-sequence verifier.

A power profile (psi, phi, theta) brackets the irrationality measure of a
run; the iterated products Phi_k then control how norm growth transfers
across dimensions.  Their exponents are exact rationals, the constants are
certified enclosures, and the closed form must agree with the iterated
composition -- an identity checked here at random points.
"""

from fractions import Fraction

from simra import minpoints, presets, transference
from simra.ivcalc import midpoint_float

target, full = presets.load_preset("cbrt2")
seq = minpoints.enumerate_minimal_points(target, full, Fraction(10 ** 4))

est = transference.estimate_exponents(seq)
print(f"exponent estimates: lambda ~ {est.lambda_est:.4f}, "
      f"uniform ~ {est.lambda_hat_est:.4f} "
      f"(degree-3 algebraic predicts both -> 1/2)")
print(f"spectrum check: mm_lhs(hat, lambda, 2) = "
      f"{transference.mm_lhs(est.lambda_hat_est, est.lambda_est, 2):.4f} (<= 1 required)")

profile = transference.TransferenceProfile(2, 3, Fraction(1, 8),
                                           Fraction(2, 5), Fraction(3, 5))
ed = transference.epsilon_delta(profile.a, profile.b, profile.alpha,
                                profile.beta, profile.n)
print(f"\nprofile 3 X^(-2/5) / (1/8) X^(-3/5): eps = {ed['eps']}, "
      f"delta = {ed['delta']}, exponent ladder {[str(e) for e in ed['epsK']]}")

rep = transference.check_sandwich(seq, profile, grid_count=32)
print(f"sandwich certified on every envelope step up to X = {seq.x_max}; "
      f"consequences on consecutive entries: {rep['consequencesHold']}")
print(f"empirical floor of the top product: {rep['empiricalC']:.4f} "
      "(the ineffective constant, measured)")

r = transference.phi_functions(profile, 1, 500)
print(f"Phi_1(500): iterated {midpoint_float(r['PhiK']):.9f} "
      f"vs closed form {midpoint_float(r['PhiKClosed']):.9f}")

print()
print("extremal-sequence conditions on an exact power-law fixture "
      "(alpha=2/3, beta=4/3):")
pairs = [(2 ** (6 * 2 ** i), Fraction(1, 2 ** (4 * 2 ** i))) for i in range(6)]
rows = transference.growth_conditions(pairs, Fraction(2, 3), Fraction(4, 3),
                                      0, 0, 2)
print("  growth/decay per index:",
      [(row.get("growth", "-"), row["decay"]) for row in rows])
print("  (C = 0, eps = 0: the checks reduce to exact integer power identities)")
