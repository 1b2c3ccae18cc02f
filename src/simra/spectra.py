"""The exponent spectrum boundary and the algebraic-plus-one preset.

For an n-dimensional target the admissible pairs (uniform exponent, ordinary
exponent) are cut out by the inequality whose left side is mm_lhs; the
boundary curve gives, for each uniform value, the least ordinary exponent
that must accompany it.  The top corner is the root lambda_n of

    x + (n-1) x^2 + ... + (n-1)^(n-1) x^n = 1,

the uniform exponent that forces the ordinary exponent to infinity.  For
n = 2 this is the inverse golden ratio.

The preset builds a target (1, theta, ..., theta^(n-1), extra) from an
algebraic number of degree n and one extra coordinate, enumerates its
minimal points, and reports the empirical floor of X^(1/(n-1)) L(X), the
quantity the dual-lattice argument bounds away from zero.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TextIO

from . import minpoints, model, reporting, rigorous, transference
from .errors import DomainError, SchemaError, TooFewPoints
from .ivcalc import frac_enclosure, iv_pow, midpoint_float, rig_interval
from .rigorous import RigorousReal

INFINITE = math.inf


def _spectrum_poly(n: int) -> list[int]:
    """Coefficients, low degree first, of (n-1)^(k-1) x^k summed - 1."""
    return [-1] + [(n - 1) ** (k - 1) for k in range(1, n + 1)]


# lambda_n's enclosure is at most 10^-30 wide, frontier's bracket 10^-14
_LAMBDA_BITS = (10 ** 30).bit_length() + 2
_FRONTIER_TOL = Fraction(1, 10 ** 14)


def lambda_n(n: int) -> RigorousReal:
    """The unique positive root of the spectrum polynomial, refined so the
    enclosure width is at most 10^-30."""
    if n < 2:
        raise DomainError("the spectrum corner needs n >= 2")
    root = rigorous.algebraic_root(_spectrum_poly(n), (Fraction(0), Fraction(1)))
    rigorous.refine(root, _LAMBDA_BITS)
    return root


def frontier(lambda_hat, n: int):
    """The least ordinary exponent compatible with uniform exponent
    lambda_hat: the root in [lambda_hat, oo) of mm_lhs(lambda_hat, x, n) = 1.

    Returns an exact Fraction (exact closed form for n = 2), or the
    infinity marker at lambda_hat = 1 where no finite value satisfies the
    equation.  For n >= 3 the root is bisected from [lambda_hat, hi], hi
    the first of max(1, 2 lambda_hat) * 2^j at which mm_lhs <= 1, until
    the bracket is at most 10^-14 wide; the result is the midpoint of the
    last bracket.  Each step is decided exactly by the integer sign test
    transference.mm_lhs_exceeds_one, so the midpoint is the one an exact
    Fraction bisection on mm_lhs reaches.
    """
    if n < 2:
        raise DomainError("the frontier needs n >= 2")
    lam_hat = Fraction(lambda_hat)
    if not Fraction(1, n) <= lam_hat <= 1:
        raise DomainError(
            f"lambda_hat must lie in [1/{n}, 1], got {lam_hat}"
        )
    if lam_hat == 1:
        return INFINITE
    if lam_hat == Fraction(1, n):
        return lam_hat
    if n == 2:
        return lam_hat ** 2 / (1 - lam_hat)
    p, q = lam_hat.numerator, lam_hat.denominator
    above = transference.mm_lhs_exceeds_one
    hi = max(Fraction(1), 2 * lam_hat)
    while above(p, q, hi.numerator, hi.denominator, n):
        hi *= 2
    width = hi - lam_hat
    # Halving stops at the least step count with width / 2^steps <= 10^-14.
    steps = (math.ceil(width / _FRONTIER_TOL) - 1).bit_length()
    # After k steps the bracket is lam_hat + width * [a, a+1] / 2^k, and
    # lam_hat + width * m / 2^k = (base * 2^k + step * m) / (scale * 2^k).
    scale = q * width.denominator
    base = p * width.denominator
    step = q * width.numerator
    a = 0
    for k in range(1, steps + 1):
        # keep the upper half when mm_lhs still exceeds 1 at the midpoint
        a = 2 * a + above(p, q, (base << k) + step * (2 * a + 1), scale << k, n)
    k = steps + 1
    return Fraction((base << k) + step * (2 * a + 1), scale << k)


def lambda_rows(n_hi: int = 10) -> list[tuple[int, RigorousReal]]:
    """(n, lambda_n) for n = 2 ... n_hi."""
    if n_hi < 2:
        raise DomainError("need n_hi >= 2")
    return [(n, lambda_n(n)) for n in range(2, n_hi + 1)]


def frontier_rows(n: int, grid_count: int = 101) -> list[tuple[Fraction, object]]:
    """(lambda_hat, frontier) pairs on an even rational grid of [1/n, 1]."""
    if grid_count < 2:
        raise DomainError("grid_count must be >= 2")
    lo, hi = Fraction(1, n), Fraction(1)
    out = []
    for j in range(grid_count):
        lh = lo + (hi - lo) * j / (grid_count - 1)
        out.append((lh, frontier(lh, n)))
    return out


def write_lambda_csv(fileobj: TextIO, n_hi: int = 10) -> None:
    fileobj.write("n,lambda_n\n")
    for n, root in lambda_rows(n_hi):
        lo, hi, _ = rigorous.enclosure(root, 64)
        mid = float((lo + hi) / 2)
        fileobj.write(f"{n},{reporting.format_significant(mid)}\n")


def write_frontier_csv(fileobj: TextIO, n: int, grid_count: int = 101) -> None:
    fileobj.write("lambda_hat,lambda\n")
    for lh, lam in frontier_rows(n, grid_count):
        lam_txt = ("inf" if isinstance(lam, float) and math.isinf(lam)
                   else reporting.format_significant(float(lam)))
        fileobj.write(f"{reporting.format_significant(float(lh))},{lam_txt}\n")


# ---------------------------------------------------------------------------
# the algebraic-plus-one preset

def liouville_preset(theta_doc: dict, extra_doc, x_max) -> dict:
    """Minimal points of (1, theta, ..., theta^(n-1), extra) up to x_max.

    theta_doc is an algebraic coordinate descriptor of degree n >= 2; the
    extra coordinate (a descriptor or a RigorousReal) is assumed, on the
    caller's word, to lie outside the field of theta.  Reports the empirical
    minimum of X_i^(1/(n-1)) L_i over the run, the uniform-exponent
    estimate, and its margin below the spectrum corner lambda_n.
    """
    if not isinstance(theta_doc, dict) or theta_doc.get("type") != "algebraic":
        raise SchemaError("theta must be an algebraic coordinate descriptor")
    deg = len(theta_doc.get("minpoly", [])) - 1
    if deg < 2:
        raise DomainError("theta must have degree >= 2")
    theta = model._coord_from_doc(theta_doc)
    extra = (extra_doc if isinstance(extra_doc, RigorousReal)
             else model._coord_from_doc(extra_doc))
    coords = [rigorous.rational(1)]
    power = rigorous.rational(1)
    for _ in range(1, deg):
        power = power * theta
        coords.append(power)
    coords.append(extra)
    target = model.TargetPoint(coords)
    n = target.n
    seq = minpoints.enumerate_minimal_points(target, model.FullLattice(),
                                             Fraction(x_max))

    expo = Fraction(1, 2 * (deg - 1))  # X^(1/(deg-1)) on squared norms
    best = None
    best_i = None
    for e in seq.entries:
        scaled = iv_pow(frac_enclosure(e.norm_sq), expo) * rig_interval(e.l_value)
        val = midpoint_float(scaled)
        if best is None or val < best:
            best, best_i = val, e.index
    est = None
    margin = None
    try:
        est = transference.estimate_exponents(seq)
    except TooFewPoints:
        pass
    corner = lambda_n(n)
    corner_f = float(corner)
    if est is not None:
        margin = corner_f - est.lambda_hat_est
    return {
        "n": n,
        "thetaDegree": deg,
        "xMax": str(Fraction(x_max)),
        "entries": len(seq.entries),
        "scaledInf": best,
        "scaledInfAt": best_i,
        "lambdaHatEst": None if est is None else est.lambda_hat_est,
        "lambdaEst": None if est is None else est.lambda_est,
        "lambdaN": corner_f,
        "marginBelowCorner": margin,
    }
