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


# lambda_n's enclosure is at most 10^-30 wide, frontier's cells 10^-14
_LAMBDA_BITS = (10 ** 30).bit_length() + 2
_FRONTIER_TOL_DEN = 10 ** 14


def lambda_n(n: int) -> RigorousReal:
    """The unique positive root of the spectrum polynomial, refined so the
    enclosure width is at most 10^-30."""
    if n < 2:
        raise DomainError("the spectrum corner needs n >= 2")
    root = rigorous.algebraic_root(_spectrum_poly(n), (Fraction(0), Fraction(1)))
    rigorous.refine(root, _LAMBDA_BITS)
    return root


def _frontier_guess(p: int, q: int, n: int):
    """An estimate of frontier(p/q, n): a float, or near lambda_hat = 1 a
    Fraction.

    With r = lambda_hat / lambda the equation mm_lhs = 1 reads
    r + r^2 + ... + r^(n-1) = q/p - 1 =: c, whose root in (0, 1) has
    relative condition number at most 1.  For c < 2^-26 the root is
    c - c^2 + O(c^3), so lambda = p / (q - p) to a relative 2^-52 (exact
    integers, where a float would overflow).  Otherwise Newton in floats
    from min(1, c), which lies above the root of this convex increasing
    sum, descends onto it.
    """
    if (q - p) << 26 < p:
        return Fraction(p, q - p)
    c = (q - p) / p
    r = min(1.0, c)
    for _ in range(100):
        value, slope = 0.0, 0.0
        for _ in range(n - 1):
            slope = 1.0 + value + r * slope
            value = r * (1.0 + value)
        nxt = r - (value - c) / slope
        if not nxt < r:
            break
        r = nxt
    return p / q / r


def frontier(lambda_hat, n: int):
    """The least ordinary exponent compatible with uniform exponent
    lambda_hat: the root in [lambda_hat, oo) of mm_lhs(lambda_hat, x, n) = 1.

    Returns an exact Fraction (exact closed form for n = 2), or the
    infinity marker at lambda_hat = 1 where no finite value satisfies the
    equation.  For n >= 3 let hi be the first of max(1, 2 lambda_hat) * 2^j
    at which mm_lhs <= 1, and split [lambda_hat, hi] into 2^steps equal
    cells, steps the least count that makes a cell at most 10^-14 wide.
    The result is the midpoint of the one cell a whose left end has
    mm_lhs > 1 and whose right end does not (mm_lhs is strictly decreasing
    in lambda): the midpoint that bisecting [lambda_hat, hi] on exact
    mm_lhs values reaches.  Every one of these comparisons is the integer
    sign test transference.mm_lhs_exceeds_one.

    A guess (_frontier_guess) skips most doublings of hi and names a
    bracket of a few cells around a.  Its two ends are certified by the
    sign test, the bracket widening geometrically until they hold (at
    worst to [lambda_hat, hi], whose ends hold by definition), and it is
    bisected down to a.  A wrong guess costs time, never the result.
    """
    if n < 2:
        raise DomainError("the frontier needs n >= 2")
    lam_hat = Fraction(lambda_hat)
    p, q = lam_hat.numerator, lam_hat.denominator
    if not q <= n * p <= n * q:
        raise DomainError(
            f"lambda_hat must lie in [1/{n}, 1], got {lam_hat}"
        )
    if p == q:
        return INFINITE
    if n * p == q:
        return lam_hat
    if n == 2:
        return lam_hat ** 2 / (1 - lam_hat)
    above = transference.mm_lhs_exceeds_one
    guess = _frontier_guess(p, q, n)
    hint = guess.as_integer_ratio() if 0 < guess < math.inf else None
    top = max(q, 2 * p)  # hi = top / q
    if hint:
        # skip the doublings to the last one at most half the guess, once
        # that one is certified to lie below the root
        j = (hint[0] * q // (hint[1] * top)).bit_length() - 2
        if j > 0 and above(p, q, top << j, q, n):
            top <<= j + 1
    while above(p, q, top, q, n):
        top *= 2
    width = top - p  # hi - lam_hat = width / q
    steps = (-(-width * _FRONTIER_TOL_DEN // q) - 1).bit_length()
    # cell m's left end: lam_hat + width m / (q 2^steps)
    base, scale, cells = p << steps, q << steps, 1 << steps

    def up(m: int) -> bool:
        return above(p, q, base + width * m, scale, n)

    # cell indices: up(lo) holds and up(hi) does not, by definition
    lo, hi = 0, cells
    if hint:
        num, den = hint
        g = min(max((num * q - p * den) * cells // (den * width), 0), cells)
        # a failed end bounds the cell from the other side
        d = 2
        while g - d > lo and not up(g - d):
            hi, d = g - d, 16 * d
        lo, d = max(lo, g - d), 2
        while g + d < hi and up(g + d):
            lo, d = g + d, 16 * d
        hi = min(hi, g + d)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if up(mid):
            lo = mid
        else:
            hi = mid
    return Fraction(2 * base + width * (2 * lo + 1), 2 * scale)


def lambda_rows(n_hi: int = 10) -> list[tuple[int, RigorousReal]]:
    """(n, lambda_n) for n = 2 ... n_hi."""
    if n_hi < 2:
        raise DomainError("need n_hi >= 2")
    return [(n, lambda_n(n)) for n in range(2, n_hi + 1)]


def frontier_rows(n: int, grid_count: int = 101) -> list[tuple[Fraction, object]]:
    """(lambda_hat, frontier) pairs on an even rational grid of [1/n, 1]."""
    if n < 2:
        raise DomainError("the frontier needs n >= 2")
    if grid_count < 2:
        raise DomainError("grid_count must be >= 2")
    # 1/n + (1 - 1/n) j / (grid_count - 1)
    den = n * (grid_count - 1)
    out = []
    for j in range(grid_count):
        lh = Fraction(grid_count - 1 + (n - 1) * j, den)
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
