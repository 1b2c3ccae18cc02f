"""Certified transcendental evaluation on top of mpmath interval arithmetic.

The exact layer (rigorous.py) handles field operations and square roots; logs
and general powers come from mpmath.iv, which no other module imports.  These
wrappers convert Fractions and RigorousReal enclosures into iv intervals
(`enclose`) without losing the certification: a rational enters as one
outward-rounded division of its outward-rounded numerator and denominator,
never through float, and its endpoints are cached.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import lru_cache

from mpmath import iv, libmp
from mpmath.libmp import from_int, mpi_div, round_ceiling, round_floor

from . import rigorous
from .errors import DomainError

iv.prec = 192  # generous slack so 1e-10 tolerances are never rounding-bound


@lru_cache(maxsize=4096)
def _rational_mpi(p: int, q: int, prec: int):
    """The endpoints of iv.mpf(p) / iv.mpf(q) at prec bits, q > 0: each
    integer rounded outward, then one outward-rounded interval division."""
    return mpi_div((from_int(p, prec, round_floor), from_int(p, prec, round_ceiling)),
                   (from_int(q, prec, round_floor), from_int(q, prec, round_ceiling)),
                   prec)


def frac_enclosure(f):
    """Certified iv enclosure of a single rational."""
    f = Fraction(f)
    return iv.make_mpf(_rational_mpi(f.numerator, f.denominator, iv.prec))


def frac_interval(lo, hi):
    """Certified iv enclosure of the interval [lo, hi], rational endpoints."""
    lo, hi = Fraction(lo), Fraction(hi)
    if lo == hi:
        return frac_enclosure(lo)
    mid = (lo + hi) / 2
    rad = (hi - lo) / 2
    return frac_enclosure(mid) + frac_enclosure(rad) * iv.mpf([-1, 1])


def rig_interval(x):
    """iv enclosure of a RigorousReal, refined best-effort toward 2^-96."""
    lo, hi, _ = rigorous.enclosure(x, 96)
    return frac_interval(lo, hi)


def enclose(v):
    """The iv enclosure of v: an iv value as it is, a RigorousReal through
    rig_interval at 96 bits, anything else as one rational."""
    if isinstance(v, iv.mpf):
        return v
    if isinstance(v, rigorous.RigorousReal):
        return rig_interval(v)
    return frac_enclosure(v)


def hull(lo, hi):
    """The iv interval from the lower end of lo to the upper end of hi."""
    return iv.mpf([lo.a, hi.b])


def iv_log(x):
    return iv.log(x)


def iv_pow(x, e):
    if isinstance(e, int):
        return x ** e
    return x ** frac_enclosure(Fraction(e))


def _double_beside(end, side: int) -> float:
    """The raw endpoint end as a double below (side -1) or above (+1) it.
    Past the normal range libmp.to_float may land on the wrong side (an
    infinity, 0.0, the nearest subnormal): step back by one double."""
    f = libmp.to_float(end, rnd="c" if side > 0 else "f")
    if (not sys.float_info.min <= abs(f) < math.inf
            and libmp.mpf_cmp(libmp.from_float(f), end) == -side):
        return math.nextafter(f, side * math.inf)
    return f


def lower(v) -> float:
    """Lower endpoint as a float, rounded down (stays a valid lower bound)."""
    return _double_beside(v._mpi_[0], -1)


def upper(v) -> float:
    """Upper endpoint as a float, rounded up (stays a valid upper bound)."""
    return _double_beside(v._mpi_[1], 1)


def midpoint_float(v) -> float:
    # float(ivmpf) rounds downward; going through exact endpoint rationals
    # gives the correctly rounded double of the true midpoint
    lo, hi = endpoints_fraction(v)
    try:
        return float((lo + hi) / 2)
    except OverflowError:
        raise DomainError("an enclosure midpoint exceeds the double range") from None


def endpoints_fraction(v) -> tuple[Fraction, Fraction]:
    """Exact rational endpoints of an iv value (endpoints are binary floats)."""
    plo, qlo = libmp.to_rational(v._mpi_[0])
    phi, qhi = libmp.to_rational(v._mpi_[1])
    return Fraction(plo, qlo), Fraction(phi, qhi)
