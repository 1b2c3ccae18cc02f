"""Certified intervals on exact rational ends, with logs and real powers in
integers (Brent and Zimmermann, Modern Computer Arithmetic, 2010, 4.4): log q
as e log 2 + 2 atanh((m - 1)/(m + 1)) for q = 2^e m with m near 1, exp as
2^k exp(r) with 0 <= r < log 2, each series in fixed point at PREC working
bits plus guard bits, its ends moved outward by an explicit error bound.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import partialmethod

from . import rigorous
from .errors import DomainError

PREC = 192  # working bits: a log or a power is good to about 2^-PREC relative
_P = PREC + 32  # the kernels' fixed-point bits; the guard bits absorb their error counts
_MAX = int(sys.float_info.max)  # the largest finite double, exactly


@dataclass(slots=True)
class Interval:
    """[lo, hi] on exact rationals, by the endpoint formulas of rigorous."""

    lo: Fraction
    hi: Fraction

    def _op(self, op: str, *others) -> Interval:
        vals = [(v.lo, v.hi, True) for v in (self, *map(enclose, others))]
        return Interval(*rigorous._endpoint_op(op, vals, 0)[:2])

    __add__ = partialmethod(_op, "add")
    __sub__ = partialmethod(_op, "sub")
    __mul__ = __rmul__ = partialmethod(_op, "mul")
    __truediv__ = partialmethod(_op, "div")
    __neg__ = partialmethod(_op, "neg")
    __abs__ = partialmethod(_op, "abs")


def frac_enclosure(f) -> Interval:
    """The interval [f, f] of one rational."""
    return Interval(Fraction(f), Fraction(f))


def rig_interval(x) -> Interval:
    """The enclosure of a RigorousReal, refined best-effort toward 2^-96."""
    return Interval(*rigorous.enclosure(x, 96)[:2])


def enclose(v) -> Interval:
    """v as an Interval: itself, rig_interval of a RigorousReal, or [v, v]."""
    if isinstance(v, rigorous.RigorousReal):
        return rig_interval(v)
    return v if isinstance(v, Interval) else frac_enclosure(v)


def _atanh(a: int, b: int, p: int) -> tuple[int, int]:
    """(s, err) with |s - 2^p atanh(a/b)| <= err, for integers 0 <= 3a <= b.
    Each power of z = a/b is off by under 2 units of 2^-p (z^2 <= 1/9 shrinks
    the error carried), each term of sum z^(2j+1)/(2j+1) by under 2 after its
    division, and once a power rounds to 0 the rest add below 1."""
    t, z2 = (a << p) // b, (a * a << p) // (b * b)
    s, k = t, 1
    while t:
        t = t * z2 >> p
        k += 2
        s += t // k
    return s, k + 3 if a else 0


_LOG2, _LOG2_ERR = (2 * v for v in _atanh(1, 3, _P))  # log 2 = 2 atanh(1/3)


def _log(q: Fraction) -> tuple[int, int, int]:
    """(y, err, p), |y - 2^p log q| <= err, for q = 2^e m > 0 with e nearest
    log2 q; at e = 0, p follows z's leading bit, so log q near 0 stays precise."""
    e = round(math.log2(q.numerator) - math.log2(q.denominator))
    num, den = q.numerator << max(-e, 0), q.denominator << max(e, 0)
    a, b = abs(num - den), num + den  # |z| = a/b < 1/5
    p = _P if e else _P + b.bit_length() - a.bit_length()
    s, err = _atanh(a, b, p)
    return 2 * (s if num > den else -s) + e * _LOG2, 2 * err + abs(e) * _LOG2_ERR, p


def _exp(e: Fraction, t: Fraction, side: int) -> Fraction:
    """The lower (side -1) or upper (side 1) end of exp(e t), from 2^k exp(r)
    with 0 <= r < log 2.  The fixed-point r is off by at most 1 + |k|
    _LOG2_ERR units, which moves exp r < 2 by less than twice that; each
    Taylor term is off by less than 2 units (r < 0.7 shrinks the error
    carried), and once one rounds to 0 the rest add below 2."""
    k, r = divmod((e.numerator * t.numerator << _P) // (e.denominator * t.denominator), _LOG2)
    s = u = 1 << _P
    j = 0
    while u:
        j += 1
        u = (u * r >> _P) // j
        s += u
    err = 2 * (j + 3 + abs(k) * _LOG2_ERR) if t else 0
    return Fraction((s + side * err) << max(k - _P, 0), 1 << max(_P - k, 0))


def iv_log(x: Interval) -> Interval:
    """The enclosure of log over the positive interval x."""
    if not x.lo > 0:
        raise DomainError("log or power of an enclosure reaching down to 0")
    y, err, p = lo = _log(x.lo)
    z, zerr, zp = lo if x.hi == x.lo else _log(x.hi)
    return Interval(Fraction(y - err, 1 << p), Fraction(z + zerr, 1 << zp))


def iv_pow(x: Interval, e, log=iv_log) -> Interval:
    """x^e over the positive interval x for a rational e: the exact power
    for an integer e, else exp(e log x) at the two ends of e log x, with
    log x from `log` (a caller raising one x to several powers passes a
    memo of iv_log)."""
    e = Fraction(e)
    if e.denominator == 1 and x.lo > 0:
        return Interval(*sorted((x.lo ** e.numerator, x.hi ** e.numerator)))
    t = log(x)  # refuses an x reaching down to 0
    lo, hi = (t.lo, t.hi) if e > 0 else (t.hi, t.lo)
    return Interval(_exp(e, lo, -1), _exp(e, hi, 1))


def _double(q: Fraction, side: int) -> float:
    """The largest double <= q (side -1) or the least double >= q (side 1);
    past the double range, the largest finite double or an infinity."""
    n, d = q.numerator, q.denominator
    f = max(-d * _MAX, min(n, d * _MAX)) / d  # n / d, clamped to the double range
    a, b = f.as_integer_ratio()
    return math.nextafter(f, side * math.inf) if side * (a * d - n * b) < 0 else f


def lower(v: Interval) -> float:
    """The lower end as a double, rounded down (it stays a lower bound)."""
    return _double(v.lo, -1)


def upper(v: Interval) -> float:
    """The upper end as a double, rounded up (it stays an upper bound)."""
    return _double(v.hi, 1)


def midpoint_float(v: Interval) -> float:
    """The double nearest the exact midpoint of v: one correctly rounded
    integer division, (a d + c b) / (2 b d) for v = [a/b, c/d]."""
    a, b = v.lo.numerator, v.lo.denominator
    c, d = v.hi.numerator, v.hi.denominator
    try:
        return (a * d + c * b) / (2 * b * d)
    except OverflowError:
        raise DomainError("an enclosure midpoint exceeds the double range") from None
