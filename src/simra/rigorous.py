"""Adaptive-precision enclosure arithmetic over exact rationals.

A RigorousReal is an immutable handle on a real number given by a descriptor
(exact rational, decimal literal with its stated uncertainty, isolated
algebraic root, or an expression tree over those).  A handle computes its
certified enclosure [lo, hi] of the value when it is first read, at 64 bits or
tighter, and keeps it from then on; so building an expression costs nothing
until a value is needed, and a fault of the expression (division by an
enclosure that holds zero, the square root of a negative one) raises its
DomainError at that first read.  refine produces a new handle with a tighter
enclosure, computed at once, and never widens an earlier one.

All endpoint arithmetic is exact (fractions.Fraction / big ints).  Only square
roots and algebraic roots introduce outward dyadic rounding, which is driven
below any requested radius by raising the working precision.  An algebraic
root is isolated by a Sturm chain of integer pseudo-remainders and refined in
integers on a dyadic interval whose certificate is the exact sign of its
polynomial at the two ends; a rational root is recognized and kept exact.
The working precision escalates by doubling, starting at 64 bits, up to the
one precision cap of the package (precision_cap, read from
SIMRA_PRECISION_CAP at each use; 4096 bits when unset).  The cap bounds the
precision asked of a handle; an expression evaluates its leaves with guard
bits, doubling up to the first leaf precision at or past 4x the cap, so its
leaves can be refined past the cap.
"""

from __future__ import annotations

import os
from enum import Enum
from fractions import Fraction
from math import gcd, isqrt
from typing import Sequence, Union

from .errors import DomainError, NoSignChange, NotSquareFree, PrecisionCapExceeded

Rational = Union[int, Fraction]

_START_BITS = 64


def precision_cap() -> int:
    """The precision cap in bits: SIMRA_PRECISION_CAP, else 4096.  It bounds
    the precision asked of every enclosure, refinement, comparison and sign,
    and of the enumeration's record comparator; an expression evaluates its
    leaves up to the first doubling at or past 4x the cap.  DomainError
    unless it is an integer >= 64."""
    text = os.environ.get("SIMRA_PRECISION_CAP", "4096")
    try:
        bits = int(text)
    except ValueError:
        bits = 0
    if bits < _START_BITS:
        raise DomainError(
            f"SIMRA_PRECISION_CAP={text!r} is not an integer >= {_START_BITS}")
    return bits


class Comparison(Enum):
    LESS = -1
    INDISTINGUISHABLE = 0
    GREATER = 1


# ---------------------------------------------------------------------------
# integer polynomial utilities (coefficients low degree first)

def _ptrim(coeffs: Sequence[int]) -> tuple[int, ...]:
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _pderiv(coeffs: Sequence[int]) -> tuple[int, ...]:
    return _ptrim([i * coeffs[i] for i in range(1, len(coeffs))])


def _pvalue(coeffs: Sequence[int], num: int, den: int) -> int:
    """den^d p(num/den) = sum c_i num^i den^(d-i), d = len(coeffs) - 1, by an
    all-integer Horner scheme."""
    d = len(coeffs) - 1
    acc = 0
    denpow = 1
    # built highest degree first
    for i in range(d, -1, -1):
        acc = acc * num + coeffs[i] * denpow
        if i > 0:
            denpow *= den
    return acc


def _psign_at(coeffs: Sequence[int], num: int, den: int) -> int:
    """Sign of p(num/den) for den > 0."""
    acc = _pvalue(coeffs, num, den)
    return (acc > 0) - (acc < 0)


def _sturm_chain(coeffs: Sequence[int]) -> list[tuple[int, ...]]:
    """p, p' and the negated remainders, each made primitive with its sign
    kept.  The remainders run in integers (Collins' primitive remainder
    sequence): a step reduces a by b to a positive multiple of the remainder
    over Q, whose primitive part, the quotient by the positive gcd of its
    coefficients, is unique.  The last member is gcd(p, p') up to a
    constant, and the sign variations count the distinct roots of p, square
    free or not."""
    chain = [_ptrim(coeffs), _pderiv(coeffs)]
    while len(chain[-1]) > 1:
        a, b = list(chain[-2]), chain[-1]
        if b[-1] < 0:  # the remainder by -b is the remainder by b
            b = [-x for x in b]
        db, lb = len(b) - 1, b[-1]
        while len(a) > db:
            c = a.pop()
            if c:  # a <- lc(b) a - c x^shift b cancels the popped term
                a = [lb * x for x in a]
                shift = len(a) - db
                for i in range(db):
                    a[shift + i] -= c * b[i]
        r = _ptrim([-x for x in a])
        if not r:
            break
        g = gcd(*r)
        chain.append(tuple(x // g for x in r))
    return [p for p in chain if p]


def _variations(chain: list[tuple[int, ...]], x: Fraction) -> int:
    signs = []
    for p in chain:
        s = _psign_at(p, x.numerator, x.denominator)
        if s != 0:
            signs.append(s)
    return sum(1 for i in range(len(signs) - 1) if signs[i] != signs[i + 1])


def count_real_roots(coeffs: Sequence[int], lo: Rational, hi: Rational) -> int:
    """Number of distinct real roots of the polynomial in (lo, hi].

    Endpoints must not be roots of the polynomial itself.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    chain = _sturm_chain(coeffs)
    return _variations(chain, lo) - _variations(chain, hi)


# ---------------------------------------------------------------------------
# exact interval helpers

def _frac_floor_scaled(q: Fraction, bits: int) -> int:
    return (q.numerator << bits) // q.denominator


def _frac_ceil_scaled(q: Fraction, bits: int) -> int:
    return -((-q.numerator << bits) // q.denominator)


def _sqrt_lower(q: Fraction, bits: int) -> Fraction:
    n = (q.numerator << (2 * bits)) // q.denominator
    return Fraction(isqrt(n), 1 << bits)


def _sqrt_upper(q: Fraction, bits: int) -> Fraction:
    m = -((-q.numerator << (2 * bits)) // q.denominator)
    s = isqrt(m)
    if s * s < m:
        s += 1
    return Fraction(s, 1 << bits)


def _exact_sqrt(q: Fraction):
    """Return sqrt(q) as a Fraction when q is a perfect rational square."""
    sn, sd = isqrt(q.numerator), isqrt(q.denominator)
    if sn * sn == q.numerator and sd * sd == q.denominator:
        return Fraction(sn, sd)
    return None


class _NeedPrecision(Exception):
    """Internal: interval op needs tighter children (e.g. divisor straddles 0)."""


# ---------------------------------------------------------------------------
# descriptors

class _Desc:
    __slots__ = ("_cache",)

    def __init__(self):
        self._cache = None  # (bits, lo, hi, saturated)

    def enclosure(self, bits: int) -> tuple[Fraction, Fraction, bool]:
        """Best-effort enclosure targeting radius <= 2^-bits * max(1, |mid|).

        Never raises for precision reasons; the third element reports whether
        the enclosure is saturated (cannot shrink further).
        """
        cached = self._cache
        if cached is not None and (cached[0] >= bits or cached[3]):
            return cached[1], cached[2], cached[3]
        lo, hi, sat = self._compute(bits)
        if cached is not None:
            lo = max(lo, cached[1])
            hi = min(hi, cached[2])
        self._cache = (bits, lo, hi, sat)
        return lo, hi, sat

    def _compute(self, bits: int):
        raise NotImplementedError


class _RationalLeaf(_Desc):
    __slots__ = ("value",)

    def __init__(self, value: Fraction):
        super().__init__()
        self.value = value

    def _compute(self, bits):
        return self.value, self.value, True


class _DecimalLeaf(_Desc):
    """A decimal literal with +-0.5 ulp uncertainty on its last stated digit."""

    __slots__ = ("value", "radius")

    def __init__(self, value: Fraction, radius: Fraction):
        super().__init__()
        self.value = value
        self.radius = radius

    def _compute(self, bits):
        return self.value - self.radius, self.value + self.radius, True


class _AlgebraicLeaf(_Desc):
    """The unique root of an integer polynomial in an isolating interval.

    State is a dyadic interval [a, b] / 2^p whose endpoints give opposite
    signs of the polynomial, or the exact value when the root is rational.
    Those two signs are the whole certificate.  Refinement runs on the
    integers a, b, p: a Newton guess from the midpoint, kept when the signs
    certify it (quadratic convergence), with bisection as the fallback.
    """

    __slots__ = ("coeffs", "deriv", "a", "b", "p", "exact")

    def __init__(self, coeffs: Sequence[int], lo: Fraction, hi: Fraction):
        super().__init__()
        coeffs = _ptrim([int(c) for c in coeffs])
        if len(coeffs) < 2:
            raise DomainError("polynomial must have degree >= 1")
        if not lo < hi:
            raise DomainError("isolating interval must satisfy lo < hi")
        s_lo = _psign_at(coeffs, lo.numerator, lo.denominator)
        s_hi = _psign_at(coeffs, hi.numerator, hi.denominator)
        if s_lo == 0 or s_hi == 0:
            raise NoSignChange("an interval endpoint is a root of the polynomial")
        chain = _sturm_chain(coeffs)
        g = chain[-1]
        if len(g) > 1:
            g_lo = _psign_at(g, lo.numerator, lo.denominator)
            g_hi = _psign_at(g, hi.numerator, hi.denominator)
            if g_lo == 0 or g_hi == 0 or count_real_roots(g, lo, hi) > 0:
                raise NotSquareFree(
                    "polynomial has a repeated root inside the isolating interval"
                )
        if s_lo * s_hi > 0:
            raise NoSignChange("polynomial has the same sign at both endpoints")
        nroots = _variations(chain, lo) - _variations(chain, hi)
        if nroots != 1:
            raise NoSignChange(
                f"interval does not isolate a single root (contains {nroots})"
            )
        self.coeffs = coeffs
        self.deriv = chain[1]
        self.exact = None
        self._init_dyadic(lo, hi)

    def _sign(self, num: int, den_bits: int) -> int:
        return _psign_at(self.coeffs, num, 1 << den_bits)

    def _init_dyadic(self, lo: Fraction, hi: Fraction) -> None:
        p = 32
        while True:
            a = _frac_ceil_scaled(lo, p)
            b = _frac_floor_scaled(hi, p)
            if a < b:
                sa = self._sign(a, p)
                sb = self._sign(b, p)
                if sa == 0:
                    self._collapse(Fraction(a, 1 << p))
                    return
                if sb == 0:
                    self._collapse(Fraction(b, 1 << p))
                    return
                if sa != sb:
                    self.a, self.b, self.p = a, b, p
                    break
            p *= 2
        # A rational root u/v in lowest terms has v | lc, so |lc| times it is
        # an integer (the rational root theorem): on an interval narrower
        # than 1/|lc|, the one integer m strictly inside |lc| (a, b) / 2^p
        # gives the only candidate, m/|lc|.
        lc = abs(self.coeffs[-1])
        while self.exact is None and (self.b - self.a) * lc >= 1 << self.p:
            if not self._newton_once():
                self._bisect_once()
        if self.exact is None:
            m = (self.a * lc >> self.p) + 1
            if m << self.p < self.b * lc and _pvalue(self.coeffs, m, lc) == 0:
                self._collapse(Fraction(m, lc))

    def _collapse(self, value: Fraction) -> None:
        self.exact = value
        self.a = self.b = None
        self.p = None

    def _bisect_once(self) -> None:
        self.a, self.b, self.p = self.a * 2, self.b * 2, self.p + 1
        m = (self.a + self.b) // 2
        sm = self._sign(m, self.p)
        if sm == 0:
            self._collapse(Fraction(m, 1 << self.p))
            return
        sa = self._sign(self.a, self.p)
        if sm == sa:
            self.a = m
        else:
            self.b = m

    def _newton_once(self) -> bool:
        """One Newton step from the midpoint in integers, kept only when the
        signs certify it: the proposal [x - r, x + r], clipped to [a, b],
        must change sign at its ends.  It lies on a grid h bits finer, h the
        bits the interval holds (width < 2^-h), so a step that lands takes
        h to about 7h/4 bits; r = (b - a) 2^(h/4) widens with h so that a
        root with a large |p''/p'| (a close neighbour) is taken by Newton
        once bisection has closed in on it."""
        a, b, p = self.a, self.b, self.p
        w = b - a
        h = p - w.bit_length()
        if h < 3:  # the proposal would shrink the interval no more than a bisection
            return False
        r = w << (h >> 2)
        s = p + 1
        m = a + b
        f = _pvalue(self.coeffs, m, 1 << s)
        if f == 0:
            self._collapse(Fraction(m, 1 << s))
            return True
        g = _pvalue(self.deriv, m, 1 << s)
        if g == 0:
            return False
        # the Newton point (m - f / g) / 2^s in steps of 2^-q, rounded down
        q = p + h
        x = ((m * g - f) << (q - s)) // g
        lo, hi = max(x - r, a << h), min(x + r, b << h)
        if not lo < hi:
            return False
        s_lo = self._sign(lo, q)
        if s_lo == 0:
            self._collapse(Fraction(lo, 1 << q))
            return True
        s_hi = self._sign(hi, q)
        if s_hi == 0:
            self._collapse(Fraction(hi, 1 << q))
            return True
        if s_lo == s_hi:
            return False
        self.a, self.b, self.p = lo, hi, q
        return True

    def _compute(self, bits):
        while self.exact is None:
            a, b, p = self.a, self.b, self.p
            # radius (b - a) / 2^(p+1) <= 2^-bits * max(1, |a + b| / 2^(p+1))
            if (b - a) << bits <= max(1 << (p + 1), abs(a + b)):
                return Fraction(a, 1 << p), Fraction(b, 1 << p), False
            if not self._newton_once():
                self._bisect_once()
        return self.exact, self.exact, True


class _Expr(_Desc):
    __slots__ = ("op", "args")

    _OPS = frozenset({"add", "sub", "mul", "div", "neg", "abs", "max", "sqrt"})

    def __init__(self, op: str, args: Sequence["_Desc"]):
        super().__init__()
        if op not in self._OPS:
            raise DomainError(f"unknown operation {op!r}")
        self.op = op
        self.args = tuple(args)

    def _eval(self, leaf_bits: int, work_bits: int):
        vals = [a._eval(leaf_bits, work_bits) if isinstance(a, _Expr)
                else a.enclosure(leaf_bits) for a in self.args]
        return _endpoint_op(self.op, vals, work_bits)

    def _compute(self, bits):
        leaf_bits = bits + 16
        best = None
        while True:
            try:
                lo, hi, sat = self._eval(leaf_bits, leaf_bits + 16)
            except _NeedPrecision:
                lo = hi = sat = None
            if lo is not None:
                best = (lo, hi, sat)
                if sat:
                    return best
                mid_mag = abs(lo + hi) / 2
                target = Fraction(1, 1 << bits) * max(Fraction(1), mid_mag)
                if hi - lo <= 2 * target:
                    return lo, hi, False
            if leaf_bits >= 4 * precision_cap():
                if best is None:
                    raise DomainError(
                        "division by an enclosure containing zero at the precision cap"
                    )
                return best
            leaf_bits *= 2


def _endpoint_op(op: str, vals: list, work_bits: int):
    """(lo, hi, saturated) of op on enclosures vals; sqrt rounds outward at work_bits."""
    if op == "add":
        (alo, ahi, asat), (blo, bhi, bsat) = vals
        return alo + blo, ahi + bhi, asat and bsat
    if op == "sub":
        (alo, ahi, asat), (blo, bhi, bsat) = vals
        return alo - bhi, ahi - blo, asat and bsat
    if op == "neg":
        (alo, ahi, asat), = vals
        return -ahi, -alo, asat
    if op == "mul":
        (alo, ahi, asat), (blo, bhi, bsat) = vals
        prods = (alo * blo, alo * bhi, ahi * blo, ahi * bhi)
        return min(prods), max(prods), asat and bsat
    if op == "div":
        (alo, ahi, asat), (blo, bhi, bsat) = vals
        if blo <= 0 <= bhi:
            if bsat:
                raise DomainError("division by an enclosure containing zero")
            raise _NeedPrecision
        quots = (alo / blo, alo / bhi, ahi / blo, ahi / bhi)
        return min(quots), max(quots), asat and bsat
    if op == "abs":
        (alo, ahi, asat), = vals
        if alo >= 0:
            return alo, ahi, asat
        if ahi <= 0:
            return -ahi, -alo, asat
        return Fraction(0), max(-alo, ahi), asat
    if op == "max":
        lo = max(v[0] for v in vals)
        hi = max(v[1] for v in vals)
        # branches certifiably below the max cannot move it: enclosures
        # only shrink inward, so saturation is decided by the survivors
        return lo, hi, all(v[2] for v in vals if v[1] >= lo)
    # sqrt
    (alo, ahi, asat), = vals
    if ahi < 0:
        raise DomainError("square root of a negative enclosure")
    alo = max(alo, Fraction(0))
    if asat and alo == ahi:
        ex = _exact_sqrt(alo)
        if ex is not None:
            return ex, ex, True
    return _sqrt_lower(alo, work_bits), _sqrt_upper(ahi, work_bits), False


# ---------------------------------------------------------------------------
# public wrapper

class RigorousReal:
    """Immutable handle on a real number with a certified enclosure, computed
    at its first read and kept from then on."""

    __slots__ = ("_desc", "_box")

    def __init__(self, desc: _Desc, box=None):
        self._desc = desc
        self._box = box  # (lo, hi, saturated) once read

    def _enclosure(self) -> tuple[Fraction, Fraction, bool]:
        box = self._box
        if box is None:
            box = self._box = self._desc.enclosure(_START_BITS)
        return box

    # -- enclosure views ---------------------------------------------------
    @property
    def lo(self) -> Fraction:
        return self._enclosure()[0]

    @property
    def hi(self) -> Fraction:
        return self._enclosure()[1]

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    @property
    def radius(self) -> Fraction:
        return (self.hi - self.lo) / 2

    @property
    def saturated(self) -> bool:
        return self._enclosure()[2]

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi

    def __float__(self) -> float:
        return float(self.midpoint)

    def __repr__(self) -> str:
        if self.is_exact:
            return f"RigorousReal(exact {self.lo})"
        return f"RigorousReal(~{float(self.midpoint):.12g}, rad~{float(self.radius):.3g})"

    # -- arithmetic --------------------------------------------------------
    @staticmethod
    def _coerce(v) -> "_Desc":
        if isinstance(v, RigorousReal):
            return v._desc
        if isinstance(v, (int, Fraction)):
            return _RationalLeaf(Fraction(v))
        raise TypeError(f"cannot mix RigorousReal with {type(v).__name__}")

    def _binary(self, op, other, swap=False):
        a, b = self._desc, self._coerce(other)
        if swap:
            a, b = b, a
        return RigorousReal(_Expr(op, (a, b)))

    def __add__(self, other):
        return self._binary("add", other)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary("sub", other)

    def __rsub__(self, other):
        return self._binary("sub", other, swap=True)

    def __mul__(self, other):
        return self._binary("mul", other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binary("div", other)

    def __rtruediv__(self, other):
        return self._binary("div", other, swap=True)

    def __neg__(self):
        return RigorousReal(_Expr("neg", (self._desc,)))

    def __abs__(self):
        return RigorousReal(_Expr("abs", (self._desc,)))


def rational(value: Union[Rational, str]) -> RigorousReal:
    """Exact rational value (radius 0)."""
    return RigorousReal(_RationalLeaf(Fraction(value)))


def decimal_literal(text: str) -> RigorousReal:
    """A decimal string carrying +-0.5 ulp uncertainty on its last digit.

    '1.5' means the interval [1.45, 1.55]; '2' means [1.5, 2.5].  The radius
    is honest measurement uncertainty, so the enclosure never refines past it.
    """
    text = text.strip()
    value = Fraction(text)
    if "." in text:
        ndigits = len(text.split(".", 1)[1])
    else:
        ndigits = 0
    if "e" in text.lower():
        raise DomainError("exponent notation is not supported in decimal literals")
    radius = Fraction(1, 2 * 10 ** ndigits)
    return RigorousReal(_DecimalLeaf(value, radius))


def algebraic_root(coeffs: Sequence[int], interval) -> RigorousReal:
    """The unique root of the integer polynomial inside the isolating interval.

    coeffs lists the polynomial low degree first.  The interval endpoints must
    give opposite (nonzero) polynomial signs, the polynomial must be square
    free on the interval, and the interval must contain exactly one root.
    """
    lo, hi = interval
    return RigorousReal(_AlgebraicLeaf(coeffs, Fraction(lo), Fraction(hi)))


def sqrt(value) -> RigorousReal:
    """Square root as an enclosure; exact when the input is a perfect square."""
    if isinstance(value, (int, Fraction)):
        q = Fraction(value)
        if q < 0:
            raise DomainError("square root of a negative rational")
        ex = _exact_sqrt(q)
        if ex is not None:
            return rational(ex)
        value = rational(q)
    return RigorousReal(_Expr("sqrt", (RigorousReal._coerce(value),)))


def maximum(*values) -> RigorousReal:
    if not values:
        raise DomainError("maximum of an empty collection")
    return RigorousReal(_Expr("max", tuple(RigorousReal._coerce(v) for v in values)))


def refine(x: RigorousReal, bits: int) -> RigorousReal:
    """A new handle whose radius is <= 2^-bits * max(1, |midpoint|).

    Raises PrecisionCapExceeded when the requested precision is above the cap
    or the value is data-limited (saturated) above the requested radius.
    """
    cap = precision_cap()
    if bits > cap:
        raise PrecisionCapExceeded(
            f"requested {bits} bits exceeds the {cap}-bit SIMRA_PRECISION_CAP")
    out = RigorousReal(x._desc, x._desc.enclosure(bits))
    target = Fraction(1, 1 << bits) * max(Fraction(1), abs(out.midpoint))
    if out.radius > target:
        raise PrecisionCapExceeded(
            f"could not reach radius 2^-{bits}"
            + (" (value is data-limited)" if out.saturated else
               f" within the {cap}-bit SIMRA_PRECISION_CAP")
        )
    return out


def enclosure(x: RigorousReal, bits: int) -> tuple[Fraction, Fraction, bool]:
    """Best-effort enclosure after refining toward radius 2^-bits.

    Unlike refine, an unreachable target (past the precision cap or the
    data) raises nothing and just returns the tightest enclosure
    available (the third element reports saturation).
    """
    return x._desc.enclosure(min(bits, precision_cap()))


def compare(x: RigorousReal, y) -> Comparison:
    """Certified three-way comparison.

    Escalates precision by doubling until the enclosures separate; equal
    values (or values closer than the precision cap permits distinguishing)
    come back INDISTINGUISHABLE, never a wrong strict answer.
    """
    if not isinstance(y, RigorousReal):
        y = rational(Fraction(y))
    cap = precision_cap()
    bits = _START_BITS
    while True:
        xlo, xhi, xsat = x._desc.enclosure(bits)
        ylo, yhi, ysat = y._desc.enclosure(bits)
        if xhi < ylo:
            return Comparison.LESS
        if yhi < xlo:
            return Comparison.GREATER
        if (xsat and ysat) or bits >= cap:
            return Comparison.INDISTINGUISHABLE
        bits = min(bits * 2, cap)


def sign(x: RigorousReal) -> int | None:
    """Certified sign: -1, 0 (exactly zero), +1, or None when undecidable."""
    if x.is_exact:
        v = x.lo
        return (v > 0) - (v < 0)
    c = compare(x, 0)
    if c is Comparison.LESS:
        return -1
    if c is Comparison.GREATER:
        return 1
    lo, hi, _ = x._desc.enclosure(precision_cap())
    if lo == hi == 0:
        return 0
    return None


def dyadic_bounds(x: RigorousReal, bits: int) -> tuple[int, int]:
    """Integers (lo, hi) with x in [lo, hi] / 2^bits: the floor and ceiling
    of 2^bits x.  An enclosure that straddles a point of the grid is refined
    by doubling until it falls inside one cell (hi - lo <= 1), is saturated,
    or reaches the precision cap; so the bounds are those of the value, not
    of how far its refinement happened to overshoot."""
    cap = precision_cap()
    work = bits
    while True:
        lo, hi, sat = x._desc.enclosure(work)
        lo, hi = _frac_floor_scaled(lo, bits), _frac_ceil_scaled(hi, bits)
        if hi - lo <= 1 or sat or work >= cap:
            return lo, hi
        work = min(2 * work, cap)
