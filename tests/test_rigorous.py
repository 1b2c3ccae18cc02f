"""Enclosure arithmetic: exactness, certified comparisons, refinement."""

import random
from fractions import Fraction
from math import gcd, isqrt, lcm

import pytest

from simra import rigorous, spectra
from simra.errors import DomainError, NoSignChange, NotSquareFree, PrecisionCapExceeded
from simra.rigorous import (
    Comparison,
    algebraic_root,
    compare,
    count_real_roots,
    decimal_literal,
    enclosure,
    maximum,
    rational,
    refine,
    sign,
    sqrt,
)

SQRT2 = 1.4142135623730951


def contains(x, value):
    v = Fraction(value)
    return x.lo <= v <= x.hi


def test_algebraic_root_sqrt2():
    r = algebraic_root([-2, 0, 1], (1, 2))
    r = refine(r, 80)
    assert float(r) == pytest.approx(SQRT2, abs=1e-15)
    assert r.lo * r.lo < 2 < r.hi * r.hi


def test_algebraic_root_negative_branch():
    r = refine(algebraic_root([-2, 0, 1], (-2, -1)), 80)
    assert float(r) == pytest.approx(-SQRT2, abs=1e-15)


def test_algebraic_root_cbrt2():
    r = refine(algebraic_root([-2, 0, 0, 1], (1, 2)), 80)
    assert float(r) == pytest.approx(1.25992105, abs=1e-8)


def test_algebraic_root_rejects_non_isolating():
    # two roots of x^2 - 2 inside (-2, 2)
    with pytest.raises(NoSignChange):
        algebraic_root([-2, 0, 1], (-2, 2))
    with pytest.raises(NoSignChange):
        algebraic_root([-2, 0, 1], (2, 3))  # same sign at both ends


def test_algebraic_root_rejects_repeated_root():
    # (x^2 - 2)^2 has a double root inside (1, 2)
    with pytest.raises(NotSquareFree):
        algebraic_root([4, 0, -4, 0, 1], (1, 2))


def test_algebraic_root_endpoint_root_rejected():
    with pytest.raises(NoSignChange):
        algebraic_root([-4, 0, 1], (2, 3))


def test_count_real_roots():
    assert count_real_roots([-2, 0, 1], 0, 2) == 1
    assert count_real_roots([-2, 0, 1], -2, 2) == 2
    assert count_real_roots([-2, 0, 1], 3, 4) == 0


def test_rational_is_exact():
    r = rational(Fraction(3, 7))
    assert r.is_exact and r.radius == 0
    assert refine(r, 200).lo == Fraction(3, 7)


def test_sqrt_exact_on_perfect_squares():
    assert sqrt(49).is_exact
    assert sqrt(49).lo == 7
    assert sqrt(Fraction(9, 4)).lo == Fraction(3, 2)
    with pytest.raises(DomainError):
        sqrt(-1)


def test_sum_of_roots():
    s = sqrt(2) + sqrt(3)
    s = refine(s, 80)
    assert float(s) == pytest.approx(3.14626436, abs=1e-8)


def test_refine_radius_contract():
    r = refine(sqrt(2), 100)
    assert r.radius <= Fraction(1, 2 ** 100) * max(1, abs(r.midpoint))
    assert r.lo * r.lo < 2 < r.hi * r.hi


def test_refine_beyond_cap_raises():
    cap = rigorous.precision_cap()
    with pytest.raises(PrecisionCapExceeded):
        refine(sqrt(2), cap + 1)


def test_decimal_literal_uncertainty():
    d = decimal_literal("1.5")
    assert (d.lo, d.hi) == (Fraction(29, 20), Fraction(31, 20))
    assert d.saturated
    # the radius is data-limited: refining past it must fail loudly
    with pytest.raises(PrecisionCapExceeded):
        refine(d, 20)
    with pytest.raises(DomainError):
        decimal_literal("1.5e3")


def test_enclosure_never_raises_on_saturated():
    d = decimal_literal("2.25")  # 9/4 with half-ulp radius 1/200
    lo, hi, sat = enclosure(d, 500)
    assert sat and lo == Fraction(449, 200) and hi == Fraction(451, 200)


def test_compare_spec_examples():
    r2 = sqrt(2)
    assert compare(r2, Fraction(3, 2)) is Comparison.LESS
    assert compare(sqrt(2) + sqrt(3), Fraction(22, 7)) is Comparison.GREATER
    # same value through two independently built handles: never a strict answer
    other = algebraic_root([-2, 0, 1], (1, 2))
    assert compare(r2, other) is Comparison.INDISTINGUISHABLE


def test_compare_uses_cap_argument(monkeypatch):
    # the cap is SIMRA_PRECISION_CAP, read at every call
    a = sqrt(2)
    b = sqrt(2) + Fraction(1, 2 ** 200)
    monkeypatch.setenv("SIMRA_PRECISION_CAP", "64")
    assert compare(a, b) is Comparison.INDISTINGUISHABLE
    monkeypatch.setenv("SIMRA_PRECISION_CAP", "4096")
    assert compare(a, b) is Comparison.LESS


def test_sign():
    assert sign(rational(-3)) == -1
    assert sign(rational(0)) == 0
    assert sign(sqrt(2) - 1) == 1
    assert sign(sqrt(2) - sqrt(2)) in (0, None)  # exact zero is undecidable here


def test_maximum():
    m = maximum(rational(1), sqrt(2), rational(Fraction(5, 4)))
    assert compare(m, sqrt(2)) is Comparison.INDISTINGUISHABLE
    with pytest.raises(DomainError):
        maximum()


def test_arithmetic_identities():
    x = sqrt(2)
    zero = x - x
    assert contains(zero, 0)
    one = refine(x * x / 2, 80)
    assert contains(one, 1) and one.radius < Fraction(1, 2 ** 70)


def test_coercion_rejects_floats():
    with pytest.raises(TypeError):
        sqrt(2) + 0.5


def random_value(rng, depth=0):
    """A random expression tree together with its exact Fraction value."""
    if depth >= 3 or rng.random() < 0.3:
        q = Fraction(rng.randint(-50, 50), rng.randint(1, 30))
        return rational(q), q
    op = rng.choice("+-*/")
    a, av = random_value(rng, depth + 1)
    b, bv = random_value(rng, depth + 1)
    if op == "+":
        return a + b, av + bv
    if op == "-":
        return a - b, av - bv
    if op == "*":
        return a * b, av * bv
    if bv == 0:
        return a, av
    return a / b, av / bv


def test_enclosure_soundness_random():
    rng = random.Random(20240817)
    for _ in range(1000):
        x, v = random_value(rng)
        assert x.lo <= v <= x.hi
        r = refine(x, 120)
        assert r.lo <= v <= r.hi


def test_monotone_refinement():
    x = sqrt(2) * sqrt(3) - sqrt(5)
    radii = [refine(x, bits).radius for bits in (16, 32, 64, 128, 256)]
    assert all(a >= b for a, b in zip(radii, radii[1:]))
    assert radii[-1] <= Fraction(1, 2 ** 256) * 3


def test_compare_antisymmetry_random():
    rng = random.Random(7)
    flip = {Comparison.LESS: Comparison.GREATER,
            Comparison.GREATER: Comparison.LESS,
            Comparison.INDISTINGUISHABLE: Comparison.INDISTINGUISHABLE}
    for _ in range(200):
        x, xv = random_value(rng)
        y, yv = random_value(rng)
        c = compare(x, y)
        assert compare(y, x) is flip[c]
        if c is Comparison.LESS:
            assert xv < yv
        elif c is Comparison.GREATER:
            assert xv > yv


def test_an_expression_evaluates_its_leaves_past_the_cap(compute_calls, monkeypatch):
    # the cap bounds what is asked of a handle, not of an expression's
    # leaves: those are evaluated at doublings up to the first at or past
    # 4x the cap, here 80, 160 and 320 bits under a 64-bit cap
    monkeypatch.setenv("SIMRA_PRECISION_CAP", "64")
    near = algebraic_root([-(2 * 10 ** 60 + 1), 0, 10 ** 60], (1, 2))  # sqrt(2 + 10^-60)
    lo, hi, _ = enclosure((sqrt(2) - near) * 2 ** 200, 64)
    assert [b for name, b in compute_calls if name == "_AlgebraicLeaf"] == [80, 160, 320]
    # the leaves differ by about 2^-201, so 64 bits of the product need leaves
    # past 264 bits
    assert hi < 0 and hi - lo <= Fraction(1, 2 ** 64) * -hi


def test_precision_cap_roundtrip(monkeypatch):
    monkeypatch.delenv("SIMRA_PRECISION_CAP", raising=False)
    assert rigorous.precision_cap() == 4096
    monkeypatch.setenv("SIMRA_PRECISION_CAP", str(1 << 10))
    assert rigorous.precision_cap() == 1 << 10
    with pytest.raises(PrecisionCapExceeded, match="1024-bit"):
        refine(sqrt(2), (1 << 10) + 1)
    for bad in ("8", "63", "abc", ""):
        monkeypatch.setenv("SIMRA_PRECISION_CAP", bad)
        with pytest.raises(DomainError, match="SIMRA_PRECISION_CAP"):
            rigorous.precision_cap()


def test_dyadic_bounds():
    lo, hi = rigorous.dyadic_bounds(sqrt(2), 16)
    assert lo <= SQRT2 * 2 ** 16 <= hi
    assert hi - lo == 1
    # a value on the grid that no enclosure saturates straddles it up to the cap
    assert rigorous.dyadic_bounds(sqrt(2) * sqrt(2), 16) == (2 ** 17 - 1, 2 ** 17 + 1)


# -- isolation on the square-free part p / gcd(p, p'), as done before one
# Sturm chain of p served both the repeated-root check and the root count


def _reference_divmod(a, b):
    """Long division over Q; returns (quotient, remainder)."""
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    q = [Fraction(0)] * max(len(a) - db, 1)
    while len(a) - 1 >= db and any(a):
        if a[-1] == 0:
            a.pop()
            continue
        shift = len(a) - 1 - db
        coef = a[-1] / lb
        q[shift] = coef
        for i in range(db + 1):
            a[shift + i] -= coef * b[i]
        a.pop()
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return q, a


def _reference_primitive(coeffs):
    """Primitive integer polynomial with a positive leading coefficient."""
    c = [Fraction(x) for x in coeffs]
    while c and c[-1] == 0:
        c.pop()
    if not c:
        return ()
    mult = lcm(*[x.denominator for x in c])
    ints = [int(x * mult) for x in c]
    g = gcd(*ints)
    return tuple(v // g if ints[-1] > 0 else -v // g for v in ints)


def _reference_pgcd(a, b):
    fa = [Fraction(c) for c in rigorous._ptrim(a)]
    fb = [Fraction(c) for c in rigorous._ptrim(b)]
    while fb and any(fb):
        _, r = _reference_divmod(fa, fb)
        fa, fb = fb, r
        if len(fb) == 1 and fb[0] == 0:
            fb = []
    return _reference_primitive(fa)


class _ReferenceLeaf(rigorous._AlgebraicLeaf):
    """The leaf refining on the square-free part of its polynomial."""

    __slots__ = ()

    def __init__(self, coeffs, lo, hi):
        rigorous._Desc.__init__(self)
        coeffs = rigorous._ptrim([int(c) for c in coeffs])
        if len(coeffs) < 2:
            raise DomainError("polynomial must have degree >= 1")
        if not lo < hi:
            raise DomainError("isolating interval must satisfy lo < hi")
        s_lo = rigorous._psign_at(coeffs, lo.numerator, lo.denominator)
        s_hi = rigorous._psign_at(coeffs, hi.numerator, hi.denominator)
        if s_lo == 0 or s_hi == 0:
            raise NoSignChange("an interval endpoint is a root of the polynomial")
        g = _reference_pgcd(coeffs, rigorous._pderiv(coeffs))
        sf = coeffs
        if len(g) > 1:
            g_lo = rigorous._psign_at(g, lo.numerator, lo.denominator)
            g_hi = rigorous._psign_at(g, hi.numerator, hi.denominator)
            if g_lo == 0 or g_hi == 0 or count_real_roots(g, lo, hi) > 0:
                raise NotSquareFree(
                    "polynomial has a repeated root inside the isolating interval"
                )
            sf, _ = _reference_divmod([Fraction(c) for c in coeffs],
                                      [Fraction(c) for c in g])
        sf = _reference_primitive(sf)
        if s_lo * s_hi > 0:
            raise NoSignChange("polynomial has the same sign at both endpoints")
        nroots = count_real_roots(sf, lo, hi)
        if nroots != 1:
            raise NoSignChange(
                f"interval does not isolate a single root (contains {nroots})"
            )
        self.coeffs = sf
        self.deriv = rigorous._pderiv(sf)
        self.exact = None
        self._init_dyadic(lo, hi)


def _pmul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _random_polynomial(rng):
    p = [rng.randint(-6, 6) for _ in range(rng.randint(2, 5))]
    if rng.random() < 0.5:
        factor = [rng.randint(-8, 8), rng.randint(1, 3)]
        p = _pmul(p, _pmul(factor, factor))
    return p


def _leaf_outcome(cls, coeffs, lo, hi):
    try:
        return cls(coeffs, lo, hi)
    except (DomainError, NoSignChange, NotSquareFree) as e:
        return type(e), str(e)


def test_isolation_matches_the_square_free_reference():
    rng = random.Random(20261018)
    square_free = repeated = 0
    for _ in range(600):
        coeffs = _random_polynomial(rng)
        lo = Fraction(rng.randint(-16, 16), rng.randint(1, 4))
        hi = lo + Fraction(rng.randint(0, 16), rng.randint(1, 4))
        got = _leaf_outcome(rigorous._AlgebraicLeaf, coeffs, lo, hi)
        want = _leaf_outcome(_ReferenceLeaf, coeffs, lo, hi)
        if isinstance(want, tuple):
            assert got == want, (coeffs, lo, hi)
            continue
        assert not isinstance(got, tuple), (coeffs, lo, hi, got)
        p = rigorous._ptrim(coeffs)
        is_square_free = len(_reference_pgcd(p, rigorous._pderiv(p))) == 1
        square_free += is_square_free
        repeated += not is_square_free
        for bits in (64, 200, 1000):
            glo, ghi, _ = got.enclosure(bits)
            wlo, whi, _ = want.enclosure(bits)
            if is_square_free:
                assert (glo, ghi) == (wlo, whi), (coeffs, lo, hi, bits)
            else:
                assert max(glo, wlo) <= min(ghi, whi), (coeffs, lo, hi, bits)
    assert square_free >= 30 and repeated >= 20


# -- the Sturm chain in integers, against a Fraction chain and known roots


def _reference_sturm_chain(coeffs):
    """p, p' and the negated remainders of long division over Q, each
    remainder scaled by a positive rational to a primitive integer one."""
    def primitive(c):
        ints = [int(x * lcm(*[y.denominator for y in c])) for x in c]
        g = gcd(*ints)
        return tuple(v // g for v in ints)

    p = rigorous._ptrim(coeffs)
    chain = [p, rigorous._pderiv(p)]
    rest = [[Fraction(c) for c in p], [Fraction(c) for c in chain[1]]]
    while len(rest[-1]) > 1:
        _, r = _reference_divmod(rest[-2], rest[-1])
        if not any(r):
            break
        rest.append([-x for x in r])
        chain.append(primitive(rest[-1]))
    return chain


def _frontier_polynomial(lam_hat, n):
    """q^n x^(n-1) - sum_{i<n} p^(i+1) q^(n-1-i) x^(n-1-i), lam_hat = p/q:
    mm_lhs(lam_hat, x, n) = 1 with the denominators cleared."""
    p, q = lam_hat.numerator, lam_hat.denominator
    coeffs = [-p ** (n - j) * q ** j for j in range(n)]
    coeffs[n - 1] += q ** n
    return coeffs


def _known_root_polynomial(rng):
    """A product of factors (v x - u) and x^2 - d, d not a square, some
    repeated, with its distinct rational roots and its values of d."""
    coeffs, rationals, squares = [1], set(), set()
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.5:
            u, v = rng.randint(-12, 12), rng.randint(1, 6)
            factor = [-u, v]
            rationals.add(Fraction(u, v))
        else:
            d = rng.choice([2, 3, 5, 6, 7, 8, 10, 12])
            factor = [-d, 0, 1]
            squares.add(d)
        for _ in range(rng.choice([1, 1, 2, 3])):
            coeffs = _pmul(coeffs, factor)
    return coeffs, rationals, squares


def _roots_in(rationals, squares, lo, hi):
    """Distinct known roots in (lo, hi], the irrational ones +-sqrt(d)
    compared with a rational t exactly: sqrt(d) < t iff t > 0 and t^2 > d."""
    def below(s, d, t):  # s sqrt(d) < t
        return (t > 0 and t * t > d) if s > 0 else (t > 0 or t * t < d)
    count = sum(1 for r in rationals if lo < r <= hi)
    for d in squares:
        count += sum(1 for s in (1, -1) if below(s, d, hi) and not below(s, d, lo))
    return count


def test_sturm_chain_counts_known_roots_and_equals_the_fraction_chain():
    rng = random.Random(20261019)
    cases = 0
    for _ in range(150):
        coeffs, rationals, squares = _known_root_polynomial(rng)
        chain = rigorous._sturm_chain(coeffs)
        assert chain == _reference_sturm_chain(coeffs), coeffs
        for _ in range(10):
            lo = Fraction(rng.randint(-40, 40), rng.randint(1, 9))
            hi = lo + Fraction(rng.randint(1, 60), rng.randint(1, 9))
            if lo in rationals or hi in rationals:
                continue
            cases += 1
            assert count_real_roots(coeffs, lo, hi) == _roots_in(
                rationals, squares, lo, hi), (coeffs, lo, hi)
    assert cases >= 1000


def test_sturm_chain_equals_the_fraction_chain_on_sparse_signed_polynomials():
    # zeros and negative leading coefficients: a reduction can take an odd
    # number of steps, where a negative multiplier lc(b) would flip the sign
    rng = random.Random(20261021)
    for _ in range(300):
        coeffs = [rng.choice([0, 0, rng.randint(-9, 9)]) for _ in range(rng.randint(2, 8))]
        coeffs.append(rng.choice([-1, 1]) * rng.randint(1, 9))
        assert rigorous._sturm_chain(coeffs) == _reference_sturm_chain(coeffs), coeffs


def test_sturm_chain_of_the_n_7_frontier_polynomial():
    # coefficients near 100^7: the one root above lam_hat is the frontier,
    # which spectra bisects on mm_lhs in integers, with no Sturm chain
    lam_hat = Fraction(97, 100)
    coeffs = _frontier_polynomial(lam_hat, 7)
    assert rigorous._sturm_chain(coeffs) == _reference_sturm_chain(coeffs)
    root = spectra.frontier(lam_hat, 7)
    tol = Fraction(1, 10 ** 14)
    hi = 64
    assert count_real_roots(coeffs, lam_hat, hi) == 1
    assert count_real_roots(coeffs, root - tol, root + tol) == 1
    assert count_real_roots(coeffs, lam_hat, root - tol) == 0
    assert count_real_roots(coeffs, root + tol, hi) == 0


# -- the refinement certificate: signs at two dyadic ends ------------------------

def _is_dyadic(q):
    return q.denominator & (q.denominator - 1) == 0


def _certified_enclosure(coeffs, lo, hi, bits):
    """A fresh leaf's enclosure at bits, checked against its certificate:
    ends inside the isolating interval, and either dyadic ends with opposite
    signs of the polynomial or one exact end, a root; and the radius
    contract."""
    a, b, sat = rigorous._AlgebraicLeaf(coeffs, lo, hi).enclosure(bits)
    assert lo <= a <= b <= hi, (coeffs, lo, hi, bits)
    s_a = rigorous._psign_at(coeffs, a.numerator, a.denominator)
    s_b = rigorous._psign_at(coeffs, b.numerator, b.denominator)
    if sat:
        assert a == b and s_a == 0, (coeffs, lo, hi, bits)
    else:
        assert _is_dyadic(a) and _is_dyadic(b), (coeffs, lo, hi, bits)
        assert s_a * s_b == -1, (coeffs, lo, hi, bits)
    assert (b - a) / 2 <= Fraction(1, 2 ** bits) * max(1, abs(a + b) / 2)
    return a, b, sat


def test_refinement_is_certified_by_signs_at_its_dyadic_ends():
    rng = random.Random(20261019)
    cases = 0
    while cases < 40:
        coeffs = rigorous._ptrim([rng.randint(-9, 9) for _ in range(rng.randint(3, 7))])
        if len(coeffs) < 2 or len(_reference_pgcd(coeffs, rigorous._pderiv(coeffs))) > 1:
            continue
        lo = Fraction(rng.randint(-16, 16), rng.randint(1, 4))
        hi = lo + Fraction(rng.randint(1, 16), rng.randint(1, 4))
        if isinstance(_leaf_outcome(rigorous._AlgebraicLeaf, coeffs, lo, hi), tuple):
            continue
        cases += 1
        for bits in (64, 200, 1000, rigorous.precision_cap()):
            _certified_enclosure(coeffs, lo, hi, bits)


def test_refinement_separates_two_roots_2_to_the_minus_40_apart():
    # sqrt(2) and sqrt(2) + 2^-40: x^2 - 2 times (2^40 x - 1)^2 - 2^81
    coeffs = _pmul([-2, 0, 1], [1 - 2 ** 81, -2 ** 41, 2 ** 80])
    split = Fraction(isqrt(2 << 120), 2 ** 60) + Fraction(1, 2 ** 41)
    shift = Fraction(1, 2 ** 40)
    for bits in (64, 200, 1000, rigorous.precision_cap()):
        a, b, _ = _certified_enclosure(coeffs, Fraction(1), split, bits)
        assert a * a < 2 < b * b
        a, b, _ = _certified_enclosure(coeffs, split, Fraction(2), bits)
        assert (a - shift) ** 2 < 2 < (b - shift) ** 2


@pytest.mark.parametrize("lo, hi", [
    (Fraction(0), Fraction(1)),  # a bisection midpoint lands on 3/8
    (Fraction(11, 32), Fraction(13, 32)),  # so does the first Newton midpoint
], ids=["bisection", "newton"])
def test_an_exact_dyadic_root_collapses(lo, hi):
    coeffs = _pmul([-3, 8], [-2, 0, 1])  # (8x - 3)(x^2 - 2)
    for bits in (64, rigorous.precision_cap()):
        assert _certified_enclosure(coeffs, lo, hi, bits) == (
            Fraction(3, 8), Fraction(3, 8), True)


@pytest.mark.parametrize("cls", [rigorous._AlgebraicLeaf, _ReferenceLeaf],
                         ids=["leaf", "square-free-reference"])
@pytest.mark.parametrize("coeffs, lo, hi, root", [
    ([6, -16, -3, 8], Fraction(1, 3), Fraction(1), Fraction(3, 8)),  # (8x - 3)(x^2 - 2)
    ([2, -6, -1, 3], Fraction(0), Fraction(1), Fraction(1, 3)),  # (3x - 1)(x^2 - 2)
    # reduced denominators that properly divide lc = +-6
    ([7, -14, -3, 6], Fraction(1, 3), Fraction(3, 5), Fraction(1, 2)),  # (2x - 1)(3x^2 - 7)
    ([-7, 14, 3, -6], Fraction(1, 3), Fraction(3, 5), Fraction(1, 2)),
    ([7, -21, -2, 6], Fraction(0), Fraction(1), Fraction(1, 3)),  # (3x - 1)(2x^2 - 7)
    ([-7, 21, 2, -6], Fraction(0), Fraction(1), Fraction(1, 3)),
], ids=["3/8", "1/3", "1/2-of-lc-6", "1/2-of-lc-minus-6", "1/3-of-lc-6",
        "1/3-of-lc-minus-6"])
def test_a_rational_root_is_exact(cls, coeffs, lo, hi, root):
    leaf = cls(coeffs, lo, hi)
    assert leaf.exact == root
    for bits in (64, rigorous.precision_cap()):
        assert leaf.enclosure(bits) == (root, root, True)
    assert _certified_enclosure(coeffs, lo, hi, 64) == (root, root, True)


def test_rational_roots_by_the_factor_are_exact():
    rng = random.Random(20261020)
    cases = 0
    while cases < 300:
        k = rng.randint(0, 8)
        v = rng.choice([1 << k, rng.randint(1, 40)])
        u = rng.randint(-3 * v, 3 * v)
        root = Fraction(u, v)
        coeffs = _pmul([-u, v], [-2, 0, 1])  # (v x - u)(x^2 - 2)
        lo = root - Fraction(rng.randint(1, 64), rng.randint(1, 64))
        hi = root + Fraction(rng.randint(1, 64), rng.randint(1, 64))
        if isinstance(_leaf_outcome(rigorous._AlgebraicLeaf, coeffs, lo, hi), tuple):
            continue
        cases += 1
        assert _certified_enclosure(coeffs, lo, hi, 64) == (root, root, True), (u, v, lo, hi)


def test_a_rational_root_outside_the_interval_is_not_taken():
    # (5x - 7)(x^2 - 2) on (1.405, 1.43): 7/5 is the fraction of denominator
    # <= 5 nearest the midpoint and a root, but the interval isolates sqrt(2)
    coeffs = _pmul([-7, 5], [-2, 0, 1])
    a, b, sat = _certified_enclosure(coeffs, Fraction(281, 200), Fraction(143, 100), 64)
    assert not sat and a * a < 2 < b * b


# -- enclosures on first read ---------------------------------------------------

@pytest.mark.parametrize("build, message", [
    (lambda: rational(1) / 0, "division by an enclosure containing zero"),
    (lambda: sqrt(2) / (rational(3) - 3), "division by an enclosure containing zero"),
    (lambda: sqrt(rational(-2)), "square root of a negative enclosure"),
    (lambda: sqrt(decimal_literal("-2.5") * 2), "square root of a negative enclosure"),
], ids=["div-rational", "div-expr", "sqrt-rational", "sqrt-decimal"])
def test_expression_faults_raise_at_first_read(build, message):
    # building the expression computes nothing, so it raises nothing; every
    # read then raises the typed error the construction used to raise
    x = build()
    for read in (lambda: x.lo, lambda: float(x), lambda: enclosure(x, 96),
                 lambda: compare(x, 1)):
        with pytest.raises(DomainError, match=f"^{message}$"):
            read()


def test_building_computes_nothing_until_read(compute_calls):
    x = (sqrt(2) + sqrt(3)) * algebraic_root([-2, 0, 0, 1], (1, 2)) - Fraction(1, 3)
    y = maximum(abs(x), x / 7, -x)
    assert compute_calls == []
    assert y.radius <= Fraction(1, 2 ** 64) * max(1, abs(y.midpoint))
    assert compute_calls[0] == ("_Expr", 64)
    done = len(compute_calls)
    assert not y.saturated and y.lo < y.midpoint < y.hi
    assert len(compute_calls) == done  # the handle keeps its enclosure


def test_a_read_after_a_finer_enclosure_keeps_the_bounds():
    x = sqrt(2) + sqrt(3)
    first = (x.lo, x.hi, x.saturated)
    lo, hi, _ = enclosure(x, 96)
    assert first[0] < lo and hi < first[1]
    assert (x.lo, x.hi, x.saturated) == first
    # a handle first read after its value was refined reads the finer bounds
    y = sqrt(2) + sqrt(3)
    lo, hi, _ = enclosure(y, 96)
    assert (y.lo, y.hi) == (lo, hi) != first[:2]


@pytest.mark.parametrize("bits", [64, 200, 1000])
def test_refine_is_computed_at_its_own_bits(compute_calls, bits):
    x = sqrt(2) * sqrt(3) + algebraic_root([-2, 0, 0, 1], (1, 2))
    r = refine(x, bits)
    assert compute_calls[0] == ("_Expr", bits)
    done = len(compute_calls)
    assert r.radius <= Fraction(1, 2 ** bits) * max(1, abs(r.midpoint))
    assert (r.lo, r.hi) == enclosure(x, bits)[:2]
    assert len(compute_calls) == done
