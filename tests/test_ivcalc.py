"""The interval layer: exact rational ends, logs and powers in integers."""

import ast
import decimal
import math
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import simra
from simra import ivcalc, rigorous
from simra.errors import DomainError
from simra.ivcalc import (Interval, enclose, frac_enclosure, iv_log, iv_pow, lower,
                          midpoint_float, rig_interval, upper)

# decimal's ln and exp are correctly rounded; at 120 digits even an argument
# 10^-30 from 1, which enters rounded, gives its log to 10^-(120 - 31) relative
REF = decimal.Context(prec=120)


def test_frac_enclosure_matches_the_interval_division():
    # a rational enters exactly, as the quotient of its numerator and
    # denominator, at any size
    rng = random.Random(14)
    sizes = (1, 2, 8, 53, 64, 191, 192, 193, 250, 400)
    cases = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 3), Fraction(-2, 3)]
    while len(cases) < 1200:
        p = rng.getrandbits(rng.choice(sizes)) * rng.choice((1, -1))
        q = rng.getrandbits(rng.choice(sizes)) or 1
        cases.append(Fraction(p, q))
    assert sum(f < 0 for f in cases) >= 400
    assert sum(abs(f.numerator).bit_length() > 192
               and f.denominator.bit_length() > 192 for f in cases) >= 50
    for f in cases:
        got = frac_enclosure(f)
        assert got == Interval(f, f)
        assert got == frac_enclosure(f.numerator) / frac_enclosure(f.denominator)


def test_enclose_matches_the_expressions_it_replaces():
    x = Interval(Fraction(1, 3), Fraction(1, 2))
    assert enclose(x) is x
    # two handles of one value, so neither reads the other's cached enclosure
    assert enclose(rigorous.sqrt(2)) == rig_interval(rigorous.sqrt(2))
    lo, hi, _ = rigorous.enclosure(rigorous.sqrt(2), 96)
    assert enclose(rigorous.sqrt(2)) == Interval(lo, hi)
    for v in (Fraction(-5, 7), Fraction(10 ** 60 + 1, 3), 3, "11/13"):
        f = Fraction(v)
        assert enclose(v) == frac_enclosure(f) == Interval(f, f)


def test_arithmetic_matches_the_four_end_formulas():
    """Each operation gives the ends of the textbook formulas: the least and
    the greatest of the four end products (quotients), whatever the signs."""
    rng = random.Random(24)

    def rand_interval():
        lo = Fraction(rng.randint(-40, 40), rng.randint(1, 9))
        return Interval(lo, lo + rng.choice((0, Fraction(rng.randint(1, 40), rng.randint(1, 9)))))

    def hull(values):
        values = list(values)
        return Interval(min(values), max(values))

    divisions = 0
    for _ in range(2000):
        x, y = rand_interval(), rand_interval()
        assert x + y == Interval(x.lo + y.lo, x.hi + y.hi)
        assert x - y == Interval(x.lo - y.hi, x.hi - y.lo)
        assert -x == Interval(-x.hi, -x.lo)
        assert x * y == y * x == hull(a * b for a in (x.lo, x.hi) for b in (y.lo, y.hi))
        assert abs(x) == (hull(abs(v) for v in (x.lo, x.hi)) if x.lo >= 0 or x.hi <= 0
                          else Interval(Fraction(0), max(-x.lo, x.hi)))
        if y.lo <= 0 <= y.hi:
            with pytest.raises(DomainError, match="containing zero"):
                x / y
        else:
            divisions += 1
            assert x / y == hull(a / b for a in (x.lo, x.hi) for b in (y.lo, y.hi))
    assert divisions > 1000
    # plain rationals are coerced, on either side of a product
    half = Interval(Fraction(1, 3), Fraction(1, 2))
    assert half / 2 == Interval(Fraction(1, 6), Fraction(1, 4)) == 1 * half / 2


def test_float_endpoints_stay_bounds_past_the_double_range():
    big, tiny, top = Fraction(10 ** 400), Fraction(1, 10 ** 400), sys.float_info.max
    # a finite endpoint past the range gives the largest finite double
    assert lower(frac_enclosure(big)) == top and upper(frac_enclosure(big)) == math.inf
    assert upper(frac_enclosure(-big)) == -top and lower(frac_enclosure(-big)) == -math.inf
    # an endpoint below the smallest double is not rounded to the wrong side of 0
    assert lower(frac_enclosure(tiny)) == 0.0 < upper(frac_enclosure(tiny))
    assert lower(frac_enclosure(-tiny)) < 0.0 == upper(frac_enclosure(-tiny))
    # inside the range nothing moves
    third = frac_enclosure(Fraction(1, 3))
    assert lower(third) == 0.3333333333333333 and upper(third) == 0.33333333333333337
    assert lower(frac_enclosure(0.1)) == upper(frac_enclosure(0.1)) == 0.1
    with pytest.raises(DomainError, match="exceeds the double range"):
        midpoint_float(frac_enclosure(big))
    assert midpoint_float(frac_enclosure(Fraction(top))) == top


def test_midpoint_float_is_the_rounded_fraction_midpoint():
    # ends from 2^-1100 to 2^1100 in size: subnormal, overflowing, and every
    # rounding in between
    rng = random.Random(27)

    def end():
        num = rng.getrandbits(rng.randint(1, 1100)) * rng.choice((-1, 1))
        return Fraction(num, rng.getrandbits(rng.randint(1, 1100)) + 1)

    overflows = 0
    for _ in range(10_000):
        v = Interval(*sorted((end(), end())))
        try:
            want = float((v.lo + v.hi) / 2)
        except OverflowError:
            overflows += 1
            with pytest.raises(DomainError, match="exceeds the double range"):
                midpoint_float(v)
        else:
            assert midpoint_float(v) == want, v
    assert overflows > 20


# -- log, exp and rational powers against decimal -------------------------------

def _dec(q: Fraction) -> decimal.Decimal:
    return REF.divide(decimal.Decimal(q.numerator), decimal.Decimal(q.denominator))


def ref_log(q: Fraction) -> Fraction:
    return Fraction(REF.ln(_dec(q)))


def ref_pow(q: Fraction, e: Fraction) -> Fraction:
    wide = decimal.Context(prec=140)
    t = wide.multiply(wide.ln(wide.divide(q.numerator, q.denominator)),
                      wide.divide(e.numerator, e.denominator))
    return Fraction(REF.exp(t))


def assert_encloses(got: Interval, lo_ref: Fraction, hi_ref: Fraction):
    """got holds both references and is at most 2^-(PREC - 8) wider, relative."""
    assert got.lo <= lo_ref <= hi_ref <= got.hi, (got, lo_ref, hi_ref)
    size = max(abs(lo_ref), abs(hi_ref))
    assert (got.hi - got.lo) - (hi_ref - lo_ref) <= size / 2 ** (ivcalc.PREC - 8), got


def _points():
    rng = random.Random(2024)
    sizes = (8, 53, 120, 300)
    xs = [Fraction(rng.getrandbits(rng.choice(sizes)) + 1,
                   rng.getrandbits(rng.choice(sizes)) + 1) for _ in range(150)]
    near_1 = [1 + Fraction(1, 10 ** 30), 1 - Fraction(1, 10 ** 30),
              Fraction(2 ** 100 - 1, 2 ** 100), Fraction(10001, 10000),
              Fraction(9999, 10000)]
    ends = [Fraction(10) ** 300, Fraction(1, 10 ** 300), Fraction(2), Fraction(1, 2),
            Fraction(3, 2), Fraction(7, 10), Fraction(7, 5)]
    return xs + near_1 + ends


def _enclosures():
    """96-bit enclosures of RigorousReals: roots, near 1, tiny and huge."""
    rng = random.Random(96)
    values = [rigorous.algebraic_root([-k, 0, 1], (1, k)) for k in (2, 3, 5, 7)]
    values += [rigorous.algebraic_root([-2, 0, 0, 1], (1, 2)) * Fraction(10) ** 300,
               rigorous.sqrt(2) / Fraction(10) ** 300,
               1 + rigorous.sqrt(Fraction(1, 10 ** 41))]
    values += [rigorous.sqrt(Fraction(rng.getrandbits(80) + 1, rng.getrandbits(40) + 1))
               for _ in range(40)]
    return [rig_interval(v) for v in values]


def test_log_against_decimal():
    for x in _points():
        assert_encloses(iv_log(frac_enclosure(x)), ref_log(x), ref_log(x))
    for x in _enclosures():
        assert x.lo < x.hi
        assert_encloses(iv_log(x), ref_log(x.lo), ref_log(x.hi))
    # log 1 is exactly 0, and a log near 0 keeps its relative precision
    assert iv_log(frac_enclosure(1)) == frac_enclosure(0)
    near = iv_log(frac_enclosure(1 + Fraction(1, 10 ** 30)))
    assert 0 < near.lo and near.hi - near.lo < Fraction(1, 10 ** 30) / 2 ** 180


EXPONENTS = [Fraction(-2, 5), Fraction(37, 1000), Fraction(-7777, 3331), Fraction(1, 2),
             Fraction(2, 3), Fraction(-1, 3), Fraction(5, 7)]


def test_rational_powers_against_decimal():
    rng = random.Random(5)
    for x in _points():
        for e in rng.sample(EXPONENTS, 3) + [Fraction(-7777, 3331)]:
            assert_encloses(iv_pow(frac_enclosure(x), e), ref_pow(x, e), ref_pow(x, e))
    for x in _enclosures():
        for e in rng.sample(EXPONENTS, 3):
            ends = sorted((ref_pow(x.lo, e), ref_pow(x.hi, e)))
            assert_encloses(iv_pow(x, e), *ends)


@pytest.mark.parametrize("base, e, exact", [
    (8, Fraction(2, 3), 4), (4, Fraction(1, 2), 2), (Fraction(1, 8), Fraction(-1, 3), 2),
    (Fraction(9, 4), Fraction(3, 2), Fraction(27, 8)), (10 ** 300, Fraction(1, 100), 1000),
    (1, Fraction(-7777, 3331), 1),
], ids=["8^(2/3)", "4^(1/2)", "(1/8)^(-1/3)", "(9/4)^(3/2)", "(10^300)^(1/100)",
        "1^(-7777/3331)"])
def test_rational_powers_of_exact_cases(base, e, exact):
    got = iv_pow(frac_enclosure(base), e)
    assert_encloses(got, Fraction(exact), Fraction(exact))
    assert midpoint_float(got) == float(exact)


def test_integer_exponents_stay_exact_powers():
    x = Interval(Fraction(2, 3), Fraction(5, 4))
    cube = Interval(Fraction(8, 27), Fraction(125, 64))
    assert iv_pow(x, 3) == iv_pow(x, Fraction(3)) == cube
    assert iv_pow(x, -2) == Interval(Fraction(16, 25), Fraction(9, 4))
    assert iv_pow(x, 0) == Interval(Fraction(1), Fraction(1))


@pytest.mark.parametrize("x", [Interval(Fraction(0), Fraction(1)),
                               Interval(Fraction(-1), Fraction(2)),
                               frac_enclosure(-3)])
def test_log_and_power_refuse_an_enclosure_reaching_zero(x):
    for f in (iv_log, lambda v: iv_pow(v, Fraction(1, 2)), lambda v: iv_pow(v, 2)):
        with pytest.raises(DomainError, match="reaching down to 0"):
            f(x)


# -- mpmath is gone ----------------------------------------------------------------

def test_no_module_imports_mpmath():
    modules = sorted(pathlib.Path(simra.__file__).parent.glob("*.py"))
    assert len(modules) > 10
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            assert not any(name.split(".")[0] == "mpmath" for name in names), path.name


def test_the_analysis_subcommands_leave_mpmath_unimported(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(simra.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = """
import sys
from simra.cli import main
for argv in (["enumerate", "--preset", "cbrt2", "--xmax", "10000", "--out", "run"],
             ["exponents", "--run", "run"],
             ["transfer", "--run", "run", "--alpha", "2/5", "--beta", "3/5"],
             ["extremal", "--run", "run", "--alpha", "1", "--beta", "1",
              "--eps", "0", "--C", "1"]):
    assert main(argv) == 0, argv
print(sorted(m for m in sys.modules if m.split(".")[0] == "mpmath"))
"""
    out = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "run" / "extremal.json").exists()
