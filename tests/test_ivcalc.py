"""The mpmath interval layer: rationals enter through one outward division."""

import random
from fractions import Fraction

from mpmath import iv

from simra.ivcalc import frac_enclosure


def reference_enclosure(f):
    """The formula frac_enclosure reproduces: two outward-rounded integers,
    then one interval division, both at iv.prec."""
    return iv.mpf(f.numerator) / iv.mpf(f.denominator)


def test_frac_enclosure_matches_the_interval_division():
    rng = random.Random(14)
    sizes = (1, 2, 8, 53, 64, 191, 192, 193, 250, 400)  # iv.prec is 192
    cases = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 3), Fraction(-2, 3)]
    while len(cases) < 1200:
        p = rng.getrandbits(rng.choice(sizes)) * rng.choice((1, -1))
        q = rng.getrandbits(rng.choice(sizes)) or 1
        cases.append(Fraction(p, q))
    assert iv.prec == 192
    assert sum(f.numerator == 0 for f in cases) >= 1
    assert sum(f < 0 for f in cases) >= 400
    assert sum(abs(f.numerator).bit_length() > 192
               and f.denominator.bit_length() > 192 for f in cases) >= 50
    for f in cases:
        got = frac_enclosure(f)
        assert isinstance(got, iv.mpf)
        assert got._mpi_ == reference_enclosure(f)._mpi_, f
        # the cached endpoints are given out again, in a fresh interval
        assert frac_enclosure(f) is not got and frac_enclosure(f)._mpi_ == got._mpi_


def test_frac_enclosure_follows_the_working_precision(monkeypatch):
    f = Fraction(1, 3)
    at_192 = frac_enclosure(f)._mpi_
    monkeypatch.setattr(iv, "prec", 53)
    assert frac_enclosure(f)._mpi_ == reference_enclosure(f)._mpi_ != at_192
